"""Tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import collect  # noqa: E402
import common  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Names and the declared metrics
# ----------------------------------------------------------------------
def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_declared_workloads_are_runnable_and_setup_has_the_largest_bound():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def test_seed_reaches_scenario_and_mix(tmp_path):
    one, two = workloads.seeds(1), workloads.seeds(2)
    assert one == workloads.seeds(1)
    assert one["scenario"] != two["scenario"] and one["mix"] != two["mix"]
    store = tmp_path / "s.bin"
    crawl = workloads.crawl_args(workloads.LONGITUDINAL, 1, store)
    fleet = workloads.fleet_args(1, tmp_path)
    assert crawl["seed"] == fleet["seed"] == one["scenario"]

    from repro import ScenarioConfig, Study
    from repro.crawler.persistence import save_store
    from repro.options import ObservabilityOptions, RunOptions

    study = Study(
        ScenarioConfig(population=30, seed=one["scenario"]),
        options=RunOptions(observability=ObservabilityOptions(metrics=True)),
    )
    report = study.run(weeks=study.config.calendar.weeks[:4])
    save_store(study.store, store)
    metrics = tmp_path / "m.json"
    metrics.write_text(report.metrics.canonical_json())
    first = workloads.Stream(store, metrics, one["mix"], 300)
    again = workloads.Stream(store, metrics, one["mix"], 300)
    other = workloads.Stream(store, metrics, two["mix"], 300)
    assert first.consistent and other.consistent
    assert first.requests == again.requests and first.expected == again.expected
    assert first.requests != other.requests
    # The stream revalidates: some requests carry an ETag.
    assert any(etag for _, etag in first.requests)


# ----------------------------------------------------------------------
# Fleet kill point
# ----------------------------------------------------------------------
def test_fleet_kill_point_is_repeatable(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.FLEET, "population", 40)
    monkeypatch.setitem(workloads.FLEET, "ticks", 3)
    monkeypatch.setitem(workloads.FLEET, "weeks_per_tick", 2)
    digests = []
    for attempt in range(2):
        root = tmp_path / "queue"
        shutil.rmtree(root, ignore_errors=True)
        workloads.kill_fleet(5, root)
        digests.append(workloads.queue_state_digest(root))
        states = workloads._job_states(root)
    assert digests[0] == digests[1]
    # Killed inside the journaled crawl, before any later job started.
    assert states[workloads.FLEET_KILL_JOB] == "running"
    assert any((root / "checkpoints" / workloads.FLEET_KILL_JOB / "journal").glob("*.wal"))
    assert states["analyses-002"] == "pending" and states["serve-001"] == "done"


# ----------------------------------------------------------------------
# Comparison rule
# ----------------------------------------------------------------------
def _pairs(parent, change):
    return list(zip(parent, change))


def test_compare_claims_gain_only_past_nine_tenths_and_parent_iqr():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [p * 0.9 for p in parent]
    row = compare.verdict(parent, faster, _pairs(parent, faster), "lower", 0.25)
    assert row["verdict"] == "gain" and row["win_share"] == 1.0

    # Eight of ten wins is not enough, even with a large median gap.
    mixed = faster[:8] + [p * 1.01 for p in parent[8:]]
    row = compare.verdict(parent, mixed, _pairs(parent, mixed), "lower", 0.25)
    assert row["win_share"] == 0.8 and row["verdict"] == "same"

    # Every pair won, but the gap is inside the parent's own IQR.
    nudged = [p - 0.5 for p in parent]
    row = compare.verdict(parent, nudged, _pairs(parent, nudged), "lower", 0.25)
    assert row["win_share"] == 1.0 and row["verdict"] == "same"


def test_compare_ties_count_for_neither_side():
    parent = [10.0] * 10
    change = [10.0] * 9 + [9.0]
    row = compare.verdict(parent, change, _pairs(parent, change), "lower", 0.25)
    assert row["win_share"] == 0.1 and row["verdict"] == "same"


def test_compare_flags_regression_past_the_bound_in_either_direction():
    parent = [1000.0 + i for i in range(10)]
    slower = [p * 0.7 for p in parent]  # throughput, higher is better
    row = compare.verdict(parent, slower, _pairs(parent, slower), "higher", 0.25)
    assert row["verdict"] == "REGRESSION"
    slight = [p * 0.9 for p in parent]
    row = compare.verdict(parent, slight, _pairs(parent, slight), "higher", 0.25)
    assert row["verdict"] == "same"


def test_compare_reports_unresolved_when_parent_spread_exceeds_bound():
    parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 1.1, 1.0]
    change = [p * 1.05 for p in parent]
    row = compare.verdict(parent, change, _pairs(parent, change), "lower", 0.1)
    assert row["verdict"] == "unresolved"


def test_collect_alternates_which_side_runs_first(tmp_path, monkeypatch):
    calls = []

    def fake_run(root, workload, seed, seconds, out):
        calls.append((out.parts[-3], seed, seconds))
        return True

    monkeypatch.setattr(collect, "run_once", fake_run)
    monkeypatch.setattr(collect, "print_spreads", lambda out: None)
    status = collect.main(["--out", str(tmp_path), "--parent", str(tmp_path),
                           "--workloads", "w", "--seeds", "1-3"])
    seconds = SPEC["run_seconds"]
    assert status == 0
    assert calls == [
        ("parent", 1, seconds), ("change", 1, seconds),
        ("change", 2, seconds), ("parent", 2, seconds),
        ("parent", 3, seconds), ("change", 3, seconds),
    ]


def test_compare_reads_result_sets(tmp_path):
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        for seed in range(1, 11):
            path = tmp_path / side / "w" / f"seed-{seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            metrics = {
                m["name"]: {"value": (1.0 + seed / 100)
                            * (scale if m["name"] == "wall_s" else 1.0),
                            "unit": m["unit"]}
                for m in SPEC["end_to_end"]
            }
            path.write_text(json.dumps({"correct": True, "attempted": 1,
                                        "failed": 0, "metrics": metrics}))
    rows = {r["metric"]: r for r in compare.compare(tmp_path / "parent", tmp_path / "change")}
    assert rows["wall_s"]["verdict"] == "gain" and rows["wall_s"]["pairs"] == 10
    assert rows["setup_s"]["verdict"] == "same"


# ----------------------------------------------------------------------
# Tracing and the command's failure mode
# ----------------------------------------------------------------------
def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.03)

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        time.sleep(0.01)
        traced_inner()

    tracer.wrap(outer, "outer")()
    layers = tracer.summary()["layers"]
    assert layers["outer"]["calls"] == layers["inner"]["calls"] == 1
    assert layers["outer"]["total_ns"] >= layers["inner"]["total_ns"] >= 30e6
    assert layers["outer"]["self_ns"] == (
        layers["outer"]["total_ns"] - layers["inner"]["total_ns"]
    )


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / "_work").exists()


def test_percentile_is_nearest_rank_on_raw_samples():
    samples = sorted(range(1, 1001))
    assert common.percentile(samples, 50) == 500
    assert common.percentile(samples, 99) == 990
    with pytest.raises(ValueError):
        common.percentile([], 50)
