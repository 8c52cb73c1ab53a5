"""The four workloads: what each runs, times and checks.

Every workload runs its timed *unit* repeatedly in fresh program
processes until ``seconds`` of measurement have passed (and at least
:data:`MIN_UNITS` times), then reports medians.  A traced run alternates
untraced and traced units, so ``trace.overhead`` compares the two within
one run.

End-to-end metrics (every workload reports all of them):

* ``setup_s`` — fresh interpreter start to the first useful work.
* ``wall_s`` — what a caller waits for one unit: a crawl from process
  start to saved store and results; one request round trip; a resumed
  fleet from process start to quiescence.
* ``ops_per_s`` — operations per second of the timed phase: grid cells
  over ``Study.run()``, correct responses over the replay, jobs over the
  resumed ``Orchestrator.run()``.
* ``peak_rss_mib`` — peak RSS of the program's own process.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import common
import tracing
from common import Result, derive_seed, percentile, run_child

#: Fewest timed units a run reports a median over.
MIN_UNITS = 3

#: Paper-shaped crawl: the full 201-week calendar in manifest mode, where
#: most site states repeat week to week.
LONGITUDINAL = {"population": 400, "mode": "manifest", "weeks": None}
#: Full mode over one week: every domain is fetched, rendered and
#: fingerprinted for the first time, so the profile cache never hits.
SNAPSHOT = {"population": 3000, "mode": "full", "weeks": 1}

#: Requests in the precomputed replay stream (cycled when exhausted).
SERVE_STREAM = 4000
#: Server start-ups per run; the last one serves the replay.
SERVE_SETUPS = 5

#: The fleet: ``ticks`` beats of crawl -> analyses -> report -> serve on
#: the process backend, killed just before ``kill_job`` records its
#: completion, so the resume replays that crawl's journaled shards and
#: runs the later jobs fresh.  One worker process: the orchestrator
#: waits while it works, so the resume keeps one CPU busy at a time and
#: does not time how often the host runs both of the machine's CPUs at once.
FLEET = {
    "population": 500,
    "ticks": 4,
    "weeks_per_tick": 8,
    "backend": "process",
    "workers": 1,
}
FLEET_KILL_JOB = "crawl-002"
FLEET_KILL_CODE = 137


def seeds(seed: int) -> Dict[str, int]:
    """The scenario and request-mix seeds derived from the workload seed."""
    return {"scenario": derive_seed(seed, "scenario"), "mix": derive_seed(seed, "mix")}


def _units(seconds: float, trace: bool):
    """Yields a ``traced`` flag per unit until ``seconds`` are used up.

    A traced run alternates untraced and traced units; either kind runs
    at least :data:`MIN_UNITS` times.
    """
    deadline = time.monotonic() + seconds
    least = MIN_UNITS * (2 if trace else 1)
    count = 0
    while count < least or time.monotonic() < deadline:
        yield trace and count % 2 == 1
        count += 1


def _layer_medians(summaries: List[dict], bases_s: List[float]) -> Dict[str, float]:
    """Per-layer values of the traced units, the median of each over units.

    ``bases_s`` holds each unit's traced timed phase (``trace.unit_s``);
    a span's ``share`` is its self time over that phase.  Values are
    keyed by the per-layer metric names of ``BENCHMARK.json``: a span
    ``S`` gives ``S.share``, ``S.total_share`` and ``S.calls`` (and, for
    the printed table, ``S.self_s`` and ``S.total_s``); a count keeps
    the name the tracer gave it.
    """
    per_metric: Dict[str, List[float]] = {}
    for summary, base in zip(summaries, bases_s):
        values: Dict[str, float] = {"trace.unit_s": base}
        for name, entry in summary["layers"].items():
            values[f"{name}.self_s"] = entry["self_ns"] / 1e9
            values[f"{name}.total_s"] = entry["total_ns"] / 1e9
            values[f"{name}.share"] = entry["self_ns"] / 1e9 / base
            values[f"{name}.total_share"] = entry["total_ns"] / 1e9 / base
            values[f"{name}.calls"] = entry["calls"]
        values.update(summary["counts"])
        for name, value in values.items():
            per_metric.setdefault(name, []).append(value)
    return {name: median(values) for name, values in per_metric.items()}


def _run_units(seconds: float, trace: bool, work: Path, unit) -> tuple:
    """Runs ``unit(index, trace_out)`` until ``seconds`` are used up.

    Returns the untraced units' reports, the traced units' reports and
    the traced units' span summaries.
    """
    untraced: List[dict] = []
    traced: List[dict] = []
    summaries: List[dict] = []
    for index, traced_unit in enumerate(_units(seconds, trace)):
        trace_out = work / f"trace-{index}.json" if traced_unit else None
        report = unit(index, trace_out)
        if trace_out is None:
            untraced.append(report)
        else:
            traced.append(report)
            summaries.append(json.loads(trace_out.read_text()))
    return untraced, traced, summaries


def _end_to_end(untraced: List[dict], ops_per_s) -> Dict[str, float]:
    """Medians over a crawl or fleet run's untraced units."""
    return {
        "setup_s": median(r["ready"] - r["spawn"] for r in untraced),
        "wall_s": median(r["done"] - r["spawn"] for r in untraced),
        "ops_per_s": median(ops_per_s(r) for r in untraced),
        "peak_rss_mib": median(r["peak_rss_kib"] / 1024 for r in untraced),
    }


def _traced_layers(untraced: List[dict], traced: List[dict], summaries: List[dict]):
    """Per-layer values plus the tracing overhead on the timed phase."""
    bases = [s["layers"][tracing.REGION]["total_ns"] / 1e9 for s in summaries]
    layers = _layer_medians(summaries, bases)
    phase = [r["done"] - r["ready"] for r in untraced]
    layers["trace.overhead"] = median(bases) / median(phase) - 1.0
    layers["trace.unattributed_s"] = layers[f"{tracing.REGION}.self_s"]
    for name in ("cache", "profile_store"):
        hits = layers.get(f"{name}.hits", 0)
        lookups = hits + layers.get(f"{name}.misses", 0)
        layers[f"{name}.lookups"] = lookups
        layers[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
    return layers


# ----------------------------------------------------------------------
# crawl-longitudinal / crawl-snapshot-full
# ----------------------------------------------------------------------
def crawl_args(spec: dict, seed: int, store: Path) -> dict:
    return {
        "population": spec["population"],
        "seed": seeds(seed)["scenario"],
        "mode": spec["mode"],
        "weeks": spec["weeks"],
        "store": str(store),
    }


def run_crawl(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    work = common.fresh_dir(common.WORK / name)
    digests = set()

    def unit(index: int, trace_out: Optional[Path]) -> dict:
        store = work / f"store-{index}.bin"
        args = crawl_args(spec, seed, store)
        if trace_out is not None:
            args["trace_out"] = str(trace_out)
        report = run_child("crawl", args)
        grid = report["grid"]
        result.attempted += grid
        result.failed += report["dropped_cells"]
        result.check(
            report["pages"] + report["fetch_failures"] + report["dropped_cells"]
            == grid,
            f"unit {index}: pages + fetch failures + dropped cells != grid",
        )
        result.check(
            report["reencode_identical"],
            f"unit {index}: saved store does not re-encode byte-identically",
        )
        digests.add(common.file_sha256(store))
        store.unlink()
        return report

    untraced, traced, summaries = _run_units(seconds, trace, work, unit)
    result.check(len(digests) == 1, "store digest differs between units")
    result.check(
        common.remember_digest(f"{name}-{seed}", digests.pop()),
        "store digest differs from an earlier run of this seed",
    )
    result.metrics = _end_to_end(
        untraced, lambda r: r["grid"] / (r["run_end"] - r["run_start"])
    )
    first = untraced[0]
    lookups = first["cache_hits"] + first["cache_misses"]
    result.shares = {
        "cache.hit_ratio": first["cache_hits"] / lookups if lookups else 0.0,
        "crawl.cells_ingested_share": first["pages"] / first["grid"],
    }
    result.notes.append(
        f"{first['domains']} domains x {first['weeks']} weeks = "
        f"{first['grid']} cells per unit, {len(untraced)} untraced units"
    )
    if trace:
        result.layers = _traced_layers(untraced, traced, summaries)
    return result


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
def _serve_inputs(seed: int) -> Tuple[Path, Path]:
    """The store + crawl metrics the server loads, built once per seed.

    Built (untimed) by the crawl-longitudinal calls and kept under the
    work directory, so later runs of the same seed reuse them.
    """
    base = common.WORK / "serve-store" / str(seed)
    store, metrics = base / "store.bin", base / "crawl-metrics.json"
    if not (store.exists() and metrics.exists()):
        common.fresh_dir(base)
        args = crawl_args(LONGITUDINAL, seed, store)
        args["metrics_out"] = str(metrics)
        run_child("crawl", args)
    return store, metrics


class Stream:
    """The seeded Zipf request stream with its expected responses.

    ``requests[i]`` is ``(target, if_none_match)`` exactly as
    ``LoadGenerator.run`` would send it; ``expected[i]`` is the response
    digest of the in-process replay of the same stream.
    """

    def __init__(self, store: Path, metrics: Path, mix_seed: int, size: int):
        from repro.serve import LoadGenerator, ServeApp, build_mix
        from repro.serve.loadgen import response_digest

        app = ServeApp.from_files(store, metrics)
        mix = build_mix(app.store, app.database, seed=mix_seed, include_metrics=False)
        replay = LoadGenerator(app, mix).run(size)
        self.expected = replay.digests
        self.digest = response_digest

        # Every response of this mix is a pure function of the dataset,
        # so a target's ETag is known once any earlier request of it was
        # answered 200 — the generator's ETag memory, precomputed.
        probe = ServeApp.from_files(store, metrics)
        etags = {}
        for target in mix.targets:
            response = probe.get(target)
            if response.status == 200:
                etags[target] = response.etag
        sampler = LoadGenerator(probe, mix)
        seen = set()
        self.requests: List[Tuple[str, Optional[str]]] = []
        for _ in range(size):
            target, conditional = sampler.sample()
            known = etags.get(target) if target in seen else None
            self.requests.append((target, known if conditional else None))
            seen.add(target)
        # The precomputed headers must reproduce the in-process replay.
        check = ServeApp.from_files(store, metrics)
        self.consistent = all(
            response_digest(t, r.status, r.etag, r.body) == want
            for (t, inm), want in zip(self.requests, self.expected)
            for r in (check.get(t, if_none_match=inm),)
        )


class Server:
    """One ``repro serve`` process, timed from spawn to first healthz 200."""

    BANNER = re.compile(rb"listening on http://([0-9.]+):(\d+)/")

    def __init__(self, store: Path, metrics: Path, trace_out: Optional[Path]):
        argv = ["serve", "--port", "0", "--store", str(store),
                "--crawl-metrics", str(metrics)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
        else:
            payload = {"argv": argv, "trace_out": str(trace_out)}
            command = [sys.executable, str(common.CHILD), "serve", json.dumps(payload)]
        self.spawn = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            cwd=str(common.ROOT),
            env=common.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            self.host, self.port = self._banner()
            self._await_health()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready = time.monotonic()

    def _banner(self) -> Tuple[str, int]:
        while True:
            line = self.proc.stderr.readline()
            if not line:
                raise common.BenchError("server exited before listening")
            found = self.BANNER.search(line)
            if found:
                return found.group(1).decode(), int(found.group(2))

    def _await_health(self) -> None:
        # The banner is printed before the SIGTERM handler is installed;
        # only an answered request proves the serve loop is running.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise common.BenchError("server never answered /healthz")

    def get_json(self, target: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", target)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> Tuple[int, float]:
        """SIGTERM, reap; returns (exit code, peak RSS in MiB)."""
        self.proc.send_signal(signal.SIGTERM)
        rss_kib = common.wait_rusage(self.proc, 30)
        self.proc.stderr.close()
        return self.proc.returncode, rss_kib / 1024


class Replay:
    """Closed loop: each connection sends its next request on the reply."""

    def __init__(self, server: Server, stream: Stream, seconds: float) -> None:
        self.server, self.stream = server, stream
        self.samples_ns: List[int] = []
        self.sequences: List[List[Tuple[str, int]]] = []
        self.sent = self.correct = self.failed = self.not_modified = self.body_bytes = 0
        self._next = 0
        self._lock = threading.Lock()
        self._deadline = time.monotonic() + seconds
        threads = [
            threading.Thread(target=self._connection)
            for _ in range(common.PARALLELISM)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.seconds = time.monotonic() - started

    def _connection(self) -> None:
        stream, size = self.stream, len(self.stream.requests)
        host, port = self.server.host, self.server.port
        conn = http.client.HTTPConnection(host, port, timeout=30)
        # One list per connection: each is served by its own server thread.
        sequences: List[List[Tuple[str, int]]] = [[]]
        samples: List[int] = []
        sent = correct = failed = not_modified = body_bytes = 0
        while True:
            with self._lock:
                if time.monotonic() >= self._deadline:
                    break
                index = self._next % size
                self._next += 1
            target, etag = stream.requests[index]
            headers = {"If-None-Match": etag} if etag else {}
            sent += 1
            started = time.perf_counter_ns()
            try:
                conn.request("GET", target, headers=headers)
                response = conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException):
                failed += 1
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                sequences.append([])
                continue
            rtt = time.perf_counter_ns() - started
            samples.append(rtt)
            sequences[-1].append((target, rtt))
            body_bytes += len(body)
            not_modified += response.status == 304
            digest = stream.digest(
                target, response.status, response.getheader("ETag"), body
            )
            if digest == stream.expected[index]:
                correct += 1
            else:
                failed += 1
        conn.close()
        with self._lock:
            self.sequences.extend(sequences)
            self.samples_ns.extend(samples)
            self.sent += sent
            self.correct += correct
            self.failed += failed
            self.not_modified += not_modified
            self.body_bytes += body_bytes


def _transport_samples(replay: Replay, summary: dict) -> Tuple[List[float], List[float]]:
    """Pair each client round trip with the server's ``handle`` span.

    A keep-alive connection is served by one server thread in order, so
    a client connection pairs with the server thread whose sequence of
    handled targets is the same.  Returns (handle µs, transport µs).
    """
    by_thread: Dict[str, List[Tuple[str, int]]] = {}
    for thread, target, elapsed in summary["details"]:
        by_thread.setdefault(thread, []).append((target, elapsed))
    handle_us: List[float] = []
    transport_us: List[float] = []
    unpaired = list(by_thread.values())
    for sequence in replay.sequences:
        targets = [target for target, _ in sequence]
        for server_side in unpaired:
            if [target for target, _ in server_side] == targets:
                unpaired.remove(server_side)
                for (_, rtt), (_, handled) in zip(sequence, server_side):
                    handle_us.append(handled / 1e3)
                    transport_us.append((rtt - handled) / 1e3)
                break
    return handle_us, transport_us


def run_serve(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    work = common.fresh_dir(common.WORK / "serve-zipf")
    store, metrics = _serve_inputs(seed)
    stream = Stream(store, metrics, seeds(seed)["mix"], SERVE_STREAM)
    result.check(stream.consistent, "precomputed stream differs from LoadGenerator")

    def stop(server: Server) -> float:
        code, rss = server.stop()
        result.attempted += 1
        if code != 0:
            result.failed += 1
            result.check(False, f"server exited {code} on SIGTERM")
        return rss

    setups = []
    for _ in range(SERVE_SETUPS - 1):
        server = Server(store, metrics, None)
        setups.append(server.ready - server.spawn)
        stop(server)
    phases = [(None, seconds)]
    if trace:
        # The traced replay gets the full length, so its percentiles
        # rest on as many samples as an untraced run's.
        phases = [(None, seconds / 2), (work / "server-trace.json", seconds)]
    replays = []
    for trace_out, length in phases:
        server = Server(store, metrics, trace_out)
        try:
            setups.append(server.ready - server.spawn)
            replay = Replay(server, stream, length)
            served = server.get_json("/metrics")["serve"]["counters"]
        finally:
            rss = stop(server)
        replays.append((replay, served, rss))
        result.attempted += replay.sent
        result.failed += replay.failed

    replay, served, rss = replays[0]
    samples = sorted(replay.samples_ns)
    result.metrics = {
        "setup_s": median(setups),
        "wall_s": median(samples) / 1e9,
        "ops_per_s": replay.correct / replay.seconds,
        "peak_rss_mib": rss,
    }
    hits = served.get("serve.cache.hits", 0)
    probes = hits + served.get("serve.cache.misses", 0)
    responses = len(samples)
    result.shares = {
        "serve.cache_hit_ratio": hits / probes if probes else 0.0,
        "serve.not_modified_share": replay.not_modified / responses,
    }
    result.notes.append(
        f"{responses} round trips over {common.PARALLELISM} keep-alive "
        f"connections in {replay.seconds:.1f}s; p50 "
        f"{percentile(samples, 50) / 1e6:.2f} ms, p99 "
        f"{percentile(samples, 99) / 1e6:.2f} ms"
    )
    if trace:
        traced, _, _ = replays[1]
        summary = json.loads((work / "server-trace.json").read_text())
        layers = _layer_medians([summary], [traced.seconds])
        handle_us, transport_us = _transport_samples(traced, summary)
        rtt_us = sorted(s / 1e3 for s in traced.samples_ns)
        p50, p99 = (lambda v: percentile(v, 50)), (lambda v: percentile(v, 99))
        handle_us.sort()
        result.notes.append(
            f"traced replay: {len(rtt_us)} round trips, {len(handle_us)} paired "
            f"with a server handle span; handle p50 {p50(handle_us):.0f} us, "
            f"p99 {p99(handle_us):.0f} us; transport p50 "
            f"{p50(sorted(transport_us)):.0f} us, p99 {p99(sorted(transport_us)):.0f} us; "
            f"round trip p50 {p50(rtt_us) / 1e3:.2f} ms, p99 {p99(rtt_us) / 1e3:.2f} ms"
        )
        layers.update(
            {
                "serve.transport_share": sum(transport_us)
                / (sum(transport_us) + sum(handle_us)),
                "serve.handle_tail_ratio": p99(handle_us) / p50(handle_us),
                "serve.rtt_tail_ratio": p99(rtt_us) / p50(rtt_us),
                "serve.samples": len(rtt_us),
                "serve.bytes_per_req": traced.body_bytes / len(rtt_us),
                "trace.overhead": (replay.correct / replay.seconds)
                / (traced.correct / traced.seconds)
                - 1.0,
                # Client time outside any round trip: the loop itself.
                "trace.unattributed_s": traced.seconds * common.PARALLELISM
                - sum(traced.samples_ns) / 1e9,
            }
        )
        result.layers = layers
    return result


# ----------------------------------------------------------------------
# fleet-resume
# ----------------------------------------------------------------------
def fleet_args(seed: int, root: Path) -> dict:
    args = dict(FLEET)
    args["seed"] = seeds(seed)["scenario"]
    args["root"] = str(root)
    return args


def queue_state_digest(root: Path) -> str:
    """Digest of a queue directory's durable state.

    Covers every file's relative path, the job states and attempts (as
    ``repro orchestrate status`` reports them) and the bytes of every
    other file.  Job records are covered by their states only: they also
    name the lease owner's process id.  Journal entries are covered by
    name only: they also carry each shard's wall-clock duration.
    Profile-store entries are covered by name only: the name is the
    sha256 content address, the body is checksummed by the program, and
    its pickled sets follow the process's hash seed.
    """
    from repro.orchestrator.fleet import status_lines

    digest = hashlib.sha256()
    for line in status_lines(root):
        digest.update(line.encode("utf-8") + b"\n")
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        relative = path.relative_to(root).as_posix()
        digest.update(relative.encode("utf-8") + b"\0")
        if path.suffix not in (".rec", ".wal", ".profile"):
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _job_states(root: Path) -> Dict[str, str]:
    """Job id -> state, from the job records' header lines."""
    states = {}
    for path in (root / "jobs").glob("*.rec"):
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        states[header["job_id"]] = header["state"]
    return states


def _tree_bytes(root: Path) -> Dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def kill_fleet(seed: int, root: Path) -> None:
    """Run the fleet and kill it at the fixed point (the set-up)."""
    args = fleet_args(seed, root)
    args["kill_job"] = FLEET_KILL_JOB
    run_child("fleet", args, expect_code=FLEET_KILL_CODE)


def run_fleet(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    base = common.fresh_dir(common.WORK / "fleet-resume")
    reference, live, killed = base / "reference", base / "queue", base / "killed"
    run_child("fleet", fleet_args(seed, reference))
    expected_artifacts = _tree_bytes(reference / "artifacts")
    expected_metrics = (reference / "fleet-metrics.json").read_bytes()

    kill_fleet(seed, live)
    # Resumes always run at the path the fleet was killed at: the
    # queue's checkpoints pin their profile-store directories.
    os.rename(live, killed)
    result.check(
        common.remember_digest(f"fleet-resume-{seed}-queue", queue_state_digest(killed)),
        "killed queue state differs from an earlier set-up of this seed",
    )
    before = _job_states(killed)
    jobs = len(_job_states(reference))
    resumed = sum(1 for s in before.values() if s not in ("pending", "done"))
    fresh = jobs - resumed - sum(1 for s in before.values() if s == "done")
    journal = killed / "checkpoints" / FLEET_KILL_JOB / "journal"
    result.shares = {
        "fleet.jobs_resumed": resumed,
        "fleet.jobs_fresh": fresh,
        "ledger.shards_journaled": len(list(journal.glob("*.wal"))),
    }

    def unit(index: int, trace_out: Optional[Path]) -> dict:
        shutil.rmtree(live, ignore_errors=True)
        shutil.copytree(killed, live)
        args = fleet_args(seed, live)
        if trace_out is not None:
            args["trace_out"] = str(trace_out)
        report = run_child("resume", args)
        states = report["states"]
        result.attempted += len(states)
        result.failed += sum(1 for s in states.values() if s != "done")
        result.check(
            (live / "fleet-metrics.json").read_bytes() == expected_metrics,
            f"unit {index}: fleet-metrics.json differs from the uninterrupted fleet",
        )
        result.check(
            _tree_bytes(live / "artifacts") == expected_artifacts,
            f"unit {index}: artifacts differ from the uninterrupted fleet",
        )
        return report

    untraced, traced, summaries = _run_units(seconds, trace, base, unit)
    shutil.rmtree(live, ignore_errors=True)
    ran = resumed + fresh
    result.metrics = _end_to_end(untraced, lambda r: ran / (r["done"] - r["ready"]))
    result.notes.append(
        f"{jobs} jobs, killed before {FLEET_KILL_JOB} completed: {resumed} "
        f"resumed + {fresh} fresh per resume, {len(untraced)} untraced resumes"
    )
    if trace:
        result.layers = _traced_layers(untraced, traced, summaries)
    return result
