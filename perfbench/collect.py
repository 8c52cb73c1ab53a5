"""Run the benchmark over several seeds and keep the results as a set.

Usage::

    python3 perfbench/collect.py --out DIR [--workloads a,b] [--seeds 1-10]
    python3 perfbench/collect.py --out DIR --parent PARENT_CHECKOUT [...]

Every run is an untraced run (``--trace 0``) of ``BENCHMARK.json``'s
``run_seconds``.  Without ``--parent`` it runs this checkout and writes
each run's JSON result to ``DIR/<workload>/seed-<n>.json``.  With
``--parent`` it runs the parent checkout's benchmark and this checkout's
in alternation, seed by seed, the parent first on every other seed, so
that a drift in the machine's speed falls on both sides alike; it writes
``DIR/parent/...`` and ``DIR/change/...`` for ``perfbench/compare.py``.

Prints, per side, workload and end-to-end metric, the median and the
interquartile range as a share of the median beside the metric's bound.
Exits 1 when a run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common
import compare


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(root: Path, workload: str, seed: int, seconds: int, out: Path) -> bool:
    """One untraced run of ``root``'s benchmark; False if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(root),
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{root} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        return False
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(lines[-1] + "\n")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{root} {workload} seed {seed}: incorrect\n{proc.stdout}")
        return False
    return True


def print_spreads(directory: Path) -> None:
    bounds = compare.load_bounds()
    print(f"{directory}:")
    print(f"{'workload':<20} {'metric':<13} {'median':>12} {'IQR/median':>10} {'bound':>6}")
    for workload, runs in sorted(compare.load_results(directory).items()):
        for metric, spec in bounds.items():
            q1, med, q3 = compare.quartiles([values[metric] for values in runs.values()])
            print(
                f"{workload:<20} {metric:<13} {med:>12.6g} "
                f"{(q3 - q1) / med:>10.2%} {spec['bound']:>6.0%}"
            )


def main(argv=None) -> int:
    spec = common.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--parent", type=Path, help="root of the parent's checkout, run alternately"
    )
    args = parser.parse_args(argv)

    sides = [(args.out, common.ROOT)]
    if args.parent:
        sides = [(args.out / "parent", args.parent.resolve()),
                 (args.out / "change", common.ROOT)]
    status = 0
    for workload in args.workloads.split(","):
        for index, seed in enumerate(parse_seeds(args.seeds)):
            for out, root in sides if index % 2 == 0 else sides[::-1]:
                path = out / workload / f"seed-{seed}.json"
                if not run_once(root, workload, seed, spec["run_seconds"], path):
                    status = 1
    for out, _ in sides:
        print_spreads(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
