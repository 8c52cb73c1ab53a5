"""Run one benchmark workload and print its metrics.

Usage (from the root of a repository checkout)::

    python3 perfbench/run.py --workload crawl-longitudinal --seed 1 \\
        --seconds 15 --trace 0

Prints a human-readable table (every metric by name with its unit, the
output checks, the property shares) and, as the last stdout line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics, measured without
tracing; with ``--trace 1`` they are the per-layer metrics of a traced
run.  Exits 2 without a result when the program is not next to the
benchmark.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import workloads

WORKLOADS = {
    "crawl-longitudinal": lambda seed, seconds, trace: workloads.run_crawl(
        "crawl-longitudinal", workloads.LONGITUDINAL, seed, seconds, trace
    ),
    "crawl-snapshot-full": lambda seed, seconds, trace: workloads.run_crawl(
        "crawl-snapshot-full", workloads.SNAPSHOT, seed, seconds, trace
    ),
    "serve-zipf": workloads.run_serve,
    "fleet-resume": workloads.run_fleet,
}


def _metrics(declared, value) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric of ``BENCHMARK.json``."""
    return {
        entry["name"]: {"value": float(value(entry["name"])), "unit": entry["unit"]}
        for entry in declared
    }


def print_layer_table(result: common.Result, workload: str) -> None:
    """Self seconds, share of the traced timed phase, and calls per span."""
    layers = result.layers
    spans = sorted(
        {key.rsplit(".", 1)[0] for key in layers if key.endswith(".self_s")},
        key=lambda name: -layers[f"{name}.self_s"],
    )
    print(
        f"\n[{workload}] traced layers: timed phase {layers['trace.unit_s']:.3f} s, "
        f"tracing overhead {layers['trace.overhead']:.1%}"
    )
    print(f"  {'span':<18} {'self s':>9} {'share':>7} {'total s':>9} {'calls':>10}")
    for name in spans:
        print(
            f"  {name:<18} {layers[f'{name}.self_s']:9.3f} "
            f"{layers[f'{name}.share']:7.1%} {layers[f'{name}.total_s']:9.3f} "
            f"{int(layers[f'{name}.calls']):>10}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"[{args.workload}] seed {args.seed}, trace {args.trace}")
    for note in result.notes:
        print(f"  {note}")
    spec = common.load_spec()
    if args.trace:
        print_layer_table(result, args.workload)
        # A layer that does not run on this workload reads 0.
        values = {**result.layers, **result.shares}
        metrics = _metrics(spec["per_layer"], lambda name: values.get(name, 0.0))
    else:
        metrics = _metrics(spec["end_to_end"], result.metrics.__getitem__)
    print("\n  metric                         value  unit")
    for name, entry in metrics.items():
        print(f"  {name:<26} {entry['value']:>12.6g}  {entry['unit']}")
    error_rate = result.failed / result.attempted if result.attempted else 1.0
    print(
        f"  error_rate {error_rate:.6g} ({result.failed} failed of "
        f"{result.attempted} attempted)"
    )
    for name, value in sorted(result.shares.items()):
        print(f"  share {name} = {value:.6g}")
    for failure in result.checks:
        print(f"  CHECK FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
