"""Compare two result sets: parent against change.

Usage::

    python3 perfbench/collect.py --out DIR --parent PARENT_CHECKOUT
    python3 perfbench/compare.py DIR/parent DIR/change

A result set is a directory written by ``perfbench/collect.py``:
``<dir>/<workload>/seed-<n>.json``, each file one run's JSON result.
A pair is the two sides' runs of one seed; collect the sides with
``collect.py --parent``, which runs them alternately, because two sets
collected one after the other differ by the machine's drift as well.
For every workload and end-to-end metric it prints both sides' medians
and quartiles, the share of pairs the change wins, and the verdict:

* ``gain`` — the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the parent's interquartile range;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``same`` — otherwise.

Exits 1 when any metric regresses, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import common

WIN_SHARE = 0.9


def load_bounds() -> Dict[str, dict]:
    return {entry["name"]: entry for entry in common.load_spec()["end_to_end"]}


def load_results(directory: Path) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> metric -> value."""
    results: Dict[str, Dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*/seed-*.json")):
        run = json.loads(path.read_text())
        seed = int(path.stem.split("-", 1)[1])
        values = {name: entry["value"] for name, entry in run["metrics"].items()}
        results.setdefault(path.parent.name, {})[seed] = values
    return results


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[tuple],
    better: str,
    bound: float,
) -> dict:
    """The decision rule for one workload and metric.

    ``pairs`` holds ``(parent value, change value)`` runs of equal seed.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    gap = sign * (cm - pm)
    if -gap > bound * abs(pm):
        label = "REGRESSION"
    elif share >= WIN_SHARE and gap > (p3 - p1):
        label = "gain"
    elif (p3 - p1) > bound * abs(pm) and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        label = "unresolved"
    else:
        label = "same"
    return {
        "parent": (p1, pm, p3),
        "change": quartiles(change),
        "win_share": share,
        "pairs": len(pairs),
        "verdict": label,
    }


def compare(parent_dir: Path, change_dir: Path) -> List[dict]:
    bounds = load_bounds()
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for metric, spec in bounds.items():
            p = [run[metric] for run in parent[workload].values()]
            c = [run[metric] for run in change[workload].values()]
            pairs = [
                (parent[workload][s][metric], change[workload][s][metric])
                for s in seeds
            ]
            row = verdict(p, c, pairs, spec["better"], spec["bound"])
            row.update(workload=workload, metric=metric, bound=spec["bound"])
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    print(
        f"{'workload':<20} {'metric':<13} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'wins':>9} verdict"
    )
    for row in rows:
        side = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(
            f"{row['workload']:<20} {row['metric']:<13} {side(row['parent']):>32} "
            f"{side(row['change']):>32} {row['win_share']:>5.0%}/{row['pairs']:<3} "
            f"{row['verdict']} (bound {row['bound']:.0%})"
        )
    return 1 if any(row["verdict"] == "REGRESSION" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
