#!/usr/bin/env python3
"""Paired benchmark runs of two trees, and whether a gain may be claimed.

Usage, from anywhere:

    python3 scripts/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W
                                [--pairs N] [--seed S]

Each pair runs `perfbench/run.py --workload W --seed S` once in each tree,
at the benchmark's own run length, one run after the other. The parent
runs first in even pairs (counting from 0) and the change first in odd
ones. For each end-to-end metric of CHANGE_TREE's BENCHMARK.json it prints
the parent's and the change's medians, the parent's quartiles, the pairs
the change won (a tie counts for neither side), whether the change is
within the metric's bound, and whether a gain may be claimed. A gain needs
every run of the change to read correct, no larger share of failed
operations than the parent's, and the gain rule: the change wins at least
nine tenths of the pairs and its median beats the parent's by more than
the distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list) -> tuple:
    """The first and third quartiles of values (inclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pairs_won(parent: list, change: list, lower_is_better: bool) -> int:
    """How many pairs the change's value beats the parent's; ties win nothing."""
    if lower_is_better:
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def gain_holds(parent: list, change: list, lower_is_better: bool) -> bool:
    """At least 9/10 of the pairs won, and a median gap wider than the parent's IQR."""
    q1, q3 = quartiles(parent)
    gap = statistics.median(parent) - statistics.median(change)
    if not lower_is_better:
        gap = -gap
    return 10 * pairs_won(parent, change, lower_is_better) >= 9 * len(parent) and gap > q3 - q1


def within_bound(parent: list, change: list, lower_is_better: bool, bound: float) -> bool:
    """The change's median is worse than the parent's by at most bound, a fraction."""
    p, c = statistics.median(parent), statistics.median(change)
    return c <= p * (1 + bound) if lower_is_better else c >= p * (1 - bound)


def failed_share(runs: list) -> float:
    """The share of all the runs' operations that failed."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def runs_sound(parent_runs: list, change_runs: list) -> bool:
    """Every change run read correct, and its failed share is no larger than the parent's."""
    return (all(r["correct"] for r in change_runs)
            and failed_share(change_runs) <= failed_share(parent_runs))


def report_lines(metrics: list, parent_runs: list, change_runs: list) -> list:
    """One line per end-to-end metric: medians, parent quartiles, wins, bound, gain."""
    sound = runs_sound(parent_runs, change_runs)
    lines = [f"{'metric':16s} {'parent':>10s} {'change':>10s} {'parent q1-q3':>21s} "
             f"{'won':>6s} {'in bound':>8s} {'gain':>5s}"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        q1, q3 = quartiles(parent)
        gain = sound and gain_holds(parent, change, lower)
        lines.append(
            f"{name:16s} {statistics.median(parent):10.4g} {statistics.median(change):10.4g} "
            f"{q1:10.4g}-{q3:<10.4g} {pairs_won(parent, change, lower):>2d}/{len(parent):<3d} "
            f"{'yes' if within_bound(parent, change, lower, metric['bound']) else 'NO':>8s} "
            f"{'yes' if gain else 'no':>5s}")
    return lines


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run in tree, as parsed JSON."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())

    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed)
            results[side].append(result)
            print(f"pair {pair} {side}: correct {result['correct']}, "
                  f"failed {result['failed']} of {result['attempted']}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs; failed share "
          f"parent {failed_share(results['parent']):.3g}, change {failed_share(results['change']):.3g}")
    print("\n".join(report_lines(benchmark["end_to_end"], results["parent"], results["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
