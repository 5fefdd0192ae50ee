#!/usr/bin/env python3
"""Compare two sets of benchmark run records, workload by workload.

    python3 perfbench/compare.py A B

A and B are directories (or single files) of records written by ``run.py``
(``--out`` chooses where). For every workload and metric found on both sides
the table gives each side's median and quartiles over its runs, the change
of B's median against A's, and a verdict for the end-to-end metrics, which
carry a bound in BENCHMARK.json:

within bound
    B's median is not worse than A's by more than the bound, and both sides'
    spread (quartile distance over median) is within the bound.
worse
    B's median is worse than A's by more than the bound, spreads within it.
unresolved
    A side's spread is wider than the bound, so the runs cannot tell; unless
    every run of B reads better than every run of A, which is within bound.

Per-layer metrics have no bound and are listed without a verdict. For an
A/A check, run the same code twice into two directories and compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT


def load_runs(location: str) -> dict:
    """{(workload, trace): [metrics of each run]} from a directory or file."""
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for file in files:
        with open(file, encoding="utf-8") as handle:
            record = json.load(handle)
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs.setdefault((record["workload"], record["trace"]), []).append(metrics)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Signed so that lower reads better: every run of B beats every run of A.
    if max(sign * x for x in b) < min(sign * x for x in a):
        return "within bound"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    worsening = sign * (summary(b)[1] - summary(a)[1]) / abs(summary(a)[1])
    return "worse" if worsening > bound else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="records of side A (directory or file)")
    parser.add_argument("b", help="records of side B (directory or file)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    catalogue = {0: benchmark["end_to_end"], 1: benchmark["per_layer"]}
    side_a, side_b = load_runs(args.a), load_runs(args.b)
    common = sorted(set(side_a) & set(side_b))
    if not common:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    print(
        f"{'workload':<11} {'metric':<27} {'unit':<16} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'B/A-1':>8}  verdict"
    )
    for workload, trace in common:
        a_runs, b_runs = side_a[workload, trace], side_b[workload, trace]
        for metric in catalogue[trace]:
            name = metric["name"]
            a = [each[name] for each in a_runs]
            b = [each[name] for each in b_runs]
            cells = []
            for values in (a, b):
                q1, median, q3 = summary(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            change = summary(b)[1] / summary(a)[1] - 1.0 if summary(a)[1] else float("nan")
            judged = (
                verdict(a, b, metric["better"], metric["bound"])
                if "bound" in metric
                else "no bound"
            )
            print(
                f"{workload:<11} {name:<27} {metric['unit']:<16} {cells[0]:>32} "
                f"{cells[1]:>32} {change:>+8.2%}  {judged}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
