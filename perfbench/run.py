#!/usr/bin/env python3
"""Benchmark of shiftmart: one command per workload, every output checked.

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 20 --trace 0

Runs one workload for about ``--seconds`` seconds and prints, as the last line
of standard output, one JSON object: whether every output was correct, how
many experiments were attempted and how many failed, and the metrics named
in BENCHMARK.json with their units (the end-to-end metrics with ``--trace
0``, the per-layer metrics with ``--trace 1``). The full record, with the
environment and every experiment, goes to ``<out>/<workload>-seed<seed>-
trace<trace>.json``; ``perfbench/compare.py`` compares two sets of them.

Every experiment runs in a child process (``perfbench/bench.py``), one process
at a time. ``--seed`` picks the block of config seeds the workload runs:
``seed * 10000``, ``seed * 10000 + 1``, and so on. The benchmark sets no
allocator or thread-count environment variable and does not warm anything up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
WORK = ROOT / ".bench_out"

# The acceptance settings: the strongest concept measure on the concept leg,
# the ratio measure on the label leg, so both score_nn calls run each step.
_COMMON = {
    "concept_measure": "same-class",
    "label_measure": "ratio",
    "strategy": "simple-jumper",
    "jump_rate": 0.001,
}
WORKLOADS = {
    # The USPS shape (d=256, K=10) at a length that fits several cold
    # processes into one run; each experiment runs in a fresh interpreter.
    "usps-shape": dict(_COMMON, n=2000, dim=256, classes=10, cold=True),
    # The Ville-fixture shape, a block of seeds in one warm process.
    "mc-small": dict(_COMMON, n=1000, dim=2, classes=2, cold=False),
    "mixture": dict(_COMMON, n=1000, dim=2, classes=2, cold=False, strategy="mixture-power"),
}
SEED_STRIDE = 10_000
# Fresh processes per run that only set up, half before the experiments and
# half after, so that the median of set-up times spans the whole run.
SETUP_PROBES = 10
MIN_COLD_EXPERIMENTS = 3
# How long a child may run beyond the job's ``seconds`` before it is killed.
CHILD_GRACE_S = 150


class ChildFailed(Exception):
    """A benchmark process exited with an error or printed no result."""


def run_child(job: dict) -> tuple[float, dict]:
    """Run one benchmark process; returns (its set-up time, its report)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH)],
        cwd=ROOT,
        input=json.dumps(job),
        stdout=subprocess.PIPE,
        text=True,
        timeout=job["seconds"] + CHILD_GRACE_S,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{job['mode']} process exited with {proc.returncode}")
    report = json.loads(lines[-1])
    return report["setup_done"] - start, report


def percentile(values: list[float], pct: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def _median(values):
    return float(statistics.median(values))


def per_layer_metrics(traced: list[dict], untraced_walls: list[float]) -> dict:
    """Per-experiment values over the traced experiments (medians unless stated)."""

    def med(key):
        return _median([r[key] for r in traced])

    # Process counters tick coarsely, so a median of short experiments can
    # read 0; their mean per experiment does not.
    def mean(key):
        return statistics.fmean([r[key] for r in traced])

    insert_s = med("conformity.insert_s")
    steps = [us for r in traced for us in r["step_us"]]
    return {
        "conformity.insert_s": insert_s,
        "conformity.insert_calls": med("conformity.insert_calls"),
        "conformity.insert_flops": med("insert_flops"),
        "conformity.insert_gflops": med("insert_flops") / insert_s / 1e9,
        "proc.minor_faults": mean("minor_faults"),
        "proc.sys_s": mean("sys_s"),
        "proc.user_s": mean("user_s"),
        "conformity.score_s": med("conformity.score_s"),
        "conformity.score_calls": med("conformity.score_calls"),
        "conformity.label_average_s": med("conformity.label_average_s"),
        "transducer.p_value_s": med("transducer.p_value_s"),
        "transducer.p_value_calls": med("transducer.p_value_calls"),
        "core.tau_draw_s": med("core.tau_draw_s"),
        "core.tau_draws": med("core.tau_draw_calls"),
        "cli.glue_s": med("glue_s"),
        "betting.bet_s": med("betting.bet_s"),
        "betting.bet_calls": med("betting.bet_calls"),
        "betting.product_s": med("betting.product_s"),
        "synth.generate_s": med("synth.generate_s"),
        "synth.observations": med("obs"),
        "cli.write_csv_s": med("cli.write_csv_s"),
        "cli.csv_bytes": med("csv_bytes"),
        "step.p50_us": percentile(steps, 50),
        "step.p99_us": percentile(steps, 99),
        "step.loop_s": med("loop_s"),
        "trace.overhead_frac": med("wall_s") / _median(untraced_walls) - 1.0,
    }


def end_to_end_metrics(timed: list[dict], setups: list[float], rss_kb: list[int]) -> dict:
    walls = [r["wall_s"] for r in timed]
    return {
        "obs_per_s": sum(r["obs"] for r in timed) / sum(walls),
        "run_p50_s": _median(walls),
        "peak_rss_mb": _median(rss_kb) / 1024.0,
        "setup_s": _median(setups),
    }


def run_workload(
    name: str, spec: dict, seed: int, seconds: float, trace: bool, pins: dict
) -> dict:
    """Run one workload and return the full record of the run."""
    work_dir = WORK / "work" / name
    first_seed = seed * SEED_STRIDE
    job = {
        "spec": spec,
        "first_seed": first_seed,
        "pins": pins,
        "work_dir": str(work_dir),
        "seconds": seconds,
        "max_experiments": 1 if spec["cold"] else 10**9,
    }
    setups = []

    def probes(count: int) -> dict | None:
        report = {}
        for _ in range(count):
            setup, report = run_child(dict(job, mode="probe"))
            setups.append(setup)
        return report.get("env")

    env = probes(SETUP_PROBES - SETUP_PROBES // 2)
    timed, traced, rss_kb = [], [], []
    children = {"timed": timed, "traced": traced}

    def child(mode: str, index: int) -> None:
        spans = WORK / "spans" / f"{name}-seed{seed}-{index}.npz"
        setup, report = run_child(
            dict(job, mode=mode, first_seed=first_seed + index, spans_path=str(spans))
        )
        children[mode].extend(report["records"])
        if mode == "timed":
            rss_kb.append(report["maxrss_kb"])
            # A cold timed process sets up exactly as a probe does.
            if spec["cold"]:
                setups.append(setup)

    os.makedirs(WORK / "spans", exist_ok=True)
    if not spec["cold"]:
        child("traced" if trace else "timed", 0)
    else:
        # One experiment per fresh process; with tracing, traced and untraced
        # processes alternate over the same config seeds.
        deadline = time.monotonic() + seconds
        while True:
            if trace:
                mode = "traced" if len(traced) <= len(timed) else "timed"
                enough = bool(traced and timed)
            else:
                mode = "timed"
                enough = len(timed) >= MIN_COLD_EXPERIMENTS
            if enough and time.monotonic() >= deadline:
                break
            child(mode, len(children[mode]))
    probes(SETUP_PROBES // 2)

    records = traced + timed
    failures = [{"seed": r["seed"], "failures": r["failures"]} for r in records if r["failures"]]
    # An experiment that raised has no timings; one that failed a check has.
    finished = [r for r in (traced if trace else timed) if "wall_s" in r]
    if not finished:
        raise ChildFailed("every experiment raised")
    if trace:
        untraced = [r["wall_s"] for r in timed if "wall_s" in r] or [
            r["reference_wall_s"] for r in finished
        ]
        metrics = per_layer_metrics(finished, untraced)
    else:
        metrics = end_to_end_metrics(finished, setups, rss_kb)
    return {
        "workload": name,
        "spec": spec,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "setup_samples_s": setups,
        "peak_rss_kb": rss_kb,
        "failures": failures,
        "experiments": [{k: v for k, v in r.items() if k != "step_us"} for r in records],
        "attempted": len(records),
        "metrics": metrics,
    }


def result_line(record: dict, catalogue: list[dict]) -> dict:
    """The last line of output: the metrics BENCHMARK.json lists, with units."""
    metrics = record["metrics"]
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in catalogue
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=".bench_out/results", help="directory for run records"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "shiftmart" / "__init__.py").is_file():
        print(f"error: no shiftmart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    with open(HERE / "pins.json", encoding="utf-8") as handle:
        pins = json.load(handle).get(args.workload, {})
    catalogue = benchmark["per_layer" if args.trace else "end_to_end"]
    try:
        record = run_workload(
            args.workload,
            WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            pins,
        )
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failed in record["failures"]:
        reasons = "; ".join(failed["failures"])
        print(f"config seed {failed['seed']} failed: {reasons}", file=sys.stderr)
    line = result_line(record, catalogue)
    record["result"] = line
    out_dir = ROOT / args.out
    os.makedirs(out_dir, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
