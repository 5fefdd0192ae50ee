#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on tiny shapes (n=50).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a corrupted CSV, a wrong pin or a bad output counts as a failed experiment,
that a perturbed p-value in the traced replay trips the replay-equality
check, that ``compare.py`` judges a regression as worse whichever way its
metric improves, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import bench
import compare
import run

TINY = {name: dict(spec, n=50) for name, spec in run.WORKLOADS.items()}


def tiny_job(name: str, mode: str, work_dir: str, **changes) -> dict:
    job = {
        "spec": TINY[name],
        "mode": mode,
        "first_seed": 0,
        "pins": {},
        "work_dir": work_dir,
        "seconds": 60.0,
        "max_experiments": 2,
        "spans_path": os.path.join(work_dir, "spans.npz"),
    }
    job.update(changes)
    return job


def test_every_metric_is_emitted_with_its_unit(work_dir: str) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    for name, spec in TINY.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run_workload(name, spec, 0, 0.1, trace, {})
            line = run.result_line(record, benchmark[key])
            assert line["correct"] and line["failed"] == 0, (name, record["failures"])
            assert line["attempted"] >= 1
            assert set(line["metrics"]) == {m["name"] for m in benchmark[key]}
            for metric in benchmark[key]:
                got = line["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (name, metric["name"])
                assert math.isfinite(got["value"]), (name, metric["name"])
            json.dumps(line, allow_nan=False)


def test_wrong_pins_fail_and_right_pins_pass(work_dir: str) -> None:
    for name in ("mc-small", "mixture"):
        config = bench.experiment_config(TINY[name], 0)
        csv_path = os.path.join(work_dir, "pin.csv")
        table = bench.run_and_write(config, csv_path)
        right = bench.pin_values(table, csv_path, TINY[name]["strategy"])
        if "csv_sha256" in right:
            wrong = {"csv_sha256": "0" * 64}
        else:
            wrong = {"legs": dict(right["legs"], red=[right["legs"]["red"][0] + 1e-8, 0.0])}
        for pin, failing in ((right, False), (wrong, True)):
            record = run.run_workload(name, TINY[name], 0, 0.1, False, {"0": pin})
            line = run.result_line(record, [])
            assert line["failed"] == int(failing) and line["correct"] is not failing, (
                name,
                record["failures"],
            )


def test_corrupted_csv_is_a_failed_experiment(work_dir: str) -> None:
    original = bench.write_trajectory_csv

    def write_then_truncate(table, path):
        original(table, path)
        with open(path, encoding="ascii") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="ascii") as handle:
            handle.writelines(lines[:-1])

    bench.write_trajectory_csv = write_then_truncate
    try:
        job = tiny_job("mc-small", "timed", work_dir)
        records = bench.run_job(job, bench.experiment_config(TINY["mc-small"], 0))
    finally:
        bench.write_trajectory_csv = original
    assert len(records) == 2
    assert all("the CSV does not read back bit-exactly" in r["failures"] for r in records)


def test_bad_outputs_fail_the_check(work_dir: str) -> None:
    config = bench.experiment_config(TINY["mc-small"], 0)
    csv_path = os.path.join(work_dir, "bad.csv")
    table = bench.run_and_write(config, csv_path)
    assert bench.check_output(table, csv_path, {}) == []

    def broken(field, index, value):
        array = getattr(table, field).copy()
        array[index] = value
        return dataclasses.replace(table, **{field: array})

    cases = {
        "p-value outside [0, 1]": broken("p_label", 3, 1.5),
        "NaN in the output": broken("p_concept", 3, float("nan")),
        "a trajectory does not start at 0": broken("log10_black", 0, 0.5),
    }
    for expected, bad in cases.items():
        assert expected in bench.check_output(bad, csv_path, {}), expected
    gap = bench.check_output(broken("log10_blue", 5, table.log10_blue[5] + 1e-6), csv_path, {})
    assert any(f.startswith("|blue - (red + green)|") for f in gap), gap


def test_perturbed_replay_trips_the_equality_check(work_dir: str) -> None:
    original = bench.p_conformal
    calls = []

    def perturbed(scores, tau):
        calls.append(1)
        p = original(scores, tau)
        return float(np.nextafter(p, 0.0)) if len(calls) == 10 else p

    bench.p_conformal = perturbed
    try:
        job = tiny_job("mc-small", "traced", work_dir, max_experiments=1)
        (record,) = bench.run_job(job, bench.experiment_config(TINY["mc-small"], 0))
    finally:
        bench.p_conformal = original
    assert record["failures"] == ["the traced replay differs from run_experiment"], record
    job = tiny_job("mc-small", "traced", work_dir, max_experiments=1)
    (record,) = bench.run_job(job, bench.experiment_config(TINY["mc-small"], 0))
    assert record["failures"] == [], record


def test_compare_verdicts_follow_the_metric_direction(work_dir: str) -> None:
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    slower = [x * 1.4 for x in base]
    faster = [x * 0.7 for x in base]
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    # A time (lower is better) and a rate (higher is better), each regressed
    # by 40 %, improved by 30 %, unchanged, and too noisy to tell.
    for better, worse, improved in (("lower", slower, faster), ("higher", faster, slower)):
        assert compare.verdict(base, worse, better, 0.25) == "worse", better
        assert compare.verdict(base, improved, better, 0.25) == "within bound", better
        assert compare.verdict(base, base, better, 0.25) == "within bound", better
        assert compare.verdict(base, noisy, better, 0.25) == "unresolved", better
    # Overlapping sides: B's best run beats A's worst, but B's median is 30 %
    # lower on a higher-is-better metric.
    overlap = [70.0, 70.5, 69.5, 70.2, 100.5]
    assert compare.verdict(base, overlap, "higher", 0.25) == "worse"


def test_refuses_to_run_without_sources(work_dir: str) -> None:
    bare = os.path.join(work_dir, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == "", proc


TESTS = (
    test_every_metric_is_emitted_with_its_unit,
    test_wrong_pins_fail_and_right_pins_pass,
    test_corrupted_csv_is_a_failed_experiment,
    test_bad_outputs_fail_the_check,
    test_perturbed_replay_trips_the_equality_check,
    test_compare_verdicts_follow_the_metric_direction,
    test_refuses_to_run_without_sources,
)


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory(dir=run.WORK) as work_dir:
        run.WORK = run.Path(work_dir)
        run.SETUP_PROBES = 1
        for test in TESTS:
            name = test.__name__.removeprefix("test_").replace("_", " ")
            try:
                test(work_dir)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
