"""One benchmark process: set up, run experiments, check every output.

``run.py`` starts this file once per process it needs, one at a time, and
writes the job to its standard input as JSON::

    python3 perfbench/bench.py < job.json

The job gives the workload spec, the mode, the first config seed, how many
experiments to run at most, how many seconds to keep going, and where to put
CSV files and spans. Modes:

probe
    Set up and stop; reports when set-up ended and the environment.
timed
    ``run_experiment(config)`` then ``write_trajectory_csv``, timed, for
    consecutive config seeds. Tracing is off.
traced
    Replays the step loop of ``run_experiment`` from public calls with a span
    around each call into a layer, then runs ``run_experiment`` itself and
    requires the two tables to be equal. Spans are written out at the end.

Set-up ends once ``shiftmart`` is imported and the workload's base config is
built; the process reports that moment as ``time.monotonic()``, which the
caller compares with its own clock read just before starting the process.
The process prints one JSON line with that moment, its peak resident memory
and one record per experiment.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from shiftmart import (  # noqa: E402
    ExperimentConfig,
    MartingaleTrajectory,
    NnCache,
    RandomSource,
    ScenarioConfig,
    TrajectoryTable,
    bet_step,
    generate,
    initial_state,
    label_average,
    p_conformal,
    p_label_conditional,
    product_martingale,
    read_trajectory_csv,
    run_experiment,
    score_nn,
    write_trajectory_csv,
)
from shiftmart.cli import DataError  # noqa: E402

# Leaf spans inside one step of the loop, one per call into a layer.
STEP_LAYERS = (
    "core.tau_draw",
    "conformity.insert",
    "conformity.score",
    "conformity.label_average",
    "transducer.p_value",
    "betting.bet",
)
EXPERIMENT_LAYERS = ("synth.generate", "betting.product", "cli.write_csv")
PIN_TOL = 1e-9
DECOMPOSITION_TOL = 1e-9
INHERITED_ENV = ("PYTHONMALLOC", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def experiment_config(spec: dict, seed: int) -> ExperimentConfig:
    """The experiment a workload spec describes, for one config seed."""
    return ExperimentConfig(
        data=ScenarioConfig(
            "iid", n_steps=spec["n"], n_classes=spec["classes"], dim=spec["dim"]
        ),
        concept_measure=spec["concept_measure"],
        label_measure=spec["label_measure"],
        strategy=spec["strategy"],
        jump_rate=spec["jump_rate"],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def leg_arrays(table: TrajectoryTable) -> dict:
    return {
        "black": table.log10_black,
        "red": table.log10_red,
        "green": table.log10_green,
        "blue": table.log10_blue,
    }


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_output(table: TrajectoryTable, csv_path: str, pin: dict) -> list[str]:
    """Every way the experiment's output is wrong; empty when it is right.

    ``pin`` holds the pinned values for this config seed, if any: the sha256
    of the CSV file, or the final and maximum log10 capital of each leg.
    """
    failures = []
    legs = leg_arrays(table)
    if table.p_label is None or any(v is None for v in legs.values()):
        return ["the label leg is missing"]
    p_values = np.concatenate([table.p_concept, table.p_label])
    values = np.concatenate([p_values, *legs.values()])
    if np.isnan(values).any():
        failures.append("NaN in the output")
    if not ((p_values >= 0.0) & (p_values <= 1.0)).all():
        failures.append("p-value outside [0, 1]")
    if any(leg[0] != 0.0 for leg in legs.values()):
        failures.append("a trajectory does not start at 0")
    gap = np.abs(table.log10_blue - (table.log10_red + table.log10_green)).max()
    if not gap <= DECOMPOSITION_TOL:
        failures.append(f"|blue - (red + green)| = {gap:.3g} > {DECOMPOSITION_TOL}")
    try:
        if read_trajectory_csv(csv_path) != table:
            failures.append("the CSV does not read back bit-exactly")
    except DataError as exc:
        failures.append(f"the CSV does not read back: {exc}")
    if "csv_sha256" in pin and sha256_file(csv_path) != pin["csv_sha256"]:
        failures.append("CSV sha256 differs from the pinned hash")
    for leg, (final, peak) in pin.get("legs", {}).items():
        got = legs[leg]
        if not (abs(got[-1] - final) <= PIN_TOL and abs(got.max() - peak) <= PIN_TOL):
            failures.append(f"{leg} final/max log10 capital differ from the pin")
    return failures


def pin_values(table: TrajectoryTable, csv_path: str, strategy: str) -> dict:
    """What ``check_output`` compares against for one experiment."""
    if strategy == "mixture-power":
        return {
            "legs": {
                leg: [float(values[-1]), float(values.max())]
                for leg, values in leg_arrays(table).items()
            }
        }
    return {"csv_sha256": sha256_file(csv_path)}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as parallel arrays and written out at the end.

    A span is (name, start, end, parent span, experiment id); times come from
    ``time.perf_counter``. The parent of a top-level span is -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.experiment = array("q")
        self._current = -1
        self._experiment_id = 0

    def _record(self, name: str, start: float, end: float) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._current)
        self.experiment.append(self._experiment_id)
        return len(self.name) - 1

    def open(self, name: str, experiment_id: int | None = None) -> int:
        """Start a span that the following spans nest in until it is closed."""
        if experiment_id is not None:
            self._experiment_id = experiment_id
        index = self._record(name, time.perf_counter(), float("nan"))
        self._current = index
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._current = self.parent[index]

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span called ``name``."""
        start = time.perf_counter()
        out = fn(*args)
        self._record(name, start, time.perf_counter())
        return out

    def arrays(self, first: int = 0) -> dict:
        """The spans from index ``first`` on, as numpy arrays."""
        return {
            "name": np.array(self.name[first:], dtype=np.int32),
            "start": np.array(self.start[first:]),
            "end": np.array(self.end[first:]),
            "parent": np.array(self.parent[first:], dtype=np.int32),
            "experiment": np.array(self.experiment[first:], dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def replay(config: ExperimentConfig, tracer: Tracer, csv_path: str) -> TrajectoryTable:
    """The step loop of ``run_experiment`` rebuilt from public calls, traced.

    Covers the benchmark's configs: a label leg whose measure differs from
    the concept measure, and one tie-breaking substream per leg.
    """
    call = tracer.call
    root = tracer.open("experiment", config.seed)
    data = config.data
    scenario_seed = data.seed if data.seed is not None else config.seed
    stream = call("synth.generate", generate, data, RandomSource(scenario_seed, "scenario"))
    tau_black_src = RandomSource(config.seed, "tau-black")
    tau_src = RandomSource(config.seed, "tau")
    tau_prime_src = RandomSource(config.seed, "tau-prime")
    cache = NnCache()
    black = red = green = initial_state(config.strategy, config.jump_rate, config.reluctance)
    n = len(stream)
    p_concept = np.empty(n)
    p_label = np.empty(n)
    log10_black = np.zeros(n + 1)
    log10_red = np.zeros(n + 1)
    log10_green = np.zeros(n + 1)
    for k, obs in enumerate(stream):
        step = tracer.open("step")
        tau_black = call("core.tau_draw", tau_black_src.uniform_draw)
        tau = call("core.tau_draw", tau_src.uniform_draw)
        tau_prime = call("core.tau_draw", tau_prime_src.uniform_draw)
        call("conformity.insert", cache.insert, obs)
        labels = cache.labels
        concept_scores = call("conformity.score", score_nn, config.concept_measure, cache)
        raw = call("conformity.score", score_nn, config.label_measure, cache)
        label_scores = call("conformity.label_average", label_average, raw, labels)
        pb = call("transducer.p_value", p_conformal, concept_scores, tau_black)
        pr = call("transducer.p_value", p_label_conditional, concept_scores, labels, tau)
        pg = call("transducer.p_value", p_conformal, label_scores, tau_prime)
        black = call("betting.bet", bet_step, black, pb)
        red = call("betting.bet", bet_step, red, pr)
        green = call("betting.bet", bet_step, green, pg)
        p_concept[k] = pr
        p_label[k] = pg
        log10_black[k + 1] = black.log10_capital
        log10_red[k + 1] = red.log10_capital
        log10_green[k + 1] = green.log10_capital
        tracer.close(step)
    blue = call(
        "betting.product",
        product_martingale,
        MartingaleTrajectory(log10_red, tau_src.describe()),
        MartingaleTrajectory(log10_green, tau_prime_src.describe()),
    )
    table = TrajectoryTable(
        p_concept, p_label, log10_black, log10_red, log10_green, blue.log10_values
    )
    call("cli.write_csv", write_trajectory_csv, table, csv_path)
    tracer.close(root)
    return table


def layer_stats(spans: dict, first: int, names: list[str], dim: int) -> dict:
    """Per-layer self times and counts of one experiment's spans.

    ``spans`` are the tracer's arrays from index ``first`` on, which hold one
    experiment, its root span first.
    """
    name_of = np.array(names)[spans["name"]]
    duration = spans["end"] - spans["start"]
    is_step = name_of == "step"
    parent = spans["parent"] - first
    nested = parent >= 0
    in_step = np.zeros(name_of.size, dtype=bool)
    in_step[nested] = is_step[parent[nested]]
    stats = {}
    for layer in STEP_LAYERS + EXPERIMENT_LAYERS:
        selected = name_of == layer
        stats[layer + "_s"] = float(duration[selected].sum())
        stats[layer + "_calls"] = int(selected.sum())
    steps = duration[is_step]
    stats["loop_s"] = float(steps.sum())
    stats["glue_s"] = float(steps.sum() - duration[in_step].sum())
    stats["step_us"] = (steps * 1e6).round(3).tolist()
    # Computed, not measured: inserting into a cache of n points of dimension
    # d forms n*d differences, squares them and sums them, 3*n*d flops.
    stored = np.arange(stats["conformity.insert_calls"], dtype=np.float64)
    stats["insert_flops"] = float(3.0 * dim * stored.sum())
    return stats


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _measure(config: ExperimentConfig, csv_path: str, pin: dict, produce) -> tuple:
    """Time ``produce()``, which writes the CSV, then check its output.

    Returns the experiment's record and the table ``produce`` returned.
    """
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    table = produce()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "seed": config.seed,
        "obs": table.n_steps,
        "wall_s": wall,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "sys_s": after.ru_stime - before.ru_stime,
        "user_s": after.ru_utime - before.ru_utime,
        "csv_bytes": os.path.getsize(csv_path),
        "failures": check_output(table, csv_path, pin),
    }
    return record, table


def run_and_write(config: ExperimentConfig, csv_path: str) -> TrajectoryTable:
    """What a ``shiftmart run`` does: the experiment, then its CSV."""
    table = run_experiment(config)
    write_trajectory_csv(table, csv_path)
    return table


def timed_experiment(config: ExperimentConfig, csv_path: str, pin: dict) -> dict:
    """``run_experiment`` to the written CSV, timed, then checked."""
    record, _ = _measure(config, csv_path, pin, lambda: run_and_write(config, csv_path))
    return record


def traced_experiment(
    config: ExperimentConfig, tracer: Tracer, csv_path: str, pin: dict
) -> dict:
    """The traced replay, checked, then ``run_experiment`` untraced for equality."""
    first_span = len(tracer.name)
    record, table = _measure(
        config, csv_path, pin, lambda: replay(config, tracer, csv_path)
    )
    record.update(
        layer_stats(tracer.arrays(first_span), first_span, tracer.names, config.data.dim)
    )
    start = time.perf_counter()
    reference = run_and_write(config, csv_path)
    record["reference_wall_s"] = time.perf_counter() - start
    if table != reference:
        record["failures"].append("the traced replay differs from run_experiment")
    return record


def run_job(job: dict, base: ExperimentConfig) -> list[dict]:
    """Experiments on consecutive config seeds until the job's time is up."""
    deadline = time.monotonic() + job["seconds"]
    tracer = Tracer() if job["mode"] == "traced" else None
    os.makedirs(job["work_dir"], exist_ok=True)
    records = []
    while True:
        config = dataclasses.replace(base, seed=base.seed + len(records))
        csv_path = os.path.join(job["work_dir"], f"seed{config.seed}.csv")
        pin = job["pins"].get(str(config.seed), {})
        try:
            if tracer is None:
                record = timed_experiment(config, csv_path, pin)
            else:
                record = traced_experiment(config, tracer, csv_path, pin)
        except Exception:  # noqa: BLE001 - a failed experiment is counted, not fatal
            traceback.print_exc()
            record = {"seed": config.seed, "failures": ["raised: see stderr"]}
        records.append(record)
        if os.path.exists(csv_path):
            os.remove(csv_path)
        if len(records) >= job["max_experiments"] or time.monotonic() >= deadline:
            break
    if tracer is not None:
        tracer.save(job["spans_path"])
    return records


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "inherited_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("MALLOC_") or key in INHERITED_ENV
        },
    }


def main() -> int:
    job = json.load(sys.stdin)
    base = experiment_config(job["spec"], job["first_seed"])
    out = {"setup_done": time.monotonic()}
    if job["mode"] == "probe":
        out["env"] = environment()
    else:
        out["records"] = run_job(job, base)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
