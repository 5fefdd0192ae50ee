"""The benchmark's traced replay must stay equal to ``run_experiment``.

``perfbench/bench.py`` rebuilds the step loop from public calls, one
``bet_step`` per leg and step, while ``run_experiment`` bets through
``run_martingale``. The benchmark refuses a traced run whose replay differs,
so this guard runs the same comparison at a small n on the jumper and
mixture workloads. The benchmark files are imported, never modified.
"""

import importlib.util
from pathlib import Path

import pytest

from shiftmart import run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("bench"), _load("run")


@pytest.mark.parametrize("workload", ["mc-small", "mixture"])
def test_traced_replay_equals_run_experiment(perfbench, workload, tmp_path):
    bench, run = perfbench
    spec = dict(run.WORKLOADS[workload], n=50)
    for seed in (0, 1):
        config = bench.experiment_config(spec, seed)
        replayed = bench.replay(config, bench.Tracer(), str(tmp_path / "replay.csv"))
        assert replayed == run_experiment(config)
