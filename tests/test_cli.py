"""Tests for USPS ingestion, experiment runs, CSV emission and the CLI."""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmart import (
    ExperimentConfig,
    ScenarioConfig,
    Stream,
    TrajectoryTable,
    UspsPaths,
    load_usps,
    read_trajectory_csv,
    render_trajectory_csv,
    run_experiment,
    write_trajectory_csv,
)
from shiftmart import cli
from shiftmart.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    ConfigError,
    DataError,
    InvariantViolation,
    config_from_dict,
    load_config,
    main,
)
from shiftmart.synth import _MAX_FLOATS, _MAX_SHIFT, pair_chisq


def usps_row(label, fill=0.25, n_features=256):
    return " ".join([str(label)] + [f"{fill:.4f}"] * n_features)


@pytest.fixture
def usps_files(tmp_path):
    train = tmp_path / "zip.train"
    test = tmp_path / "zip.test"
    train.write_text(
        "\n".join([usps_row(0, 0.1), usps_row(1.0000, -0.2), usps_row(9, 1.0)]) + "\n"
    )
    test.write_text(usps_row(5, 0.0) + "\n")
    return str(train), str(test)


# --- USPS loader ---------------------------------------------------------------


def test_loader_returns_train_then_test_rows(usps_files):
    observations = load_usps(*usps_files)
    assert isinstance(observations, Stream) and observations.x.shape == (4, 256)
    assert [o.y for o in observations] == [0, 1, 9, 5]
    assert all(o.x.size == 256 for o in observations)
    assert observations[0].x[0] == pytest.approx(0.1)
    # the stream made its array of objects and the loader froze its labels,
    # so the stream keeps both
    for array in (observations.x, observations.y):
        assert array.base.base is None and not array.base.flags.writeable


def test_loader_rejects_empty_pair(tmp_path):
    train = tmp_path / "empty.train"
    test = tmp_path / "empty.test"
    train.write_text("")
    test.write_text("\n")
    with pytest.raises(DataError, match="no observations"):
        load_usps(str(train), str(test))


def test_loader_names_the_malformed_line(tmp_path):
    train = tmp_path / "bad.train"
    train.write_text(usps_row(3) + "\n" + usps_row(3, n_features=255) + "\n")
    test = tmp_path / "ok.test"
    test.write_text(usps_row(1) + "\n")
    with pytest.raises(DataError, match=r"bad\.train:2.*256 fields|bad\.train:2.*257"):
        load_usps(str(train), str(test))


def test_loader_rejects_bad_labels_and_features(tmp_path):
    test = tmp_path / "ok.test"
    test.write_text(usps_row(1) + "\n")
    bad_label = tmp_path / "label.train"
    bad_label.write_text(usps_row(12) + "\n")
    with pytest.raises(DataError, match="label"):
        load_usps(str(bad_label), str(test))
    bad_feature = tmp_path / "feature.train"
    bad_feature.write_text(usps_row(3, fill=1.5) + "\n")
    with pytest.raises(DataError, match="feature"):
        load_usps(str(bad_feature), str(test))
    missing = tmp_path / "missing.train"
    with pytest.raises(DataError, match="open"):
        load_usps(str(missing), str(test))


@pytest.mark.parametrize("label", ["inf", "1e400", "nan", "-inf"])
def test_loader_rejects_non_finite_labels(tmp_path, monkeypatch, capsys, label):
    train = tmp_path / "label.train"
    train.write_text(usps_row(3) + "\n" + usps_row(label) + "\n")
    test = tmp_path / "ok.test"
    test.write_text(usps_row(1) + "\n")
    with pytest.raises(DataError, match=r"label\.train:2: label"):
        load_usps(str(train), str(test))
    monkeypatch.chdir(tmp_path)
    raw = scenario_config_dict()
    raw["data"] = {"kind": "usps", "train_path": str(train), "test_path": str(test)}
    assert main(["run", "--config", write_config(tmp_path, raw)]) == EXIT_DATA
    assert "label.train:2" in capsys.readouterr().err


def test_loader_refuses_a_byte_outside_ascii(tmp_path, monkeypatch, capsys):
    train = tmp_path / "byte.train"
    train.write_bytes((usps_row(3) + "\n").encode() + b"\xff" + (usps_row(3) + "\n").encode())
    test = tmp_path / "ok.test"
    test.write_text(usps_row(1) + "\n")
    with pytest.raises(DataError, match=r"byte\.train:2: unparsable number"):
        load_usps(str(train), str(test))
    monkeypatch.chdir(tmp_path)
    raw = scenario_config_dict()
    raw["data"] = {"kind": "usps", "train_path": str(train), "test_path": str(test)}
    assert main(["run", "--config", write_config(tmp_path, raw)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"data error: {train}:2: ")


@pytest.mark.parametrize("field, value", [(0, "0_5"), (1, "0.1_5")], ids=["label", "feature"])
def test_loader_refuses_a_digit_grouping_underscore(tmp_path, monkeypatch, capsys, field, value):
    # float() reads "0_5" as 5 and numpy reads "0.1_5" as 0.15
    fields = usps_row(3).split()
    fields[field] = value
    train = tmp_path / "underscore.train"
    train.write_text(usps_row(3) + "\n" + " ".join(fields) + "\n")
    test = tmp_path / "ok.test"
    test.write_text(usps_row(1) + "\n")
    with pytest.raises(DataError, match=r"underscore\.train:2: unparsable number"):
        load_usps(str(train), str(test))
    monkeypatch.chdir(tmp_path)
    raw = scenario_config_dict()
    raw["data"] = {"kind": "usps", "train_path": str(train), "test_path": str(test)}
    assert main(["run", "--config", write_config(tmp_path, raw)]) == EXIT_DATA
    assert "underscore.train:2: unparsable number" in capsys.readouterr().err


# --- config --------------------------------------------------------------------


def scenario_config_dict(**overrides):
    raw = {
        "data": {"kind": "scenario", "scenario": "iid", "n_steps": 40},
        "concept_measure": "ratio",
        "label_measure": "ratio",
        "strategy": "simple-jumper",
        "seed": 1,
    }
    raw.update(overrides)
    return raw


def test_config_from_dict_roundtrip():
    config = config_from_dict(scenario_config_dict())
    assert isinstance(config.data, ScenarioConfig)
    assert config.data.n_steps == 40
    assert config.strategy == "simple-jumper"


def test_the_default_strategy_is_simple_jumper():
    config = config_from_dict({"data": {"kind": "scenario", "scenario": "iid", "n_steps": 40}})
    assert config.strategy == "simple-jumper"
    # sleepy-jumper runs the same dynamics, so a default run keeps its bits
    assert run_experiment(config) == run_experiment(dataclasses.replace(config, strategy="sleepy-jumper"))


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(scenario_config_dict(typo_key=1))
    with pytest.raises(ConfigError, match="data"):
        config_from_dict({"concept_measure": "ratio"})
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict({"data": {"scenario": "iid"}})
    with pytest.raises(ConfigError):
        config_from_dict(scenario_config_dict(strategy="martingale-max"))
    with pytest.raises(ConfigError):
        config_from_dict(
            {"data": {"kind": "scenario", "scenario": "iid", "n_steps": 0}}
        )
    for bad in ({"jump_rate": True}, {"reluctance": -0.5}, {"seed": "7"}, {"seed": 1.5}):
        with pytest.raises(ConfigError):
            config_from_dict(scenario_config_dict(**bad))
    usps = {"kind": "usps", "train_path": "a", "test_path": "b", "trian_path": "c"}
    with pytest.raises(ConfigError, match="trian_path"):
        config_from_dict(scenario_config_dict(data=usps))


@pytest.mark.parametrize(
    "overrides, data_overrides, field",
    [
        ({"shared_randomization": "no"}, {}, "shared_randomization"),
        ({"shared_randomization": 1}, {}, "shared_randomization"),
        ({"output": 5}, {}, "output"),
        ({"output": "traj\0.csv"}, {}, "output"),
        ({"output": "\ud800.csv"}, {}, "output"),
        ({"output": ""}, {}, "output"),
        ({}, {"n_steps": 5.5}, "n_steps"),
        ({}, {"n_steps": True}, "n_steps"),
        ({}, {"dim": 2.5}, "dim"),
        ({}, {"n_classes": 2.0}, "n_classes"),
        ({}, {"seed": 1.5}, "seed"),
        ({}, {"scenario": "concept-shift", "changepoint": 20.5}, "changepoint"),
        ({}, {"scenario": "label-shift", "changepoint": 20, "shift_magnitude": float("inf")}, "shift_magnitude"),
        ({}, {"scenario": "label-shift", "changepoint": 20, "shift_magnitude": float("nan")}, "shift_magnitude"),
        ({}, {"scenario": "label-shift", "changepoint": 20, "shift_magnitude": True}, "shift_magnitude"),
        ({}, {"scenario": "concept-shift", "changepoint": 20, "shift_magnitude": True}, "shift_magnitude"),
        ({}, {"scenario": "concept-shift", "changepoint": 20, "shift_magnitude": "2"}, "shift_magnitude"),
        ({}, {"scenario": "concept-shift", "changepoint": 20, "shift_magnitude": -1.0}, "shift_magnitude"),
        ({}, {"scenario": "concept-shift", "changepoint": 20, "shift_magnitude": 1e200}, "shift_magnitude"),
        ({}, {"scenario": "label-shift", "changepoint": 20, "shift_magnitude": 1e200}, "shift_magnitude"),
        ({"reluctance": 10**400}, {}, "reluctance"),
        ({"reluctance": float("inf")}, {}, "reluctance"),
        ({"seed": 10**400}, {}, "seed"),
        ({}, {"seed": -(10**400)}, "seed"),
        ({}, {"changepoint": 99}, "changepoint"),
        ({}, {"scenario": "markov-labels", "label_transition": [[0.5, 0.5]] * 2, "changepoint": 3}, "changepoint"),
        ({}, {"label_transition": [[0.5, 0.5]] * 2}, "label_transition"),
        ({}, {"scenario": "concept-shift", "changepoint": 20, "label_transition": [[0.5, 0.5]] * 2}, "label_transition"),
        ({}, {"scenario": "label-shift", "changepoint": 20, "label_transition": [[0.5, 0.5]] * 2}, "label_transition"),
    ],
    ids=[
        "shared-string",
        "shared-int",
        "output-int",
        "output-nul",
        "output-surrogate",
        "output-empty",
        "n_steps-float",
        "n_steps-bool",
        "dim-float",
        "n_classes-float",
        "data-seed-float",
        "changepoint-float",
        "shift-infinity",
        "shift-nan",
        "shift-bool-label",
        "shift-bool-concept",
        "shift-string",
        "shift-negative",
        "shift-huge-concept",
        "shift-huge-label",
        "reluctance-huge-int",
        "reluctance-infinity",
        "seed-huge-int",
        "data-seed-huge-int",
        "changepoint-on-iid",
        "changepoint-on-markov",
        "transition-on-iid",
        "transition-on-concept-shift",
        "transition-on-label-shift",
    ],
)
def test_run_command_rejects_mistyped_config_values(
    tmp_path, monkeypatch, capsys, overrides, data_overrides, field
):
    monkeypatch.chdir(tmp_path)
    raw = scenario_config_dict(**overrides)
    raw["data"].update(data_overrides)
    config_path = write_config(tmp_path, raw)
    assert main(["run", "--config", config_path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


@pytest.mark.parametrize(
    "entry",
    [None, "nan", "0.5", True, 10**400],
    ids=["null", "nan-string", "number-string", "bool", "huge-int"],
)
def test_run_command_rejects_a_transition_entry_that_is_not_a_number(
    tmp_path, monkeypatch, capsys, entry
):
    # each row would sum to 1 if the entry were read as 0.5 (or 1.0 for true
    # in the first column); NaN from null or "nan" used to pass the row sums,
    # and an integer too large for a float overflowed the finiteness check
    monkeypatch.chdir(tmp_path)
    raw = scenario_config_dict()
    row = [0.0, entry] if entry is True else [0.5, entry]
    raw["data"] = {
        "kind": "scenario",
        "scenario": "markov-labels",
        "n_steps": 20,
        "label_transition": [row, [0.5, 0.5]],
    }
    config_path = write_config(tmp_path, raw)
    assert main(["run", "--config", config_path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "label_transition" in captured.err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_config_accepts_markov_transition_lists():
    config = config_from_dict(
        {
            "data": {
                "kind": "scenario",
                "scenario": "markov-labels",
                "n_steps": 10,
                "label_transition": [[0.1, 0.9], [0.9, 0.1]],
            }
        }
    )
    assert config.data.label_transition == ((0.1, 0.9), (0.9, 0.1))


def test_import_and_run_do_not_load_scipy():
    # scipy is a test dependency only; importing it costs set-up time and memory
    code = (
        "import sys\n"
        "from shiftmart import ExperimentConfig, ScenarioConfig, run_experiment\n"
        "run_experiment(ExperimentConfig(data=ScenarioConfig('iid', n_steps=30), seed=1))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_import_and_run_do_not_load_the_process_pool():
    # only sweep fans out over processes; the pool's modules cost set-up time
    code = (
        "import sys\n"
        "import shiftmart\n"
        "from shiftmart import ExperimentConfig, ScenarioConfig, run_experiment\n"
        "run_experiment(ExperimentConfig(data=ScenarioConfig('iid', n_steps=30), seed=1))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def source_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_run_of_a_usps_file_with_an_overflowing_score_prints_no_warning(tmp_path):
    # d_same of the first two rows is about 1e-160, whose square underflows
    # to a subnormal, so d_other / d_same**2 overflows to +inf
    def row(label, first):
        return " ".join([str(label), repr(first)] + ["0"] * 255)

    train, test = tmp_path / "zip.train", tmp_path / "zip.test"
    train.write_text(row(0, 0.0) + "\n" + row(0, 1e-160) + "\n")
    test.write_text(row(1, 0.5) + "\n" + row(1, -0.5) + "\n")
    raw = scenario_config_dict(concept_measure="ratio-squared-denominator", output=str(tmp_path / "out.csv"))
    raw["data"] = {"kind": "usps", "train_path": str(train), "test_path": str(test)}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    command = [sys.executable, "-m", "shiftmart", "run", "--config", str(config)]
    result = subprocess.run(command, env=source_env(), capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (EXIT_OK, "")


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "traj.csv"
    raw = scenario_config_dict(output=str(out))
    raw["data"]["n_steps"] = 20
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    command = [sys.executable, "-m", "shiftmart", "run", "--config", str(config)]
    result = subprocess.run(command, env=source_env(), capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert read_trajectory_csv(str(out)).n_steps == 20
    config.write_text(json.dumps([raw]))
    result = subprocess.run(command, env=source_env(), capture_output=True, text=True)
    assert result.returncode == EXIT_CONFIG
    assert result.stderr.startswith("config error")


# --- scripts ---------------------------------------------------------------------

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    command = [sys.executable, str(SCRIPTS / name), *map(str, args)]
    return subprocess.run(command, env=source_env(), capture_output=True, text=True)


def test_run_usps_script_runs_and_maps_errors_to_exit_codes(tmp_path, usps_files):
    out = tmp_path / "usps.csv"
    result = run_script("run_usps.py", *usps_files, "--output", out)
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert "processed 4 observations" in result.stdout
    # flags left out keep the config defaults
    assert read_trajectory_csv(str(out)) == run_experiment(ExperimentConfig(UspsPaths(*usps_files)))
    result = run_script("run_usps.py", *usps_files, "--jump-rate", "5")
    assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
    assert result.stderr.startswith("config error: jump_rate")
    # run's flags less --config and the inert --reluctance
    result = run_script("run_usps.py", *usps_files, "--reluctance", "0.5")
    assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
    assert "unrecognized arguments: --reluctance" in result.stderr
    result = run_script("run_usps.py", tmp_path / "missing", usps_files[1])
    assert (result.returncode, result.stdout) == (EXIT_DATA, "")
    assert result.stderr.startswith(f"data error: cannot open {tmp_path / 'missing'}")


def test_ab_time_script_times_two_trees_and_maps_errors_to_exit_codes(tmp_path):
    root = SCRIPTS.parent
    result = run_script("ab_time.py", root, root, "--shape", "40,2,2", "--rounds", 1)
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[::3]] == ["extend_s", "replay_s", "label_s", "experiment_s"]
    assert all(line.endswith("of 1 rounds") for line in lines[2::3])
    result = run_script("ab_time.py", root, root, "--shape", "40,2")
    assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
    result = run_script("ab_time.py", tmp_path, root, "--shape", "40,2,2")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith(f"error: no src/shiftmart under {tmp_path}")
    # a scenario's class centres need d >= K
    result = run_script("ab_time.py", root, root, "--shape", "40,2,5")
    assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
    assert "d must be at least K" in result.stderr
    # a tree whose package fails to import: its process's last line, not a traceback
    broken = tmp_path / "broken"
    (broken / "src" / "shiftmart").mkdir(parents=True)
    (broken / "src" / "shiftmart" / "__init__.py").write_text("raise ImportError('broken tree')\n")
    result = run_script("ab_time.py", root, broken, "--shape", "40,2,2", "--rounds", 1)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith(f"error: the process timing {(broken / 'src').resolve()} exited with 1")
    assert result.stderr.endswith("ImportError: broken tree\n")
    assert "Traceback" not in result.stderr


def test_calibration_script_runs_and_maps_errors_to_exit_codes():
    args = ["--seeds", 1, "--n-steps", 30, "--dims", 2, "--jump-rates", 0.01]
    result = run_script("calibrate_shift_separation.py", *args)
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert result.stdout.startswith("dim=2 measure=ratio J=0.01: concept-shift red=")
    result = run_script("calibrate_shift_separation.py", *args, "--magnitude", "-1")
    assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
    assert "shift_magnitude" in result.stderr
    result = run_script("calibrate_shift_separation.py", *args, "--seeds", "0")
    assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
    assert "--seeds must be at least 1" in result.stderr


def test_count_code_lines_script_skips_docstrings_comments_and_blank_lines(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""A module docstring\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "total = (1 +\n"
        "         2)  # a two-line statement\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return total\n"
    )
    result = run_script("count_code_lines.py", sample, sample)
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert result.stdout.split() == ["4", str(sample), "4", str(sample), "8", "total"]
    result = run_script("count_code_lines.py", tmp_path / "missing.py")
    assert (result.returncode, result.stdout) == (EXIT_DATA, "")
    assert result.stderr.startswith(str(tmp_path / "missing.py"))
    assert run_script("count_code_lines.py").returncode == EXIT_CONFIG


def test_fault_modes_script_summarises_run_records(tmp_path):
    experiments = [
        {"seed": 10, "wall_s": 0.030, "minor_faults": 1400},
        {"seed": 11, "wall_s": 0.020, "minor_faults": 0},
        {"seed": 12, "wall_s": 0.025, "minor_faults": 501},
        # an experiment that raised has no timings
        {"seed": 13, "failures": ["raised: see stderr"]},
    ]
    results = tmp_path / "results"
    results.mkdir()
    # the fields perfbench/run.py writes, less the environment and the metrics
    record = {
        "workload": "mc-small",
        "seed": 1,
        "trace": 0,
        "failures": [{"seed": 13, "failures": ["raised: see stderr"]}],
        "experiments": experiments,
        "attempted": 4,
    }
    (results / "mc-small-seed1-trace0.json").write_text(json.dumps(record))
    result = run_script("fault_modes.py", results)
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert result.stdout == (
        f"{results / 'mc-small-seed1-trace0.json'}: mc-small seed=1 experiments=3"
        " wall_s=0.0250 minor_faults=501 faulting=2\n"
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    result = run_script("fault_modes.py", broken)
    assert (result.returncode, result.stdout) == (EXIT_DATA, "")
    assert result.stderr.startswith(f"{broken}: not a run record")
    # JSON, but not a record
    for text in ("[1, 2]", '{"workload": "mc-small"}', '{"workload": "w", "seed": 1, "experiments": []}'):
        broken.write_text(text)
        result = run_script("fault_modes.py", broken)
        assert (result.returncode, result.stdout) == (EXIT_DATA, "")
        assert result.stderr.startswith(f"{broken}: not a run record")
    assert run_script("fault_modes.py", tmp_path / "missing.json").returncode == EXIT_DATA
    assert run_script("fault_modes.py").returncode == EXIT_CONFIG


# --- run_experiment --------------------------------------------------------------


def iid_config(**overrides):
    fields = dict(
        data=ScenarioConfig("iid", n_steps=120),
        concept_measure="ratio",
        label_measure="ratio",
        strategy="simple-jumper",
        seed=5,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def test_same_config_yields_byte_identical_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    write_trajectory_csv(run_experiment(iid_config()), str(out_a))
    write_trajectory_csv(run_experiment(iid_config()), str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_blue_column_is_exactly_red_plus_green():
    table = run_experiment(iid_config())
    assert np.array_equal(table.log10_blue, table.log10_red + table.log10_green)
    assert table.log10_blue[0] == 0.0


def test_removing_label_leg_keeps_red_bit_identical():
    full = run_experiment(iid_config())
    concept_only = run_experiment(iid_config(label_measure=None))
    assert np.array_equal(concept_only.log10_red, full.log10_red)
    assert np.array_equal(concept_only.log10_black, full.log10_black)
    assert np.array_equal(concept_only.p_concept, full.p_concept)
    assert concept_only.p_label is None
    assert concept_only.log10_green is None and concept_only.log10_blue is None


def test_mixed_measures_run():
    table = run_experiment(
        iid_config(concept_measure="same-class", label_measure="ratio")
    )
    assert table.n_steps == 120


def test_shared_randomization_mode_runs_and_differs():
    independent = run_experiment(iid_config())
    shared = run_experiment(iid_config(shared_randomization=True))
    assert not np.array_equal(independent.p_concept, shared.p_concept)
    assert np.array_equal(shared.log10_blue, shared.log10_red + shared.log10_green)


def test_usps_source_feeds_the_run(usps_files):
    config = iid_config(data=UspsPaths(*usps_files))
    table = run_experiment(config)
    assert table.n_steps == 4


def test_iid_runs_rarely_reach_capital_one_hundred():
    quiet = 0
    for seed in range(100):
        table = run_experiment(iid_config(data=ScenarioConfig("iid", n_steps=500), seed=seed))
        finals = (
            table.log10_black[-1],
            table.log10_red[-1],
            table.log10_green[-1],
            table.log10_blue[-1],
        )
        quiet += max(finals) < 2.0
    assert quiet >= 90


def test_out_of_range_p_value_names_the_first_bad_step(monkeypatch):
    real_interleave = cli.interleave

    def corrupted_interleave(*args):
        legs = real_interleave(*args)
        legs.p_label[8] = 1.5
        legs.p_black[6] = np.nan
        return legs

    monkeypatch.setattr(cli, "interleave", corrupted_interleave)
    with pytest.raises(InvariantViolation, match="at step 7$"):
        run_experiment(iid_config())


# --- CSV round trip ---------------------------------------------------------------


def test_csv_roundtrip_is_exact(tmp_path):
    table = run_experiment(iid_config())
    path = tmp_path / "table.csv"
    write_trajectory_csv(table, str(path))
    assert read_trajectory_csv(str(path)) == table


def test_csv_roundtrip_without_label_leg(tmp_path):
    table = run_experiment(iid_config(label_measure=None))
    path = tmp_path / "table.csv"
    write_trajectory_csv(table, str(path))
    parsed = read_trajectory_csv(str(path))
    assert parsed == table
    assert parsed.p_label is None


def test_csv_render_has_header_and_initial_row():
    table = run_experiment(iid_config(data=ScenarioConfig("iid", n_steps=3)))
    lines = render_trajectory_csv(table).splitlines()
    assert lines[0] == "n,p_concept,p_label,log10_black,log10_red,log10_green,log10_blue"
    assert lines[1].startswith("0,,,0.0,0.0,0.0,0.0")
    assert len(lines) == 5


def test_reader_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(DataError, match="header"):
        read_trajectory_csv(str(path))


# --- command-line interface ---------------------------------------------------------


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_command_writes_csv_and_exits_zero(tmp_path):
    out = tmp_path / "traj.csv"
    config_path = write_config(tmp_path, scenario_config_dict(output=str(out)))
    assert main(["run", "--config", config_path]) == EXIT_OK
    table = read_trajectory_csv(str(out))
    assert table.n_steps == 40


def test_run_command_flag_overrides_json(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    config_path = write_config(tmp_path, scenario_config_dict())
    assert main(["run", "--config", config_path, "--output", str(out_a), "--seed", "1"]) == EXIT_OK
    assert main(["run", "--config", config_path, "--output", str(out_b), "--seed", "2"]) == EXIT_OK
    assert read_trajectory_csv(str(out_a)) != read_trajectory_csv(str(out_b))


def test_run_command_config_error_exit_code(tmp_path):
    config_path = write_config(tmp_path, scenario_config_dict(strategy="bogus"))
    assert main(["run", "--config", config_path]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_non_object_config_is_a_config_error(tmp_path):
    config_path = write_config(tmp_path, [scenario_config_dict()])
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(config_path, {"seed": 3})
    assert main(["run", "--config", config_path]) == EXIT_CONFIG


def test_run_command_data_error_exit_code(tmp_path):
    raw = scenario_config_dict()
    raw["data"] = {"kind": "usps", "train_path": "/nonexistent", "test_path": "/nonexistent"}
    config_path = write_config(tmp_path, raw)
    assert main(["run", "--config", config_path]) == EXIT_DATA


def test_report_command_emits_json(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    config_path = write_config(tmp_path, scenario_config_dict(output=str(out)))
    assert main(["run", "--config", config_path]) == EXIT_OK
    assert main(["report", str(out)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report.keys() == {"p_concept", "p_label", "pair"}
    table = read_trajectory_csv(str(out))
    for leg in ("p_concept", "p_label"):
        assert report[leg].keys() == {"ks_distance", "sample_count"}
        assert report[leg]["sample_count"] == 40
    assert report["pair"].keys() == {"chisq_stat", "chisq_df"}
    # the lag-0 statistic of the acceptance gates, on their 10 x 10 grid
    pairs = np.column_stack([table.p_concept, table.p_label])
    assert report["pair"]["chisq_stat"] == pair_chisq(pairs)[0]
    assert report["pair"]["chisq_df"] == 99


def test_report_defaults_to_the_columns_a_run_without_label_leg_has(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    raw = scenario_config_dict(output=str(out), label_measure=None)
    assert main(["run", "--config", write_config(tmp_path, raw)]) == EXIT_OK
    assert main(["report", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report.keys() == {"p_concept"}
    assert report["p_concept"].keys() == {"ks_distance", "sample_count"}
    assert report["p_concept"]["sample_count"] == 40


@pytest.mark.parametrize("option", [["--column", "both"], ["--bins", "10"]], ids=["column", "bins"])
def test_report_has_no_column_option(tmp_path, capsys, option):
    path, _ = written_csv_lines(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["report", *option, str(path)])
    assert exit_info.value.code == EXIT_CONFIG
    assert option[0] in capsys.readouterr().err


def test_sweep_command_writes_per_seed_files(tmp_path):
    config_path = write_config(tmp_path, scenario_config_dict())
    out_dir = tmp_path / "sweep"
    assert (
        main(
            [
                "sweep",
                "--config",
                config_path,
                "--seeds",
                "3",
                "--out-dir",
                str(out_dir),
                "--workers",
                "2",
            ]
        )
        == EXIT_OK
    )
    tables = [read_trajectory_csv(str(out_dir / f"seed{s}.csv")) for s in (1, 2, 3)]
    assert tables[0] != tables[1]
    # seeded sweep reproduces the plain run of the same seed
    solo = run_experiment(dataclasses.replace(config_from_dict(scenario_config_dict()), seed=2))
    assert tables[1] == solo


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the process pools that ``sweep`` builds; a stand-in
    records them and runs the tasks in this process."""
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.mark.parametrize("seeds, workers, pool", [(3, 8, 3), (3, 2, 2), (1, 64, None)])
def test_sweep_pool_has_no_more_workers_than_seeds(tmp_path, pool_sizes, seeds, workers, pool):
    config_path = write_config(tmp_path, scenario_config_dict())
    argv = ["sweep", "--config", config_path, "--seeds", str(seeds), "--out-dir", str(tmp_path)]
    assert main(argv + ["--workers", str(workers)]) == EXIT_OK
    # a single seed runs in this process, without a pool
    assert pool_sizes == ([] if pool is None else [pool])
    assert sorted(p.name for p in tmp_path.glob("seed*.csv")) == [
        f"seed{s}.csv" for s in range(1, seeds + 1)
    ]


def test_sweep_refuses_more_workers_than_the_cap(tmp_path, pool_sizes, capsys):
    config_path = write_config(tmp_path, scenario_config_dict())
    argv = ["sweep", "--config", config_path, "--seeds", "2", "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--workers", str(cli._MAX_WORKERS + 1)])
    assert exit_info.value.code == EXIT_CONFIG
    assert f"expected at most {cli._MAX_WORKERS}" in capsys.readouterr().err
    assert pool_sizes == []
    assert cli._build_parser().parse_args(argv).workers <= cli._MAX_WORKERS


def test_sweep_refuses_more_seeds_than_the_cap(capsys):
    # parsed only: an accepted count would start the whole sweep
    argv = ["sweep", "--config", "c.json", "--out-dir", "out", "--seeds"]
    assert cli._build_parser().parse_args(argv + [str(cli._MAX_SEEDS)]).seeds == cli._MAX_SEEDS
    with pytest.raises(SystemExit) as exit_info:
        cli._build_parser().parse_args(argv + [str(cli._MAX_SEEDS + 1)])
    assert exit_info.value.code == EXIT_CONFIG
    assert f"expected at most {cli._MAX_SEEDS}" in capsys.readouterr().err


def test_sweep_rejects_bad_seed_and_counts(tmp_path, capsys):
    out_dir = str(tmp_path / "sweep")
    bad_seed = write_config(tmp_path, scenario_config_dict(seed="7"))
    argv = ["sweep", "--config", bad_seed, "--seeds", "2", "--out-dir", out_dir]
    assert main(argv + ["--workers", "1"]) == EXIT_CONFIG
    assert "seed must be an integer" in capsys.readouterr().err
    good = write_config(tmp_path, scenario_config_dict())
    for counts in (
        ["--seeds", "2", "--workers", "0"],
        ["--seeds", "0", "--workers", "1"],
        ["--seeds", "abc", "--workers", "1"],
        ["--seeds", "2", "--workers", "1.5"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", good, "--out-dir", out_dir] + counts)
        assert exit_info.value.code == EXIT_CONFIG
        assert "expected a positive integer" in capsys.readouterr().err


def test_report_rejects_bad_p_values(tmp_path, capsys):
    path = tmp_path / "table.csv"
    table = run_experiment(iid_config(data=ScenarioConfig("iid", n_steps=4)))
    write_trajectory_csv(table, str(path))
    lines = path.read_text().splitlines()
    for column, value in ((1, "nan"), (2, "nan"), (1, "inf"), (2, "-0.25"), (1, "1.5"), (2, "x")):
        fields = lines[3].split(",")
        fields[column] = value
        path.write_text("\n".join(lines[:3] + [",".join(fields)] + lines[4:]) + "\n")
        with pytest.raises(DataError):
            read_trajectory_csv(str(path))
        assert main(["report", str(path)]) == EXIT_DATA
        assert capsys.readouterr().out == ""



def written_csv_lines(tmp_path, n_steps=6, **overrides):
    """A trajectory CSV written by ``run``, as its path and its lines."""
    path = tmp_path / "table.csv"
    config = iid_config(data=ScenarioConfig("iid", n_steps=n_steps), **overrides)
    write_trajectory_csv(run_experiment(config), str(path))
    return path, path.read_text().splitlines()


def set_cell(lines, row, column, value):
    """The lines with data row ``row`` (0 is the initial row) holding ``value``."""
    fields = lines[row + 1].split(",")
    fields[column] = value
    return lines[: row + 1] + [",".join(fields)] + lines[row + 2 :]


def assert_rejected(path, lines, capsys, match):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=match) as info:
        read_trajectory_csv(str(path))
    assert str(path) in str(info.value)
    assert main(["report", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [3, 4, 5, 6], ids=["black", "red", "green", "blue"])
def test_reader_rejects_non_finite_capital(tmp_path, capsys, column, value):
    path, lines = written_csv_lines(tmp_path)
    assert_rejected(path, set_cell(lines, 4, column, value), capsys, "not finite")


@pytest.mark.parametrize("value", ["abc", "", "5", "3.0", " 3"])
def test_reader_rejects_an_n_column_that_does_not_count(tmp_path, capsys, value):
    path, lines = written_csv_lines(tmp_path)
    assert_rejected(path, set_cell(lines, 3, 0, value), capsys, "expected n = 3")


@pytest.mark.parametrize("column", [1, 2], ids=["p_concept", "p_label"])
def test_reader_rejects_p_values_on_the_initial_row(tmp_path, capsys, column):
    path, lines = written_csv_lines(tmp_path)
    assert_rejected(path, set_cell(lines, 0, column, "0.5"), capsys, "row n=0")


def test_reader_rejects_a_label_leg_without_its_trajectories(tmp_path, capsys):
    path, lines = written_csv_lines(tmp_path)
    for row in range(len(lines) - 1):
        lines = set_cell(set_cell(lines, row, 5, ""), row, 6, "")
    assert_rejected(path, lines, capsys, "all filled or all empty")


def test_reader_rejects_blue_away_from_red_plus_green(tmp_path, capsys):
    path, lines = written_csv_lines(tmp_path)
    blue = float(lines[4].split(",")[6])
    assert_rejected(path, set_cell(lines, 3, 6, repr(blue + 8.8)), capsys, "log10_blue")


# --- the TrajectoryTable contract ---------------------------------------------------


def table_columns(n_steps=5, **overrides):
    """The columns of a table from a run, as a dict of fresh arrays."""
    table = run_experiment(iid_config(data=ScenarioConfig("iid", n_steps=n_steps), **overrides))
    return {name: copy.copy(getattr(table, name)) for name in cli._COLUMNS}


# (column, index, value, message): one cell that breaks one rule
BROKEN_CELLS = [
    ("p_concept", 2, math.nan, "p_concept holds a value outside"),
    ("p_label", 3, 1.5, "p_label holds a value outside"),
    ("p_label", 0, -0.25, "p_label holds a value outside"),
    ("log10_red", 4, math.inf, "log10_red holds a value that is not finite"),
    ("log10_blue", 3, 7.5, "log10_blue is .* away from log10_red"),
    ("log10_black", 0, 5.0, "log10_black must start at 0, got 5.0"),
    ("log10_red", 0, 5.0, "log10_red must start at 0, got 5.0"),
    ("log10_green", 0, -1.0, "log10_green must start at 0, got -1.0"),
    ("log10_blue", 0, 5.0, "log10_blue must start at 0, got 5.0"),
    # a p-value adds nonnegative terms and a trajectory is a sum that starts
    # at +0.0, so a run never writes -0.0
    ("p_concept", 0, -0.0, "p_concept holds -0.0"),
    ("p_label", 0, -0.0, "p_label holds -0.0"),
    ("log10_black", 1, -0.0, "log10_black holds -0.0"),
    ("log10_black", 0, -0.0, "log10_black holds -0.0"),
    ("log10_red", 0, -0.0, "log10_red holds -0.0"),
    ("log10_green", 0, -0.0, "log10_green holds -0.0"),
    ("log10_blue", 0, -0.0, "log10_blue holds -0.0"),
]


@pytest.mark.parametrize("name, index, value, match", BROKEN_CELLS)
def test_a_table_that_breaks_a_rule_in_one_cell_is_refused(tmp_path, capsys, name, index, value, match):
    columns = table_columns()
    TrajectoryTable(**columns).checked()
    columns[name][index] = value
    broken = TrajectoryTable(**columns)
    with pytest.raises(ValueError, match=match):
        broken.checked()
    # the writer refuses it too, so no file is written that the reader refuses
    with pytest.raises(ValueError, match=match):
        write_trajectory_csv(broken, str(tmp_path / "broken.csv"))
    assert not (tmp_path / "broken.csv").exists()
    # the same cell in a CSV that run wrote: a p column's step k is row k + 1
    path, lines = written_csv_lines(tmp_path, n_steps=5)
    row = index + name.startswith("p_")
    column = cli._COLUMNS.index(name) + 1
    assert_rejected(path, set_cell(lines, row, column, repr(value)), capsys, match)


def _drop(name):
    return lambda columns: columns.update({name: None})


def _resize(name, size):
    return lambda columns: columns.update({name: np.resize(columns[name], size)})


def _as_list(name):
    return lambda columns: columns.update({name: columns[name].tolist()})


def _no_steps(columns):
    # the reader takes an empty p column as absent, so such a table could
    # not round-trip through a CSV: the contract refuses it
    columns.update({name: np.empty(0) if name.startswith("p_") else np.zeros(1) for name in columns})


@pytest.mark.parametrize(
    "change, match",
    [
        (_drop("p_concept"), "p_concept is missing"),
        (_drop("log10_black"), "log10_black is missing"),
        (_drop("log10_red"), "log10_red is missing"),
        (_drop("p_label"), "p_label, log10_green, log10_blue must be all filled or all empty"),
        (_drop("log10_green"), "all filled or all empty"),
        (_resize("p_label", 4), r"p_label is ndarray \(4,\), expected ndarray \(5,\)"),
        (_resize("log10_red", 5), r"log10_red is ndarray \(5,\), expected ndarray \(6,\)"),
        (_resize("log10_blue", (2, 3)), r"log10_blue is ndarray \(2, 3\), expected ndarray \(6,\)"),
        (_resize("p_concept", (5, 1)), r"p_concept is ndarray \(5, 1\), expected ndarray \(5,\)"),
        (_as_list("p_label"), r"p_label is list \(5,\), expected ndarray \(5,\)"),
        (_no_steps, "p_concept is empty: a table has at least one step"),
    ],
    ids=[
        "p_concept", "black", "red", "p_label", "green", "p-length", "red-length", "2d", "p-2d",
        "list", "no-steps",
    ],
)
def test_a_table_without_its_columns_or_their_lengths_is_refused(tmp_path, change, match):
    columns = table_columns()
    change(columns)
    table = TrajectoryTable(**columns)
    with pytest.raises(ValueError, match=match):
        table.checked()
    with pytest.raises(ValueError, match=match):
        write_trajectory_csv(table, str(tmp_path / "broken.csv"))


def test_a_missing_label_leg_equals_only_a_missing_label_leg():
    columns = table_columns(label_measure=None)
    assert TrajectoryTable(**columns).checked() == TrajectoryTable(**columns)
    assert TrajectoryTable(**columns) != TrajectoryTable(**table_columns())


def test_reader_rejects_a_blank_line_between_rows(tmp_path, capsys):
    path, lines = written_csv_lines(tmp_path)
    assert_rejected(path, lines[:4] + [""] + lines[4:], capsys, "malformed rows")


def test_reader_refuses_an_overflowing_gap_without_a_warning(tmp_path, capsys):
    path, lines = written_csv_lines(tmp_path)
    for column in (4, 5, 6):
        lines = set_cell(lines, 3, column, "1e+308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rejected(path, lines, capsys, "log10_blue is inf away")


@pytest.mark.parametrize(
    "column, value",
    [(1, value) for value in ("0.5_0", "1_0e-1", " 0.5", "0.5 ", "+0.5", "5e-1", "0.50")]
    # a capital with a trailing 0
    + [(column, "{}0") for column in (3, 4, 5, 6)],
)
def test_reader_refuses_a_number_run_does_not_write(tmp_path, capsys, column, value):
    # each cell reads as a float, but run writes repr of that float only
    path, lines = written_csv_lines(tmp_path)
    value = value.format(lines[2].split(",")[column])
    name = cli._COLUMNS[column - 1]
    assert_rejected(path, set_cell(lines, 1, column, value), capsys, f"{name} holds a number not in shortest")


@pytest.mark.parametrize(
    "separator, end, match",
    [("\n", "", "does not end in a newline"), ("\r\n", "\r\n", "header")],
    ids=["no final newline", "windows line ends"],
)
def test_reader_refuses_line_ends_run_does_not_write(tmp_path, capsys, separator, end, match):
    path, lines = written_csv_lines(tmp_path)
    path.write_bytes((separator.join(lines) + end).encode("ascii"))
    with pytest.raises(DataError, match=match):
        read_trajectory_csv(str(path))
    assert main(["report", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == "" and str(path) in captured.err


def test_report_on_an_empty_p_concept_column_exits_3(tmp_path, capsys):
    path, lines = written_csv_lines(tmp_path)
    for row in range(1, len(lines) - 1):
        lines = set_cell(lines, row, 1, "")
    # the presence rule comes first: no other rule may read a missing column
    assert_rejected(path, lines, capsys, "p_concept is missing")


def test_a_broken_decomposition_is_an_internal_error(monkeypatch, tmp_path, capsys):
    real_product = cli.product_martingale

    def shifted_product(*args, **kwargs):
        blue = real_product(*args, **kwargs)
        values = blue.log10_values.copy()
        values[1:] += 1.0
        return dataclasses.replace(blue, log10_values=values)

    monkeypatch.setattr(cli, "product_martingale", shifted_product)
    with pytest.raises(InvariantViolation, match="log10_blue is 1 away"):
        run_experiment(iid_config())
    config_path = write_config(tmp_path, scenario_config_dict())
    assert main(["run", "--config", config_path]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: log10_blue")


# p-values at and near the ends of [0, 1], subnormals included
_P_VALUES = st.sampled_from([0.0, 1.0, 5e-324, 2.5e-310, 1 - 2**-53]) | st.floats(0.0, 1.0)
# adding 0.0 turns -0.0, which no run writes, into 0.0
_CAPITALS = st.floats(-1e300, 1e300).map(lambda value: value + 0.0)


@st.composite
def valid_tables(draw):
    n = draw(st.integers(1, 40))

    def column(values, start=()):
        return np.array([*start, *draw(st.lists(values, min_size=n, max_size=n))])

    black, red = column(_CAPITALS, [0.0]), column(_CAPITALS, [0.0])
    if not draw(st.booleans()):
        return TrajectoryTable(column(_P_VALUES), None, black, red, None, None)
    green = column(_CAPITALS, [0.0])
    return TrajectoryTable(column(_P_VALUES), column(_P_VALUES), black, red, green, red + green)


@given(valid_tables())
@settings(max_examples=100, deadline=None)
def test_every_valid_table_round_trips_through_the_csv(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    write_trajectory_csv(table, str(path))
    assert read_trajectory_csv(str(path)) == table



@functools.cache
def valid_csv_lines():
    table = run_experiment(iid_config(data=ScenarioConfig("iid", n_steps=30)))
    return tuple(render_trajectory_csv(table).splitlines())


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def mutated_csv_lines(draw):
    lines = list(valid_csv_lines())
    row = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["cell", "drop", "duplicate"]))
    if action == "drop":
        del lines[row]
    elif action == "duplicate":
        lines.insert(row, lines[row])
    else:
        fields = lines[row].split(",")
        column = draw(st.integers(0, len(fields) - 1))
        fields[column] = draw(st.sampled_from(["nan", "inf", "-inf", ""]) | st.text())
        lines[row] = ",".join(fields)
    return lines


@given(mutated_csv_lines())
@settings(max_examples=150, deadline=None)
def test_report_on_a_mutated_csv_exits_cleanly(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("fuzz") / "table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", str(path)])
    assert code in (EXIT_OK, EXIT_DATA)
    if code == EXIT_OK:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("data error: ")


def test_run_command_reports_an_unwritable_output(tmp_path, capsys):
    config_path = write_config(tmp_path, scenario_config_dict())
    target = tmp_path / "missing-dir" / "traj.csv"
    assert main(["run", "--config", config_path, "--output", str(target)]) == EXIT_CONFIG
    assert str(target) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json"]
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    assert main(["run", "--config", config_path, "--output", str(occupied)]) == EXIT_CONFIG
    assert str(occupied) in capsys.readouterr().err
    assert list(occupied.iterdir()) == []
    assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json", occupied]


@pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
def test_a_failed_replace_removes_the_temporary(tmp_path, monkeypatch, capsys, failure):
    config_path = write_config(tmp_path, scenario_config_dict())
    target = tmp_path / "traj.csv"

    def failing_replace(src, dst):
        assert os.path.exists(src)
        raise failure

    monkeypatch.setattr(os, "replace", failing_replace)
    argv = ["run", "--config", config_path, "--output", str(target)]
    if isinstance(failure, OSError):
        assert main(argv) == EXIT_CONFIG
        assert f"cannot write output {target}: disk full" in capsys.readouterr().err
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_run_command_writes_through_a_symlink(tmp_path):
    config_path = write_config(tmp_path, scenario_config_dict())
    target = tmp_path / "target.csv"
    target.write_text("")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["run", "--config", config_path, "--output", str(link)]) == EXIT_OK
    # the link stays a link, and its target holds the table
    assert link.is_symlink() and link.resolve() == target
    assert read_trajectory_csv(str(target)).n_steps == 40
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "link.csv", "target.csv"]


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@pytest.mark.parametrize("entry", ["directory", "file", "symlink"])
def test_run_command_leaves_an_entry_at_the_old_temporary_name_alone(tmp_path, entry):
    # the temporary used to be <output>.tmp: a directory there ended in a
    # traceback, a file there was consumed, and a link there was written through
    config_path = write_config(tmp_path, scenario_config_dict())
    out = tmp_path / "out.csv"
    old = tmp_path / "out.csv.tmp"
    victim = tmp_path / "victim"
    victim.write_text("keep me\n")
    if entry == "directory":
        old.mkdir()
    elif entry == "file":
        old.write_text("mine\n")
    else:
        old.symlink_to(victim)
    assert main(["run", "--config", config_path, "--output", str(out)]) == EXIT_OK
    assert out.is_file() and not out.is_symlink()
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~_umask()
    assert read_trajectory_csv(str(out)).n_steps == 40
    assert victim.read_text() == "keep me\n"
    if entry == "directory":
        assert old.is_dir() and list(old.iterdir()) == []
    elif entry == "file":
        assert old.read_text() == "mine\n"
    else:
        assert old.is_symlink() and old.resolve() == victim
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out.csv", "out.csv.tmp", "victim"]


def test_run_command_writes_an_output_of_the_longest_name(tmp_path):
    # the temporary's name does not grow with the output's
    config_path = write_config(tmp_path, scenario_config_dict())
    out = tmp_path / ("a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv")
    assert main(["run", "--config", config_path, "--output", str(out)]) == EXIT_OK
    assert read_trajectory_csv(str(out)).n_steps == 40
    assert sorted(tmp_path.iterdir()) == [out, tmp_path / "config.json"]


def test_run_command_refuses_an_empty_output_flag(tmp_path, capsys):
    config_path = write_config(tmp_path, scenario_config_dict())
    assert main(["run", "--config", config_path, "--output", ""]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "output" in captured.err


def test_run_command_writes_into_a_fifo(tmp_path):
    config_path = write_config(tmp_path, scenario_config_dict())
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, encoding="ascii") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(["run", "--config", config_path, "--output", str(fifo)]) == EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    # the FIFO is still one, and its reader got the whole table
    assert fifo.is_fifo() and sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "fifo"]
    path = tmp_path / "received.csv"
    path.write_text(received[0])
    assert read_trajectory_csv(str(path)).n_steps == 40


def test_sweep_rejects_an_out_dir_that_is_a_file(tmp_path, capsys):
    config_path = write_config(tmp_path, scenario_config_dict())
    regular = tmp_path / "taken"
    regular.write_text("keep me\n")
    argv = ["sweep", "--config", config_path, "--seeds", "2", "--out-dir", str(regular)]
    assert main(argv + ["--workers", "1"]) == EXIT_CONFIG
    assert str(regular) in capsys.readouterr().err
    assert regular.read_text() == "keep me\n"


@pytest.mark.parametrize(
    "value",
    [0, True, None, ["a"], "zip\0data", "\ud800x", ""],
    ids=["int", "bool", "null", "list", "nul", "surrogate", "empty"],
)
@pytest.mark.parametrize("field", ["train_path", "test_path"])
def test_usps_paths_must_be_strings(tmp_path, capsys, usps_files, field, value):
    raw = scenario_config_dict()
    raw["data"] = {"kind": "usps", "train_path": usps_files[0], "test_path": usps_files[1]}
    raw["data"][field] = value
    with pytest.raises(ConfigError, match=field):
        config_from_dict(raw)
    assert main(["run", "--config", write_config(tmp_path, raw)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


# --- config inputs that must end in exit 2 ------------------------------------------


def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ConfigError, match="nested too deeply"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: config {path}")


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: config {path} is not UTF-8")


def test_integer_literal_beyond_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.dumps refuses to write it, and json.load raises a plain ValueError
    path = tmp_path / "long.json"
    data = '{"kind": "scenario", "scenario": "iid", "n_steps": 20}'
    path.write_text(f'{{"data": {data}, "seed": {"1" * 4301}}}')
    with pytest.raises(ConfigError, match="4300 digits"):
        load_config(str(path))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: config {path} is not valid JSON")


@pytest.mark.parametrize(
    "sizes, field",
    [
        ({"n_classes": 100000, "dim": 100000}, "n_classes"),
        ({"n_classes": 2, "dim": _MAX_FLOATS // 2 + 1}, "n_classes"),
        ({"n_steps": _MAX_FLOATS // 10**4 + 1, "dim": 10**4}, "n_steps"),
    ],
    ids=["74-GiB-centres", "centres-just-over", "stream-just-over"],
)
def test_oversized_scenario_is_refused_before_allocating(tmp_path, capsys, sizes, field):
    # each of these asks for more than _MAX_FLOATS values; validation refuses
    # it before generate() allocates the class centres or the stream
    raw = scenario_config_dict()
    raw["data"] = {"kind": "scenario", "scenario": "iid", "n_steps": 5, **sizes}
    with pytest.raises(ConfigError, match=f"{field} \\* dim must be at most {_MAX_FLOATS}"):
        config_from_dict(raw)
    assert main(["run", "--config", write_config(tmp_path, raw)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field}={sizes.get(field, 5)}" in captured.err
    assert f"dim={sizes['dim']}" in captured.err


def test_scenario_at_the_size_cap_is_accepted():
    # constructing the config allocates nothing, so the cap itself can be checked
    side = math.isqrt(_MAX_FLOATS)
    config = ScenarioConfig("iid", n_steps=side, n_classes=side, dim=side)
    assert config.n_steps * config.dim == config.n_classes * config.dim == _MAX_FLOATS


@pytest.mark.parametrize("scenario", ["concept-shift", "label-shift"])
def test_shift_at_the_magnitude_cap_runs_without_warnings(scenario):
    # at 1e200 the squared distances across a concept shift overflowed
    data = ScenarioConfig(scenario, n_steps=20, changepoint=10, shift_magnitude=_MAX_SHIFT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = run_experiment(ExperimentConfig(data=data))
    assert table.n_steps == 20
    assert np.isfinite(table.log10_blue).all()


@pytest.mark.parametrize("magnitude", [2, 10**50])
@pytest.mark.parametrize("scenario", ["concept-shift", "label-shift"])
def test_an_integer_shift_magnitude_runs_as_the_same_float(tmp_path, capsys, scenario, magnitude):
    # the label-shift marginals overflowed on 10**50 as a JSON integer
    outputs = []
    for value in (magnitude, float(magnitude)):
        raw = scenario_config_dict()
        raw["data"] = {
            "kind": "scenario",
            "scenario": scenario,
            "n_steps": 30,
            "changepoint": 15,
            "shift_magnitude": value,
        }
        assert main(["run", "--config", write_config(tmp_path, raw)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(cli.CSV_HEADER)


# --- run flags override the JSON fields of the same name ------------------------------


def run_with_captured_config(tmp_path, monkeypatch, raw, flags):
    """The ExperimentConfig that ``run`` hands to run_experiment."""
    seen = []
    table = run_experiment(iid_config(data=ScenarioConfig("iid", n_steps=2)))

    def capture(config):
        seen.append(config)
        return table

    monkeypatch.setattr(cli, "run_experiment", capture)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", write_config(tmp_path, raw), *flags]) == EXIT_OK
    (config,) = seen
    return config


@pytest.mark.parametrize(
    "flags, field, value",
    [
        (["--seed", "9"], "seed", 9),
        (["--output", "flag.csv"], "output", "flag.csv"),
        (["--concept-measure", "same-class"], "concept_measure", "same-class"),
        (["--label-measure", "nearest-object"], "label_measure", "nearest-object"),
        (["--strategy", "mixture-power"], "strategy", "mixture-power"),
        (["--jump-rate", "0.25"], "jump_rate", 0.25),
        (["--reluctance", "0.5"], "reluctance", 0.5),
        (["--shared-randomization"], "shared_randomization", True),
    ],
)
def test_each_run_flag_overrides_its_json_field(tmp_path, monkeypatch, flags, field, value):
    raw = scenario_config_dict(jump_rate=0.01, reluctance=0.2, output="json.csv")
    config = run_with_captured_config(tmp_path, monkeypatch, raw, flags)
    assert config == dataclasses.replace(config_from_dict(raw), **{field: value})


def test_run_without_flags_keeps_the_json_fields(tmp_path, monkeypatch, capsys):
    raw = scenario_config_dict(shared_randomization=True, strategy="mixture-power", jump_rate=0.05)
    config = run_with_captured_config(tmp_path, monkeypatch, raw, [])
    assert config == config_from_dict(raw)
    assert (config.shared_randomization, config.strategy, config.jump_rate) == (
        True,
        "mixture-power",
        0.05,
    )
    assert capsys.readouterr().out.startswith("n,p_concept,")


# --- config-document fuzz ----------------------------------------------------------


def fuzz_base_config():
    """A valid 20-step document that sets every top-level and data field."""
    return {
        "data": {
            "kind": "scenario",
            "scenario": "concept-shift",
            "n_steps": 20,
            "n_classes": 2,
            "dim": 2,
            "changepoint": 10,
            "shift_magnitude": 2.0,
            "label_transition": None,
            "seed": 3,
        },
        "concept_measure": "ratio",
        "label_measure": "same-class",
        "strategy": "simple-jumper",
        "jump_rate": 0.01,
        "reluctance": 0.01,
        "seed": 1,
        "shared_randomization": False,
        "output": "traj.csv",
    }


def test_fuzz_base_config_sets_every_field():
    raw = fuzz_base_config()
    assert set(raw) == {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert set(raw["data"]) == {"kind"} | {
        field.name for field in dataclasses.fields(ScenarioConfig)
    }
    assert config_from_dict(raw).output == "traj.csv"


# no "/" in generated text: an output path must stay inside the run's directory;
# lone surrogates, which the default alphabet leaves out, are drawn too
_fuzz_text = st.text(
    alphabet=st.characters(exclude_categories=(), exclude_characters="/"), max_size=12
)
_fuzz_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    # beyond int64, and beyond what a float holds
    | st.sampled_from([2**63, -(2**63), 10**50, -(10**50), 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | _fuzz_text
)
_fuzz_values = (
    _fuzz_scalars
    | st.lists(_fuzz_scalars, max_size=3)
    | st.dictionaries(_fuzz_text, _fuzz_scalars, max_size=3)
)


@st.composite
def mutated_config(draw):
    raw = fuzz_base_config()
    section = raw if draw(st.booleans()) else raw["data"]
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "add":
        section[draw(_fuzz_text)] = draw(_fuzz_values)
    else:
        key = draw(st.sampled_from(sorted(section)))
        if action == "drop":
            del section[key]
        else:
            section[key] = draw(_fuzz_values)
    return raw


@given(mutated_config())
@settings(max_examples=150, deadline=None)
def test_run_on_a_mutated_config_exits_cleanly(tmp_path_factory, raw):
    workdir = tmp_path_factory.mktemp("fuzz")
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config_path)])
    finally:
        os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
    if code != EXIT_OK:
        assert err.getvalue().startswith(("config error: ", "data error: "))
