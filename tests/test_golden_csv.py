"""Golden outputs: the CSV of fixed experiments, pinned by sha256.

A refactor of the step loop or of betting must leave these bytes unchanged.
The configs cover independent and shared randomization, a run without the
label leg, equal and different concept/label measures, the sleepy-jumper
tag, the mixture-power strategy, and a d=64, K=10 stream long enough for the
nearest-neighbour cache to switch to its screened insert
(``SCREEN_MIN_FLOATS``).
"""

import hashlib

import pytest

from shiftmart import ExperimentConfig, ScenarioConfig, render_trajectory_csv, run_experiment
from shiftmart.conformity import SCREEN_MIN_FLOATS

GOLDEN = {
    "iid-independent": (
        ExperimentConfig(
            ScenarioConfig("iid", n_steps=150),
            "ratio",
            "ratio",
            "simple-jumper",
            jump_rate=0.01,
            seed=11,
        ),
        "c0ea35daca2ea8d71eadc9e4bd3642a53b7370b39d81013b701d6de53f36008f",
    ),
    "iid-shared": (
        ExperimentConfig(
            ScenarioConfig("iid", n_steps=150),
            "ratio",
            "ratio",
            "simple-jumper",
            jump_rate=0.01,
            seed=11,
            shared_randomization=True,
        ),
        "a697a1c4054ce721544e92dd0c28197c38a7df14d37096a3a747e01771d76456",
    ),
    "no-label-leg": (
        ExperimentConfig(
            ScenarioConfig("concept-shift", n_steps=150, changepoint=75),
            "same-class",
            None,
            "simple-jumper",
            seed=12,
        ),
        "3ed050faa38d1970486e4cfd773391a4dc2baff3e1f787120f9d980511452c47",
    ),
    "mixed-measures": (
        ExperimentConfig(
            ScenarioConfig("label-shift", n_steps=150, n_classes=3, dim=3, changepoint=60),
            "same-class",
            "ratio",
            "simple-jumper",
            jump_rate=0.05,
            seed=13,
        ),
        "577851591733b81036d77eeb5fbfce73be0d5967a09b687f91d2e138d4214d6f",
    ),
    "sleepy-shared-mixed": (
        ExperimentConfig(
            ScenarioConfig(
                "markov-labels", n_steps=150, label_transition=((0.1, 0.9), (0.9, 0.1))
            ),
            "nearest-object",
            "ratio-squared-denominator",
            "sleepy-jumper",
            seed=14,
            shared_randomization=True,
        ),
        "aef4ba1209c2ff15b6c15e9dce488381b1943f4664d110ec12efd9cb6d8b0719",
    ),
    "screened-d64-k10": (
        ExperimentConfig(
            ScenarioConfig("iid", n_steps=400, n_classes=10, dim=64),
            "ratio",
            "same-class",
            "simple-jumper",
            seed=15,
        ),
        "4cba090c70bf5c8b78a936797a706229462c40df321ab5b9d016a56300e26036",
    ),
    "mixture-power": (
        ExperimentConfig(
            ScenarioConfig("concept-shift", n_steps=200, changepoint=100),
            "same-class",
            "ratio",
            "mixture-power",
            seed=16,
        ),
        "d6ed2ce8dfb970b1c83bcfcee4e5b829d2e55a019b6db9e7f0dacdd5f5ac2f96",
    ),
}


def test_one_golden_stream_reaches_the_screened_insert():
    scenario = GOLDEN["screened-d64-k10"][0].data
    assert scenario.n_steps * scenario.dim > SCREEN_MIN_FLOATS


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_bytes_are_unchanged(name):
    config, digest = GOLDEN[name]
    csv_text = render_trajectory_csv(run_experiment(config))
    assert hashlib.sha256(csv_text.encode("ascii")).hexdigest() == digest
