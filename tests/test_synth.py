"""Tests for the synthetic scenario generators and uniformity statistics."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from shiftmart import (
    Observation,
    RandomSource,
    ScenarioConfig,
    Stream,
    generate,
    ks_distance,
    ks_uniform_bound,
    pair_chisq,
)
from shiftmart.synth import class_centres


# --- configuration validation -------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="scenario"):
        ScenarioConfig("drift", n_steps=10)
    with pytest.raises(ValueError, match="changepoint"):
        ScenarioConfig("concept-shift", n_steps=10)
    with pytest.raises(ValueError, match="changepoint"):
        ScenarioConfig("concept-shift", n_steps=10, changepoint=11)
    with pytest.raises(ValueError, match="label_transition"):
        ScenarioConfig("markov-labels", n_steps=10)
    # a field that the scenario would ignore is refused
    uniform = ((0.5, 0.5), (0.5, 0.5))
    ignored = [
        ("changepoint", dict(scenario="iid", changepoint=99)),
        ("changepoint", dict(scenario="markov-labels", changepoint=3, label_transition=uniform)),
        ("label_transition", dict(scenario="iid", label_transition=uniform)),
        ("label_transition", dict(scenario="concept-shift", changepoint=3, label_transition=uniform)),
        ("label_transition", dict(scenario="label-shift", changepoint=3, label_transition=uniform)),
        ("shift_magnitude", dict(scenario="iid", shift_magnitude=2.0)),
        ("shift_magnitude", dict(scenario="iid", shift_magnitude=1e99)),
        ("shift_magnitude", dict(scenario="markov-labels", shift_magnitude=0.0, label_transition=uniform)),
    ]
    for field, fields in ignored:
        with pytest.raises(ValueError, match=f"^{field} is for "):
            ScenarioConfig(n_steps=5, **fields)
    with pytest.raises(ValueError, match="sum"):
        ScenarioConfig(
            "markov-labels",
            n_steps=10,
            label_transition=((0.5, 0.4), (0.5, 0.5)),
        )
    with pytest.raises(ValueError, match="dimension"):
        ScenarioConfig("iid", n_steps=10, n_classes=3, dim=2)
    with pytest.raises(ValueError, match="shift_magnitude"):
        ScenarioConfig("concept-shift", n_steps=10, changepoint=5, shift_magnitude=-1.0)


def test_config_stores_normalised_fields():
    config = ScenarioConfig(
        "markov-labels",
        n_steps=np.int64(10),
        label_transition=[[0, 1], np.array([0.5, 0.5])],
        seed=np.int64(4),
    )
    assert config.label_transition == ((0.0, 1.0), (0.5, 0.5))
    assert {type(v) for row in config.label_transition for v in row} == {float}
    assert config.shift_magnitude is None
    assert type(config.n_steps) is type(config.seed) is int
    assert hash(config) == hash(dataclasses.replace(config))
    shifted = ScenarioConfig("label-shift", n_steps=10, changepoint=5, shift_magnitude=3)
    assert shifted.shift_magnitude == 3.0 and type(shifted.shift_magnitude) is float
    assert hash(shifted) == hash(dataclasses.replace(shifted))
    for scenario in ("concept-shift", "label-shift"):
        default = ScenarioConfig(scenario, n_steps=10, changepoint=5)
        assert default == ScenarioConfig(scenario, n_steps=10, changepoint=5, shift_magnitude=2.0)
    for rows in ([0.5, 0.5], "ab", 5):
        with pytest.raises(ValueError, match="label_transition must be a list of rows"):
            ScenarioConfig("markov-labels", n_steps=10, label_transition=rows)
    with pytest.raises(ValueError, match="label_transition must be 2x2"):
        ScenarioConfig("markov-labels", n_steps=10, label_transition=[[1.0], [0.5, 0.5]])


def test_class_centres_sit_at_distance_four():
    means = class_centres(3, 5)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(4.0)


# --- generators ----------------------------------------------------------------


def test_zero_magnitude_concept_shift_degenerates_to_iid():
    iid = generate(ScenarioConfig("iid", n_steps=100), RandomSource(1, "scenario"))
    shifted = generate(
        ScenarioConfig("concept-shift", n_steps=100, changepoint=50, shift_magnitude=0.0),
        RandomSource(1, "scenario"),
    )
    for a, b in zip(iid, shifted):
        assert a.y == b.y
        assert np.array_equal(a.x, b.x)


def test_generation_is_pure_given_config_and_source():
    config = ScenarioConfig("label-shift", n_steps=50, changepoint=25)
    a = generate(config, RandomSource(3, "scenario"))
    b = generate(config, RandomSource(3, "scenario"))
    for obs_a, obs_b in zip(a, b):
        assert obs_a.y == obs_b.y and np.array_equal(obs_a.x, obs_b.x)


def test_concept_shift_translates_class_conditionals():
    config = ScenarioConfig(
        "concept-shift", n_steps=4000, changepoint=2000, shift_magnitude=2.0
    )
    stream = generate(config, RandomSource(7, "scenario"))
    pre = np.array([o.x for o in stream[:2000]])
    post = np.array([o.x for o in stream[2000:]])
    pre_labels = np.array([o.y for o in stream[:2000]])
    post_labels = np.array([o.y for o in stream[2000:]])
    direction = np.full(config.dim, 1.0 / np.sqrt(config.dim))
    for label in range(config.n_classes):
        delta = post[post_labels == label].mean(axis=0) - pre[pre_labels == label].mean(axis=0)
        assert np.linalg.norm(delta - 2.0 * direction) < 0.25
    # label marginals unchanged: both halves close to uniform
    assert abs(pre_labels.mean() - post_labels.mean()) < 0.1


def test_label_shift_keeps_class_conditionals_fixed():
    config = ScenarioConfig(
        "label-shift", n_steps=4000, changepoint=2000, shift_magnitude=2.0
    )
    stream = generate(config, RandomSource(11, "scenario"))
    labels = np.array([o.y for o in stream])
    objects = np.array([o.x for o in stream])
    # marginals skew towards class 0 after the changepoint
    assert labels[:2000].mean() == pytest.approx(0.5, abs=0.1)
    assert labels[2000:].mean() < 0.25
    # per-class object means agree before and after within Monte Carlo noise
    for label in range(config.n_classes):
        pre = objects[:2000][labels[:2000] == label]
        post = objects[2000:][labels[2000:] == label]
        tol = 3.0 * np.sqrt(1.0 / len(pre) + 1.0 / len(post))
        assert np.abs(pre.mean(axis=0) - post.mean(axis=0)).max() < tol


def test_markov_labels_follow_the_transition_matrix():
    config = ScenarioConfig(
        "markov-labels",
        n_steps=5000,
        label_transition=((0.01, 0.99), (0.5, 0.5)),
    )
    stream = generate(config, RandomSource(13, "scenario"))
    labels = [o.y for o in stream]
    after_zero = [b for a, b in zip(labels, labels[1:]) if a == 0]
    assert np.mean(after_zero) == pytest.approx(0.99, abs=0.02)


def test_objects_are_conditionally_gaussian_around_their_class_mean():
    config = ScenarioConfig("iid", n_steps=3000, n_classes=2, dim=2)
    stream = generate(config, RandomSource(17, "scenario"))
    means = class_centres(2, 2)
    for label in range(2):
        xs = np.array([o.x for o in stream if o.y == label])
        assert np.abs(xs.mean(axis=0) - means[label]).max() < 0.15
        assert np.abs(xs.std(axis=0) - 1.0).max() < 0.1


# sha256 of the labels (int64) and objects (float64) of one 300-step stream
# per scenario, seed 5; a faster generator must reproduce every bit
_STREAM_PINS = {
    "iid": (
        ScenarioConfig("iid", n_steps=300, n_classes=3, dim=3),
        "da7213eecfa2e22c76428cd1e3c0a64a335ec9c4842047a0fe32dba71b004f15",
    ),
    "concept-shift": (
        ScenarioConfig("concept-shift", n_steps=300, changepoint=150),
        "a38e006fecdb179b9ad879cec6e33e039c804bb3560908bd650c69d2008fee7e",
    ),
    "label-shift": (
        ScenarioConfig(
            "label-shift", n_steps=300, n_classes=4, dim=4, changepoint=100, shift_magnitude=1.5
        ),
        "c326186e50a72f4bff20591f96411be7fa2dda83129f620ed73d6891e36d6812",
    ),
    "markov-labels": (
        ScenarioConfig(
            "markov-labels",
            n_steps=300,
            n_classes=3,
            dim=3,
            label_transition=((0.1, 0.6, 0.3), (0.7, 0.2, 0.1), (1 / 3, 1 / 3, 1 / 3)),
        ),
        "a3e51d141a5cfe7f9f34aa38d22b09551231d3e547888d24c2b49f0de4c1f77e",
    ),
}


@pytest.mark.parametrize("scenario", sorted(_STREAM_PINS))
def test_streams_keep_their_bits(scenario):
    config, pin = _STREAM_PINS[scenario]
    digest = hashlib.sha256()
    for obs in generate(config, RandomSource(5, "scenario")):
        digest.update(np.int64(obs.y).tobytes())
        digest.update(np.asarray(obs.x, dtype=np.float64).tobytes())
    assert digest.hexdigest() == pin


def test_streams_are_checked_arrays():
    stream = generate(ScenarioConfig("iid", n_steps=5, dim=3), RandomSource(1, "scenario"))
    assert isinstance(stream, Stream) and len(stream) == 5
    assert stream.x.shape == (5, 3) and stream.x.dtype == np.float64
    assert stream.y.shape == (5,) and stream.y.dtype == np.int64
    assert not stream.x.flags.writeable and not stream.y.flags.writeable
    # both filled arrays are frozen too, so the stream keeps them
    for array in (stream.x, stream.y):
        assert array.base.base is None and not array.base.flags.writeable
    assert all(isinstance(o, Observation) for o in stream)
    # and a slice of the stream shares them
    tail = stream[2:]
    assert np.shares_memory(tail.x, stream.x) and np.shares_memory(tail.y, stream.y)


def test_generate_makes_no_copy_of_the_stream():
    config = ScenarioConfig("iid", n_steps=1000, n_classes=10, dim=256)
    # a process's first source imports numpy.random, which is not the stream's memory
    source = RandomSource(2, "scenario")
    tracemalloc.start()
    try:
        stream = generate(config, source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the filled array and small per-step temporaries; a copy would double it
    assert peak < 1.5 * stream.x.nbytes


# --- uniformity reports ---------------------------------------------------------


def test_ks_distance_of_ideal_grid():
    n = 50
    grid = (np.arange(1, n + 1) - 0.5) / n
    assert ks_distance(grid) <= 1.0 / (2 * n) + 1e-15


def test_ks_distance_of_point_mass():
    assert ks_distance([0.5] * 40) == pytest.approx(0.5)


def test_ks_distance_of_large_uniform_sample():
    draws = RandomSource(19, "tau").uniform_draws(10**5)
    assert ks_distance(draws) < ks_uniform_bound(10**5)


def test_ks_distance_rejects_empty():
    with pytest.raises(ValueError):
        ks_distance([])


def test_pair_chisq_on_independent_uniforms():
    pairs = RandomSource(23, "tau").uniform_draws(20000).reshape(-1, 2)
    stat, df = pair_chisq(pairs)
    assert df == 99
    assert stat < 160.0  # far below for genuinely uniform pairs


def test_pair_chisq_detects_dependence():
    u = RandomSource(29, "tau").uniform_draws(10000)
    pairs = np.column_stack([u, u])
    stat, _ = pair_chisq(pairs)
    assert stat > 1000.0


@pytest.mark.parametrize("shape", [(10,), (10, 3), (10, 1), (2, 5, 2)])
def test_pair_chisq_refuses_a_shape_other_than_n_by_2(shape):
    with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
        pair_chisq(np.full(shape, 0.5))
