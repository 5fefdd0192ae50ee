"""Tests for the p-value transducers and the two-leg interleaving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmart import (
    NN_VARIANTS,
    NnCache,
    RandomSource,
    class_means,
    ScenarioConfig,
    Stream,
    generate,
    interleave,
    label_average,
    p_conformal,
    p_label_conditional,
    score_nn,
)
from shiftmart import transducer
from shiftmart.conformity import _BLOCK, SCREEN_MIN_FLOATS

from oracles import p_conformal_recount, p_label_conditional_recount
from test_conformity import make_stream, screened_streams


# --- single-step transducers -------------------------------------------------


def test_singleton_prefix_returns_tau():
    assert p_conformal([5.0], 0.3) == 0.3


def test_conformal_hand_example():
    assert p_conformal([1.0, 2.0, 2.0], 0.25) == 0.5


def test_conformal_tau_endpoints_bracket():
    assert p_conformal([1.0, 2.0, 2.0], 1.0) == 1.0
    assert p_conformal([1.0, 2.0, 2.0], 0.0) == 1 / 3


def test_label_conditional_singleton_class_returns_tau():
    assert p_label_conditional([9.0, 8.0, 7.0, 1.0], [0, 0, 0, 1], 0.5) == 0.5


def test_label_conditional_hand_example():
    assert p_label_conditional([1.0, 2.0, 2.0], [0, 0, 0], 0.5) == 2 / 3


def test_label_conditional_zero_attainable_only_at_tau_zero():
    # newest class-0 score is the strict minimum of its class
    assert p_label_conditional([5.0, 99.0, 3.0], [0, 1, 0], 0.0) == 0.0
    assert p_label_conditional([5.0, 99.0, 3.0], [0, 1, 0], 0.25) > 0.0


def test_infinite_scores_are_ranked():
    assert p_conformal([np.inf, 1.0, np.inf], 0.5) == (1 + 0.5 * 2) / 3


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        p_conformal([], 0.5)
    with pytest.raises(ValueError, match="non-empty"):
        p_label_conditional([], [], 0.5)
    for tau in (1.5, -0.5, True, float("nan"), None):
        with pytest.raises(ValueError, match="tau"):
            p_conformal([1.0], tau)
        with pytest.raises(ValueError, match="tau"):
            p_label_conditional([1.0], [0], tau)
    with pytest.raises(ValueError):
        p_label_conditional([1.0, 2.0], [0], 0.5)


@st.composite
def scored_prefixes(draw):
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # small integer scores force plenty of exact ties
    scores = rng.integers(0, 4, size=n).astype(float)
    if draw(st.booleans()):
        scores[rng.integers(0, n)] = np.inf
    labels = rng.integers(0, 3, size=n)
    tau = draw(st.floats(0.0, 1.0, allow_nan=False))
    return scores, labels, tau


@given(scored_prefixes())
@settings(max_examples=100, deadline=None)
def test_transducers_match_naive_recount(case):
    scores, labels, tau = case
    assert p_conformal(scores, tau) == p_conformal_recount(scores, tau)
    assert p_label_conditional(scores, labels, tau) == p_label_conditional_recount(
        scores, labels, tau
    )


@given(scored_prefixes(), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_pvalues_in_range_and_monotone_in_tau(case, other_tau):
    scores, labels, tau = case
    lo, hi = sorted([tau, other_tau])
    for func in (
        lambda t: p_conformal(scores, t),
        lambda t: p_label_conditional(scores, labels, t),
    ):
        p_lo, p_hi = func(lo), func(hi)
        assert 0.0 <= p_lo <= p_hi <= 1.0


# --- interleaving ------------------------------------------------------------


def test_all_labels_distinct_forces_concept_leg_to_tau():
    stream = make_stream([0.0, 4.0, 9.0], [0, 1, 2])
    expected = RandomSource(3, "tau").uniform_draws(3)
    result = interleave(
        stream, "ratio", "ratio", RandomSource(3, "tau"), RandomSource(3, "tau-prime")
    )
    assert np.array_equal(result.p_concept, expected)


def test_all_labels_equal_forces_label_leg_to_tau_prime():
    stream = make_stream([0.0, 4.0, 9.0], [1, 1, 1])
    expected = RandomSource(5, "tau-prime").uniform_draws(3)
    result = interleave(
        stream, "ratio", "ratio", RandomSource(5, "tau"), RandomSource(5, "tau-prime")
    )
    assert np.array_equal(result.p_label, expected)


def test_interleave_rejects_empty_stream_and_bad_measures():
    with pytest.raises(ValueError, match="empty"):
        interleave(
            Stream(np.empty((0, 1)), []), "ratio", "ratio", RandomSource(1, "a"), RandomSource(1, "b")
        )
    with pytest.raises(ValueError, match="variant"):
        interleave(
            make_stream([0.0], [0]), "bogus", "ratio", RandomSource(1, "a"), RandomSource(1, "b")
        )


def test_interleave_names_a_missing_tau_source_before_inserting(monkeypatch):
    def refused(cache, stream):
        raise AssertionError("the stream was inserted")

    monkeypatch.setattr(NnCache, "extend", refused)
    stream = make_stream([0.0, 1.0], [0, 1])
    src = RandomSource(1, "a")
    for sources, name in (((src, None), "tau_prime_src"), ((None, src), "tau_src"), ((None, None), "tau_src")):
        with pytest.raises(ValueError, match=f"no tau source: {name} is None"):
            interleave(stream, "ratio", "ratio", *sources)
    # without the label leg, tau_prime_src is not needed, but tau_src is
    with pytest.raises(ValueError, match="tau_src is None"):
        interleave(stream, "ratio", None, None, None)


def test_interleave_records_provenance_and_lengths():
    stream = generate(ScenarioConfig("iid", n_steps=20), RandomSource(2, "scenario"))
    result = interleave(
        stream, "ratio", "same-class", RandomSource(2, "tau"), RandomSource(2, "tau-prime")
    )
    assert len(result) == 20
    assert result.concept_provenance == "2:tau"
    assert result.label_provenance == "2:tau-prime"
    assert np.all((result.p_concept >= 0) & (result.p_concept <= 1))
    assert np.all((result.p_label >= 0) & (result.p_label <= 1))


def test_shared_source_mode_draws_concept_leg_first():
    stream = make_stream([0.0, 4.0], [0, 1])
    shared = RandomSource(9, "shared")
    result = interleave(stream, "ratio", "ratio", shared, shared)
    replay = RandomSource(9, "shared")
    draws = [replay.uniform_draw() for _ in range(4)]
    # labels are all distinct, so the concept leg returns its tau draws
    assert result.p_concept[0] == draws[0]
    assert result.p_concept[1] == draws[2]
    assert result.concept_provenance == result.label_provenance


# --- incremental ranks against the per-step transducers ----------------------


def _exactness_streams():
    rng = np.random.default_rng(41)
    n = 400
    yield "iid (d=2, K=2)", rng.normal(size=(n, 2)), rng.integers(0, 2, size=n)
    # 12 distinct points: zero distances give infinite scores, clamped class
    # means and ties
    atoms = rng.normal(size=(12, 2))
    yield "duplicates", atoms[rng.integers(0, 12, size=n)], rng.integers(0, 2, size=n)
    yield "lattice", rng.integers(0, 4, size=(n, 2)).astype(float), rng.integers(0, 3, size=n)
    labels = rng.integers(0, 2, size=n)
    labels[100] = 7
    labels[350:] = rng.integers(2, 5, size=n - 350)
    yield "singleton and late classes", rng.normal(size=(n, 3)), labels
    assert n * 64 >= 2 * SCREEN_MIN_FLOATS
    yield "iid (d=64, K=10)", rng.normal(size=(n, 64)), rng.integers(0, 10, size=n)


def _reference_steps(stream):
    """Per step: the labels and, per measure, the raw and class-averaged scores."""
    cache = NnCache()
    for obs in stream:
        cache.insert(obs)
        labels = cache.labels.copy()
        raw = {m: score_nn(m, cache) for m in NN_VARIANTS}
        yield labels, raw, {m: label_average(raw[m], labels) for m in NN_VARIANTS}


def _reference_pvalues(steps, concept, label, tau_src, tau_prime_src, tau_black_src):
    p_black, p_concept, p_label = [], [], []
    for labels, raw, averaged in steps:
        if tau_black_src is not None:
            tau_black = tau_black_src.uniform_draw()
        tau = tau_src.uniform_draw()
        if label is not None:
            tau_prime = tau_prime_src.uniform_draw()
        if tau_black_src is not None:
            p_black.append(p_conformal(raw[concept], tau_black))
        p_concept.append(p_label_conditional(raw[concept], labels, tau))
        if label is not None:
            p_label.append(p_conformal(averaged[label], tau_prime))
    return p_black, p_concept, p_label


def _sources(seed, shared, with_black):
    if shared:
        src = RandomSource(seed, "shared")
        return src, src, src if with_black else None
    black = RandomSource(seed, "tau-black") if with_black else None
    return RandomSource(seed, "tau"), RandomSource(seed, "tau-prime"), black


@pytest.mark.parametrize("case", list(_exactness_streams()), ids=lambda case: case[0])
def test_interleave_matches_the_per_step_transducers(case):
    name, points, labels = case
    stream = make_stream(points, labels)
    steps = list(_reference_steps(stream))
    for concept in NN_VARIANTS:
        for label in NN_VARIANTS + (None,):
            for shared in (False, True):
                for with_black in (False, True):
                    context = f"{name}: {concept}/{label}, shared={shared}, black={with_black}"
                    result = interleave(stream, concept, label, *_sources(7, shared, with_black))
                    p_black, p_concept, p_label = _reference_pvalues(
                        steps, concept, label, *_sources(7, shared, with_black)
                    )
                    assert np.array_equal(result.p_concept, p_concept), context
                    if label is None:
                        assert result.p_label is None, context
                    else:
                        assert np.array_equal(result.p_label, p_label), context
                    if with_black:
                        assert np.array_equal(result.p_black, p_black), context
                    else:
                        assert result.p_black is None, context


@pytest.mark.parametrize("case", list(_exactness_streams()), ids=lambda case: case[0])
def test_interleave_ranks_the_class_means_of_the_prefix(monkeypatch, case):
    """At every step, the class means that ``interleave`` ranks are those of
    ``class_means`` on the label-measure scores of the prefix, bit for bit."""
    name, points, labels = case
    stream = make_stream(points, labels)
    ranked = []
    rank = transducer._rank_class_mean

    def recording_rank(means, counts, y, tau):
        ranked.append((list(means), list(counts)))
        return rank(means, counts, y, tau)

    monkeypatch.setattr(transducer, "_rank_class_mean", recording_rank)
    for label in NN_VARIANTS:
        ranked.clear()
        interleave(stream, "same-class", label, *_sources(5, False, False))
        cache = NnCache()
        for k, obs in enumerate(stream):
            cache.insert(obs)
            means, counts = class_means(score_nn(label, cache), cache.labels)
            assert ranked[k][0] == means.tolist(), f"{name}: {label}, step {k}"
            assert ranked[k][1] == counts.tolist(), f"{name}: {label}, step {k}"


def test_interleave_ranks_a_class_sum_past_the_largest_double_without_a_warning():
    # the ratio scores of class 0 are about 1e308 each, so its sum overflows;
    # the clamp used to double 1e308 and warn
    stream = make_stream([[0.0], [1e-160], [1e148], [2e148]], [0, 0, 1, 1])
    steps = list(_reference_steps(stream))
    result = interleave(stream, "same-class", "ratio", *_sources(3, False, True))
    p_black, p_concept, p_label = _reference_pvalues(
        steps, "same-class", "ratio", *_sources(3, False, True)
    )
    assert np.array_equal(result.p_label, p_label)
    assert np.array_equal(result.p_concept, p_concept)


def _batch_edge_streams():
    rng = np.random.default_rng(43)
    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 25 * _BLOCK + 1):
        yield f"length {n}", rng.normal(size=(n, 2)), rng.integers(0, 2, size=n), None
    middle = _BLOCK + _BLOCK // 2
    labels = rng.integers(0, 2, size=3 * _BLOCK)
    labels[middle] = 2
    yield "new class in mid-batch", rng.normal(size=(labels.size, 2)), labels, None
    # Repeating a point of class 0 gives both copies d_same = 0, so infinite
    # scores and a clamped class sum from then on. Class 1 is tight and far
    # off, so its scores dwarf those of class 0: the clamped mean of class 0
    # ranks below class 1, the unclamped one above it.
    labels = rng.integers(0, 2, size=3 * _BLOCK)
    labels[:2] = 0, 1
    points = rng.normal(size=(labels.size, 2))
    points[labels == 1] = 0.01 * points[labels == 1] + 5.0
    labels[middle] = 0
    points[middle] = points[0]
    yield "infinite class sum in mid-batch", points, labels, middle


@pytest.mark.parametrize("case", list(_batch_edge_streams()), ids=lambda case: case[0])
def test_interleave_batches_match_the_per_step_transducers(case):
    name, points, labels, first_infinite = case
    stream = make_stream(points, labels)
    steps = list(_reference_steps(stream))
    for concept, other in (("same-class", "ratio"), ("ratio", "nearest-object")):
        if first_infinite is not None:
            finite = [
                np.isfinite(np.bincount(y, weights=raw[measure])).all()
                for y, raw, _ in steps
                for measure in (concept, other)
            ]
            assert finite.index(False) // 2 == first_infinite
        for label in (concept, other):
            context = f"{name}: {concept}/{label}"
            result = interleave(stream, concept, label, *_sources(11, False, True))
            p_black, p_concept, p_label = _reference_pvalues(
                steps, concept, label, *_sources(11, False, True)
            )
            assert np.array_equal(result.p_concept, p_concept), context
            assert np.array_equal(result.p_label, p_label), context
            assert np.array_equal(result.p_black, p_black), context


@given(
    screened_streams(),
    st.sampled_from(NN_VARIANTS),
    st.sampled_from(NN_VARIANTS),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_interleave_matches_the_recounts_where_the_cache_screens(case, concept, label, seed):
    context, points, labels, _ = case
    context = f"{context}: {concept}/{label}, seed={seed}"
    stream = make_stream(points, labels)
    result = interleave(stream, concept, label, *_sources(seed, False, True))
    tau_src, tau_prime_src, tau_black_src = _sources(seed, False, True)
    cache = NnCache()
    for k, obs in enumerate(stream):
        cache.insert(obs)
        raw = score_nn(concept, cache)
        averaged = label_average(score_nn(label, cache), cache.labels)
        tau_black, tau, tau_prime = (
            src.uniform_draw() for src in (tau_black_src, tau_src, tau_prime_src)
        )
        assert result.p_black[k] == p_conformal_recount(raw, tau_black), f"{context}, step {k}"
        assert result.p_concept[k] == p_label_conditional_recount(
            raw, cache.labels, tau
        ), f"{context}, step {k}"
        assert result.p_label[k] == p_conformal_recount(averaged, tau_prime), f"{context}, step {k}"
