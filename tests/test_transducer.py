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
    nn_scores,
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


def test_p_conformal_refuses_nan_scores_and_arrays_that_are_not_1d():
    # NaN used to rank as 0.0, and a 2-D list was ranked flattened
    with pytest.raises(ValueError, match="got NaN at index 0"):
        p_conformal([np.nan, np.nan], 0.5)
    with pytest.raises(ValueError, match="got NaN at index 1"):
        p_conformal([1.0, np.nan, 2.0], 0.5)
    for scores, shape in (([[1.0, 2.0], [3.0, 4.0]], r"\(2, 2\)"), (5.0, r"\(\)")):
        with pytest.raises(ValueError, match=f"1-D array, got shape {shape}"):
            p_conformal(scores, 0.5)


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
    """At every step that the certified stage leaves to the exact path, the
    class means that ``interleave`` ranks are those of ``class_means`` on the
    label-measure scores of the prefix, bit for bit."""
    name, points, labels = case
    stream = make_stream(points, labels)
    ranked = {}
    rank = transducer._rank_class_mean

    def recording_rank(means, counts, y, tau):
        ranked[sum(counts) - 1] = (list(means), list(counts))
        return rank(means, counts, y, tau)

    monkeypatch.setattr(transducer, "_rank_class_mean", recording_rank)
    for label in NN_VARIANTS:
        ranked.clear()
        interleave(stream, "same-class", label, *_sources(5, False, False))
        cache = NnCache()
        for k, obs in enumerate(stream):
            cache.insert(obs)
            if k in ranked:
                means, counts = class_means(score_nn(label, cache), cache.labels)
                assert ranked[k][0] == means.tolist(), f"{name}: {label}, step {k}"
                assert ranked[k][1] == counts.tolist(), f"{name}: {label}, step {k}"


def _tied_stream():
    """Class 1 is class 0's integer lattice points shifted by (1000, 0), the
    two interleaved, so under ``same-class`` the two class means tie exactly
    at every step that ends a pair, to the last one."""
    rng = np.random.default_rng(47)
    cells = rng.permutation(900)[:150]
    lattice = np.column_stack((cells // 30, cells % 30)).astype(float)
    points = np.empty((300, 2))
    points[0::2], points[1::2] = lattice, lattice + [1000.0, 0.0]
    return "tied lattice", points, np.tile([0, 1], 150)


def _prefix_counts(means, counts, y):
    """The rows whose class mean is below class ``y``'s, and equal to it."""
    return counts[means < means[y]].sum(), counts[means == means[y]].sum()


@pytest.mark.parametrize("case", [*_exactness_streams(), _tied_stream()], ids=lambda case: case[0])
def test_certified_ranks_are_those_of_the_class_means_of_the_prefix(case):
    """At every step the certified stage decides, its counts of the rows
    whose class mean is below the newest row's, and equal to it, are those
    of ``class_means`` on the label-measure scores of the prefix."""
    name, points, labels = case
    stream = make_stream(points, labels)
    cache = NnCache()
    rows, d_same, d_other = cache.extend(stream)
    certified = {
        label: transducer._certified_ranks(rows, nn_scores(label, d_same, d_other), cache.labels)
        for label in NN_VARIANTS
    }
    prefix = NnCache()
    for k, obs in enumerate(stream):
        prefix.insert(obs)
        for label, (less, equal, undecided) in certified.items():
            if k not in undecided:
                means, counts = class_means(score_nn(label, prefix), prefix.labels)
                expected = _prefix_counts(means, counts, prefix.labels[k])
                assert (less[k], equal[k]) == expected, f"{name}: {label}, step {k}"


def test_interleave_ranks_exact_ties_late_in_the_stream():
    name, points, labels = _tied_stream()
    stream = make_stream(points, labels)
    cache = NnCache()
    rows, d_same, d_other = cache.extend(stream)
    _, _, undecided = transducer._certified_ranks(rows, nn_scores("same-class", d_same, d_other), cache.labels)
    # every step that ends a pair is a tie, the last step included
    assert set(range(3, len(stream), 2)) <= set(undecided.tolist())
    steps = list(_reference_steps(stream))
    result = interleave(stream, "ratio", "same-class", *_sources(13, False, False))
    _, _, p_label = _reference_pvalues(steps, "ratio", "same-class", *_sources(13, False, False))
    assert np.array_equal(result.p_label, p_label)


@pytest.mark.parametrize("shape, seeds", [((1000, 2, 2), range(4)), ((2000, 256, 10), range(2))])
def test_certified_ranks_leave_only_early_steps_undecided_on_iid_streams(shape, seeds):
    """On IID streams only the first steps go to the exact path: those that
    hold an infinite score before a second class arrives, and early ties."""
    n, dim, n_classes = shape
    for seed in seeds:
        stream = generate(ScenarioConfig("iid", n, n_classes, dim), RandomSource(seed, "scenario"))
        cache = NnCache()
        rows, d_same, d_other = cache.extend(stream)
        for label in NN_VARIANTS:
            scores = nn_scores(label, d_same, d_other)
            _, _, undecided = transducer._certified_ranks(rows, scores, cache.labels)
            assert undecided.size == 0 or undecided[-1] <= 64, f"{shape}, seed {seed}: {label}"


@st.composite
def scored_logs(draw):
    """An ``NnCache.extend`` log with scores drawn to be hard to rank: small
    integers, neighbouring doubles, subnormals, values near the largest
    double, infinities, or decimals whose sums round."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cache = NnCache()
    rows, _, _ = cache.extend(make_stream(rng.normal(size=(n, 2)), rng.integers(0, 4, size=n)))
    pool = draw(
        st.sampled_from(
            [
                [0.0, 1.0, 2.0],
                [1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 1.0 - 2.0**-53],
                [0.0, 5e-324, 1e-310, 2.2250738585072014e-308],
                [1.0, 1e308, 1.7e308, np.inf],
                [0.1, 0.2, 0.3, 0.30000000000000004, 0.7],
            ]
        )
    )
    return rows, rng.choice(pool, size=rows.size), cache.labels


@given(scored_logs())
@settings(max_examples=100, deadline=None)
def test_certified_ranks_hold_on_scores_that_are_hard_to_rank(log):
    rows, scores, classes = log
    less, equal, undecided = transducer._certified_ranks(rows, scores, classes)
    current: list[float] = []
    for i, score in zip(rows.tolist(), scores.tolist()):
        if i < len(current):
            current[i] = score
            continue
        k = len(current)
        current.append(score)
        if k not in undecided:
            means, counts = class_means(current, classes[: k + 1])
            assert (less[k], equal[k]) == _prefix_counts(means, counts, classes[k]), f"step {k}"


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
