"""Tests for the nearest-neighbour cache and the conformity score variants."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftmart import (
    NN_VARIANTS,
    NnCache,
    Observation,
    RandomSource,
    ScenarioConfig,
    Stream,
    generate,
    label_average,
    score_nn,
)
from shiftmart.conformity import _BLOCK, SCREEN_MIN_FLOATS

from oracles import nn_distances_bruteforce
from test_acceptance import _screened_streams


def make_stream(points, labels):
    return [Observation(np.atleast_1d(np.asarray(x, float)), y) for x, y in zip(points, labels)]


def fill_cache(stream):
    cache = NnCache()
    for obs in stream:
        cache.insert(obs)
    return cache


# --- cache maintenance ------------------------------------------------------


def test_insert_into_empty_cache_gives_infinite_minima():
    cache = fill_cache(make_stream([0.0], [0]))
    assert cache.n == 1
    assert cache.d_same[0] == np.inf
    assert cache.d_other[0] == np.inf


def test_second_same_label_point_updates_both_sides():
    cache = fill_cache(make_stream([0.0, 1.0], [0, 0]))
    assert np.array_equal(cache.d_same, [1.0, 1.0])
    assert np.array_equal(cache.d_other, [np.inf, np.inf])


def test_cache_matches_bruteforce_on_random_stream():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(200, 5))
    labels = rng.integers(0, 3, size=200)
    cache = fill_cache([Observation(x, int(y)) for x, y in zip(points, labels)])
    d_same, d_other = nn_distances_bruteforce(points, labels)
    assert np.array_equal(cache.d_same, d_same)
    assert np.array_equal(cache.d_other, d_other)


def test_dimension_mismatch_is_rejected():
    cache = fill_cache(make_stream([[0.0, 0.0]], [0]))
    with pytest.raises(ValueError, match="dimension"):
        cache.insert(Observation(np.zeros(3), 0))


def test_extend_stores_an_overflowing_distance_as_inf_without_a_warning():
    # the square of 2e160 overflows, in the exact formula as in a full scan
    cache = NnCache()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cache.extend(make_stream([1e160, -1e160], [0, 1]))
    assert np.array_equal(cache.d_other, [np.inf, np.inf])
    assert np.array_equal(cache.d_other, oracle_minima([[1e160], [-1e160]], [0, 1])[1])


def test_extend_refuses_a_duck_typed_label_that_is_not_an_integer():
    stream = [SimpleNamespace(x=np.array([float(i)]), y=y) for i, y in enumerate((1, 1.5, True))]
    cache = NnCache()
    with pytest.raises(ValueError, match="label must be an integer, got 1.5"):
        cache.extend(stream)
    assert cache.n == 0 and cache.dim is None


def assert_same_state(cache, reference, context):
    assert cache.n == reference.n, context
    assert np.array_equal(cache.labels, reference.labels), context
    assert np.array_equal(cache.d_same, reference.d_same), context
    assert np.array_equal(cache.d_other, reference.d_other), context


def extend_in_lockstep(cache, stream, reference, context):
    """Extend ``cache`` with ``stream`` and insert the same stream one point at
    a time into ``reference``; return the log of ``extend``. Step by step, the
    log must hold the rows whose minima the insertion lowered, ascending, then
    the new row, and the logged minima must be the reference's at those rows."""
    first = cache.n
    log = rows, d_same, d_other = cache.extend(stream)
    assert len(rows) == len(d_same) == len(d_other), context
    end = 0
    for k, obs in enumerate(stream):
        # a step ends at its new row, which no earlier step can log
        begin, end = end, int(np.flatnonzero(rows == first + k)[0]) + 1
        same, other = reference.d_same.copy(), reference.d_other.copy()
        reference.insert(obs)
        lowered = (reference.d_same[:-1] != same) | (reference.d_other[:-1] != other)
        expected = np.append(np.flatnonzero(lowered), reference.n - 1)
        assert np.array_equal(rows[begin:end], expected), f"{context}, step {k}"
        assert np.array_equal(d_same[begin:end], reference.d_same[expected]), f"{context}, step {k}"
        assert np.array_equal(d_other[begin:end], reference.d_other[expected]), f"{context}, step {k}"
    assert end == len(rows), context
    assert_same_state(cache, reference, context)
    return log


def block_streams():
    rng = np.random.default_rng(23)
    for n, d in ((512, 64), (200, 256), (1200, 2)):
        for n_classes in (2, 10):
            families = _screened_streams(rng, n, d, n_classes)
            if d == 2:
                families = {name: families[name] for name in ("iid", "duplicates")}
            for name, (points, labels) in families.items():
                yield f"{name} (n={n}, d={d}, K={n_classes})", points, labels


def test_extend_matches_one_at_a_time_inserts_and_the_full_scan():
    checked = 0
    for context, points, labels in block_streams():
        n, d = points.shape
        stream = make_stream(points, labels)
        # a first call of ``head`` points makes a block of the second call
        # start one row below the first full block that is screened, so it
        # straddles the threshold; the second call's length is not a
        # multiple of the block
        threshold_rows = -(-SCREEN_MIN_FLOATS // (_BLOCK * d))
        head = (threshold_rows - 1) % _BLOCK
        assert (n - head) % _BLOCK
        cache, reference = NnCache(), NnCache()
        logs = [
            extend_in_lockstep(cache, stream[:head], reference, context),
            extend_in_lockstep(cache, stream[head:], reference, context),
        ]
        # the two calls log what one call on the whole stream logs
        for got, want in zip(zip(*logs), NnCache().extend(stream)):
            assert np.array_equal(np.concatenate(got), want), context
        d_same, d_other = nn_distances_bruteforce(points, labels)
        assert np.array_equal(cache.d_same, d_same), context
        assert np.array_equal(cache.d_other, d_other), context
        checked += 1
    assert checked == 36


def test_screen_marks_every_pair_that_can_change_a_minimum(monkeypatch):
    """In each screened block, a pair whose exact distance is below its stored
    row's minimum of its kind at the start of the block, or attains the new
    point's smallest distance of its kind over the stored rows, is a
    candidate."""
    calls = []
    screen = NnCache._screen

    def recording_screen(cache, n0, n, out):
        screen(cache, n0, n, out)
        calls.append((out.copy(), cache._x[:n].copy(), cache._labels[:n].copy(),
                      cache._nearest[:, :n0].copy()))

    monkeypatch.setattr(NnCache, "_screen", recording_screen)
    rng = np.random.default_rng(29)
    streams = {}
    for n, d in ((160, 2), (96, 8)):
        # the last full block is screened
        assert _BLOCK * (n - _BLOCK) * d >= SCREEN_MIN_FLOATS
        for name, stream in _screened_streams(rng, n, d, 3).items():
            streams[f"{name} (d={d})"] = stream
    # the largest stored squared norm is far above a typical one
    far = rng.normal(size=(96, 8))
    far[0] *= 10
    streams["one far row (d=8)"] = far, rng.integers(0, 3, size=96)
    for context, (points, labels) in streams.items():
        calls.clear()
        NnCache().extend(Stream(points, labels))
        assert calls, context
        for mask, x, ids, start in calls:
            n0 = start.shape[1]
            with np.errstate(over="ignore"):
                dist = np.sqrt(((x[n0:, None] - x[:n0]) ** 2).sum(axis=2))
            kind = (ids[n0:, None] != ids[:n0]).astype(np.intp)
            needed = dist < start[kind, np.arange(n0)]
            for k in (0, 1):
                of_kind = np.where(kind == k, dist, np.inf)
                needed |= (kind == k) & (of_kind == of_kind.min(axis=1, keepdims=True))
            missed = np.count_nonzero(needed & ~mask)
            assert not missed, f"{context}, block at {n0}: {missed} pairs missed"


def test_extend_stops_at_a_mismatched_dimension_mid_block():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(46, 64))
    # labels 8 and 3 first appear in the stream that is refused
    labels = np.array([5] * 6 + [8, 3, 5] * 13 + [3])
    stream = make_stream(points, labels)
    bad = 2 * _BLOCK + 8
    stream[bad] = Observation(np.zeros(63), 0)
    # an empty cache keeps no dimension from a refused first call
    cache = NnCache()
    with pytest.raises(ValueError, match="dimension"):
        cache.extend(stream)
    assert cache.n == 0 and cache.dim is None
    cache.extend(stream[bad : bad + 1])
    assert cache.dim == 63
    # a filled cache keeps its rows, minima and class ids
    head = 5
    cache, reference = fill_cache(stream[:head]), fill_cache(stream[:head])
    with pytest.raises(ValueError, match="dimension"):
        cache.extend(stream[head:])
    assert cache.dim == 64
    assert_same_state(cache, reference, "after the mismatch")
    kept = [*range(head), head + 2]
    cache.insert(stream[head + 2])
    assert cache.labels[head] == 1  # label 3, the first new label inserted
    d_same, d_other = nn_distances_bruteforce(points[kept], labels[kept])
    assert np.array_equal(cache.d_same, d_same)
    assert np.array_equal(cache.d_other, d_other)


def assert_empty_log(log):
    assert len(log) == 3
    assert all(isinstance(a, np.ndarray) and a.shape == (0,) for a in log)


def test_extend_of_an_empty_stream_changes_nothing():
    cache = NnCache()
    assert_empty_log(cache.extend([]))
    assert cache.n == 0 and cache.dim is None
    stream = make_stream(np.arange(6.0), [0, 1, 0, 1, 1, 0])
    cache, reference = fill_cache(stream), fill_cache(stream)
    assert_empty_log(cache.extend(iter([])))
    assert cache.dim == 1
    assert_same_state(cache, reference, "after an empty extend")


def test_extend_takes_a_one_shot_iterator():
    rng = np.random.default_rng(9)
    stream = make_stream(rng.normal(size=(2 * _BLOCK + 3, 4)), rng.integers(0, 3, size=2 * _BLOCK + 3))
    cache, reference = NnCache(), NnCache()
    log = cache.extend(obs for obs in stream)
    expected = reference.extend(stream)
    assert len(log) == len(expected) == 3
    for got, want in zip(log, expected):
        assert np.array_equal(got, want)
    assert_same_state(cache, reference, "after a generator extend")


def test_labels_are_dense_ids_in_first_seen_order():
    labels = [10**6, 0, 10**6, 7, 0]
    stream = make_stream([0.0, 1.0, 2.0, 3.0, 5.0], labels)
    cache = fill_cache(stream[:-1])
    tracemalloc.start()
    try:
        # one step of the pipeline: insert, score, class-average
        cache.insert(stream[-1])
        averaged = label_average(score_nn("ratio", cache), cache.labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # with the raw labels np.bincount would allocate 8 bytes per label value
    assert peak < 64 * 1024
    assert np.array_equal(cache.labels, [0, 1, 0, 2, 1])
    assert np.array_equal(averaged, label_average(score_nn("ratio", cache), labels))


def test_views_are_read_only():
    cache = NnCache()
    cache.extend(make_stream([0.0, 1.0], [0, 1]))
    before = cache.labels
    for view in (before, cache.d_same, cache.d_other):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 5
    cache.extend(make_stream([3.0, 7.0, 8.0], [0, 2, 2]))
    # the second extend moved the rows into new, larger storage, and the
    # views of it are read-only too and show the new rows
    assert not np.shares_memory(before, cache.labels)
    for view in (cache.labels, cache.d_same, cache.d_other):
        with pytest.raises(ValueError, match="read-only"):
            view[-1] = 0
    assert cache.labels.tolist() == [0, 1, 0, 2, 2]
    assert cache.d_same.tolist() == [3.0, np.inf, 3.0, 1.0, 1.0]
    assert cache.d_other.tolist() == [1.0, 1.0, 2.0, 4.0, 5.0]


def test_extend_keeps_a_frozen_stream_without_copying_its_rows():
    config = ScenarioConfig("iid", n_steps=1000, n_classes=10, dim=256)
    stream = generate(config, RandomSource(4, "rows"))
    cache = NnCache()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cache.extend(stream)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the class ids, squared norms and both minima: 32 bytes a point
    assert after - before < stream.x.nbytes / 10
    # a copy of the rows, which the caller can write, is copied into the
    # cache, and the minima are the same
    reference = NnCache()
    reference.extend(Stream(stream.x.copy(), stream.y))
    assert_same_state(cache, reference, "kept rows against copied rows")


def test_extend_copies_rows_that_their_caller_can_still_write():
    rng = np.random.default_rng(12)
    points = rng.normal(size=(3 * _BLOCK, 8))
    labels = rng.integers(0, 3, size=3 * _BLOCK)
    head = 2 * _BLOCK + 5
    writable = points[:head].copy()
    cache, reference = NnCache(), NnCache()
    cache.extend(Stream(writable, labels[:head]))
    reference.extend(Stream(points[:head].copy(), labels[:head]))
    # the caller's later writes must not reach the cache's rows
    writable[:] = 0.0
    tail = Stream(points[head:], labels[head:])
    for got, want in zip(cache.extend(tail), reference.extend(tail)):
        assert np.array_equal(got, want)
    assert_same_state(cache, reference, "after the caller wrote its rows")
    d_same, d_other = nn_distances_bruteforce(points, labels)
    assert np.array_equal(cache.d_same, d_same) and np.array_equal(cache.d_other, d_other)


# --- score variants ---------------------------------------------------------


def test_ratio_scores_on_three_point_prefix():
    cache = fill_cache(make_stream([0.0, 1.0, 3.0], [0, 0, 1]))
    # the lone class-1 point has d_same = +inf, and finite/inf := 0
    assert np.array_equal(score_nn("ratio", cache), [3.0, 2.0, 0.0])


def test_same_class_scores_on_three_point_prefix():
    cache = fill_cache(make_stream([0.0, 1.0, 3.0], [0, 0, 1]))
    assert np.array_equal(score_nn("same-class", cache), [1.0, 1.0, 0.0])


def test_duplicate_points_hit_the_positive_over_zero_convention():
    cache = fill_cache(make_stream([0.0, 0.0, 1.0], [0, 0, 1]))
    assert np.array_equal(score_nn("ratio", cache), [np.inf, np.inf, 0.0])


def test_squared_denominator_variant():
    cache = fill_cache(make_stream([0.0, 2.0, 3.0], [0, 0, 1]))
    # d_same = (2, 2, inf), d_other = (3, 1, 1)
    assert np.array_equal(
        score_nn("ratio-squared-denominator", cache), [3.0 / 4.0, 1.0 / 4.0, 0.0]
    )


def test_nearest_object_variant():
    cache = fill_cache(make_stream([0.0, 2.0, 3.0], [0, 0, 1]))
    # nearest neighbour of any class: (2, 1, 1)
    assert np.array_equal(score_nn("nearest-object", cache), [0.5, 1.0, 1.0])


def test_scoring_empty_cache_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        score_nn("ratio", NnCache())
    with pytest.raises(ValueError, match="variant"):
        score_nn("no-such-variant", fill_cache(make_stream([0.0], [0])))


def test_all_points_identical_same_label():
    cache = fill_cache(make_stream([1.0, 1.0, 1.0], [0, 0, 0]))
    # d_same = 0, d_other = inf for all: inf/0 := inf; 1/0 := inf
    assert np.array_equal(score_nn("ratio", cache), [np.inf] * 3)
    assert np.array_equal(score_nn("same-class", cache), [np.inf] * 3)


# --- label averaging --------------------------------------------------------


def test_label_average_hand_example():
    assert np.array_equal(label_average([3.0, 2.0, 0.0], [0, 0, 1]), [2.5, 2.5, 0.0])


def test_label_average_single_class_is_global_mean():
    out = label_average([1.0, 2.0, 6.0], [4, 4, 4])
    assert np.array_equal(out, [3.0, 3.0, 3.0])


def test_label_average_clamps_infinite_scores():
    out = label_average([np.inf, 4.0, 1.0], [0, 0, 1])
    # inf clamped to 2 * 4 = 8, class-0 mean (8 + 4) / 2
    assert np.array_equal(out, [6.0, 6.0, 1.0])
    all_inf = label_average([np.inf, np.inf], [0, 1])
    assert np.array_equal(all_inf, [1.0, 1.0])


def test_label_average_rejects_length_mismatch():
    with pytest.raises(ValueError):
        label_average([1.0], [0, 1])


# --- properties -------------------------------------------------------------


@st.composite
def prefixes(draw, max_n=20, max_dim=4, max_classes=3):
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, dim))
    # duplicate some rows to exercise the zero-distance conventions
    if n >= 2 and draw(st.booleans()):
        points[draw(st.integers(0, n - 1))] = points[draw(st.integers(0, n - 1))]
    labels = rng.integers(0, max_classes, size=n)
    return points, labels


@given(prefixes(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_equivariance_of_all_variants(prefix, pyrandom):
    points, labels = prefix
    order = list(range(len(points)))
    pyrandom.shuffle(order)
    original = fill_cache([Observation(x, int(y)) for x, y in zip(points, labels)])
    permuted = fill_cache(
        [Observation(points[i], int(labels[i])) for i in order]
    )
    for variant in NN_VARIANTS:
        base = score_nn(variant, original)
        scrambled = score_nn(variant, permuted)
        assert np.array_equal(scrambled, base[order])


@given(prefixes())
@settings(max_examples=60, deadline=None)
def test_label_average_assigns_equal_scores_to_equal_labels(prefix):
    points, labels = prefix
    cache = fill_cache([Observation(x, int(y)) for x, y in zip(points, labels)])
    averaged = label_average(score_nn("ratio", cache), labels)
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i] == labels[j]:
                assert averaged[i] == averaged[j]


@given(prefixes(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_scores_depend_on_prefix_as_multiset(prefix, pyrandom):
    points, labels = prefix
    order = list(range(len(points)))
    pyrandom.shuffle(order)
    direct = fill_cache([Observation(x, int(y)) for x, y in zip(points, labels)])
    reordered = fill_cache(
        [Observation(points[i], int(labels[i])) for i in order]
    )
    inverse = np.argsort(order)
    for variant in NN_VARIANTS:
        assert np.array_equal(
            score_nn(variant, reordered)[inverse], score_nn(variant, direct)
        )


# --- fuzzing the screened path ----------------------------------------------

_VARIANTS = ("iid", "lattice", "duplicates", "scaled", "offset", "late classes")


@st.composite
def screened_streams(draw, max_n=300, max_dim=16):
    """A stream long enough for ``extend`` to screen full blocks, with a point
    at which to split it into two calls, and a variant tag for the context.

    The variants are IID points; lattice points, so that many distances tie;
    duplicated rows, so that distances are 0; points scaled by 10**e, whose
    squared differences underflow or come close to overflowing; points with
    a common offset of 10**(e + 4), whose squared norms may overflow; and
    classes that first appear after the split.
    """
    d = draw(st.integers(1, max_dim))
    # the first block that meets this many stored rows is screened
    threshold_rows = -(-SCREEN_MIN_FLOATS // (_BLOCK * d))
    n = draw(st.integers(min(max_n, threshold_rows + 2 * _BLOCK), max_n))
    n_classes = draw(st.integers(1, 5))
    variant = draw(st.sampled_from(_VARIANTS))
    split = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, d))
    labels = rng.integers(0, n_classes, size=n)
    if variant == "lattice":
        points = rng.integers(-1, 2, size=(n, d)).astype(np.float64)
    elif variant == "duplicates":
        points[rng.integers(0, n, n // 3)] = points[rng.integers(0, n, n // 3)]
    elif variant in ("scaled", "offset"):
        exponent = draw(st.integers(-160, 150))
        points *= 10.0**exponent
        if variant == "offset":
            points += 10.0 ** (exponent + 4)
    elif variant == "late classes":
        labels = np.where(np.arange(n) < split, 0, labels + 1)
    return f"{variant} (n={n}, d={d}, K={n_classes}, split={split})", points, labels, split


def oracle_minima(points, labels):
    """The full scan's minima; its formula overflows where a distance does."""
    with np.errstate(over="ignore"):
        return nn_distances_bruteforce(points, labels)


@given(screened_streams())
@settings(max_examples=50, deadline=None)
def test_extend_in_two_calls_matches_one_at_a_time_inserts_and_the_full_scan(case):
    context, points, labels, split = case
    stream = make_stream(points, labels)
    cache, reference = NnCache(), NnCache()
    extend_in_lockstep(cache, stream[:split], reference, context)
    extend_in_lockstep(cache, stream[split:], reference, context)
    d_same, d_other = oracle_minima(points, labels)
    assert np.array_equal(cache.d_same, d_same), context
    assert np.array_equal(cache.d_other, d_other), context
