"""Tests for the nearest-neighbour cache and the conformity score variants."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftmart import (
    NN_VARIANTS,
    NnCache,
    Observation,
    RandomSource,
    ScenarioConfig,
    Stream,
    generate,
    interleave,
    label_average,
    score_nn,
)
from shiftmart.conformity import _BLOCK, SCREEN_MIN_FLOATS, ClassMeans, class_means

from oracles import nn_distances_bruteforce
from test_acceptance import _screened_streams


def make_stream(points, labels):
    return Stream(np.asarray(points, float).reshape(len(labels), -1), labels)


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


def test_extend_and_interleave_take_only_a_stream():
    stream = make_stream([0.0, 1.0, 3.0], [0, 1, 0])
    for cache in (NnCache(), fill_cache(stream)):
        n, dim = cache.n, cache.dim
        for given in (list(stream), (obs for obs in stream), []):
            with pytest.raises(TypeError, match=r"got (list|generator); build one with Stream\(x, y\)"):
                cache.extend(given)
            assert (cache.n, cache.dim) == (n, dim)
    with pytest.raises(TypeError, match=r"got list; build one with Stream\(x, y\)"):
        interleave(list(stream), "ratio", "ratio", RandomSource(1, "a"), RandomSource(1, "b"))


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


def exact_distances(a, b):
    """The committed formula for every pair of a row of ``a`` and one of ``b``."""
    with np.errstate(over="ignore"):
        return np.sqrt(((a[:, None] - b) ** 2).sum(axis=2))


def own_pairs_stream(d):
    """Stored rows near the origin, then a block whose own pairs each change
    a minimum in one way only, with two duplicate rows and one far row.

    Along one axis: a row at 10, then one at 4, which lowers the row at 10
    (6 < its distance of about 10 to the stored rows) but is not the new
    row's minimum (the stored rows are nearer to it); along another, a row
    at 3, then one at 9, the nearest earlier row to the new one (6 < about
    9) that does not lower the row at 3 (the stored rows are nearer).
    """
    rng = np.random.default_rng(41)
    stored = 13 * _BLOCK
    block = rng.normal(scale=0.1, size=(_BLOCK, d))
    for row, (axis, at) in enumerate(((0, 10.0), (0, 4.0), (1, 3.0), (1, 9.0))):
        block[3 + row] = 0.0
        block[3 + row, axis] = at
    block[9] = block[8]
    block[12] = 1e3
    points = np.concatenate([rng.normal(scale=0.1, size=(stored, d)), block])
    labels = np.concatenate([rng.integers(0, 3, size=stored), np.zeros(_BLOCK, dtype=int)])
    labels[stored + 3 : stored + 7] = 2
    return points, labels


def needed_pairs(x, ids, start):
    """Masks, over the stored rows and over the block, of the pairs of each
    new row n0 + j with a row before it whose exact distance is below that
    row's minimum of its kind (a stored row's at the start of the block, a
    new row's just before step j), or equals the new row's smallest distance
    of that kind (to the stored rows for a stored row, to every row before
    it for a row of the block)."""
    n0 = start.shape[1]
    n = x.shape[0]
    dist = exact_distances(x[n0:], x)
    kind = (ids[n0:, None] != ids).astype(np.intp)
    before = np.arange(n) < np.arange(n0, n)[:, None]
    needed = np.zeros_like(before)
    needed[:, :n0] = dist[:, :n0] < start[kind[:, :n0], np.arange(n0)]
    for j in range(n - n0):
        for i in range(j):
            # row n0 + i's minimum of the pair's kind over the rows before n0 + j
            rows = (kind[i, : n0 + j] == kind[j, n0 + i]) & (np.arange(n0 + j) != n0 + i)
            needed[j, n0 + i] = dist[j, n0 + i] < dist[i, : n0 + j][rows].min(initial=np.inf)
    for k in (0, 1):
        of_kind = np.where(before & (kind == k), dist, np.inf)
        least = np.empty_like(of_kind)
        least[:, :n0] = of_kind[:, :n0].min(axis=1, keepdims=True)
        least[:, n0:] = of_kind.min(axis=1, keepdims=True)
        needed |= before & (kind == k) & (of_kind == least)
    return needed[:, :n0], needed[:, n0:]


def test_screen_marks_every_pair_that_can_change_a_minimum(monkeypatch):
    """In each screened block, a pair whose exact distance is below its
    earlier row's minimum of its kind (a stored row's at the start of the
    block, a new row's just before that step), or attains the new point's
    smallest distance of its kind (over the stored rows for a stored row,
    over every row before it for a row of the block), is a candidate.
    Every screened block screens its own pairs too."""
    calls = []
    screen = NnCache._screen

    def recording_screen(cache, n0, n, out, work):
        screen(cache, n0, n, out, work)
        calls.append((out.copy(), cache._x[:n].copy(), cache._labels[:n].copy(),
                      cache._nearest[:, :n0].copy()))

    monkeypatch.setattr(NnCache, "_screen", recording_screen)
    rng = np.random.default_rng(29)
    streams = {}
    for n, d in ((160, 2), (96, 8), (96, 16), (64, 64)):
        # the last full block is screened
        assert _BLOCK * (n - _BLOCK) * d >= SCREEN_MIN_FLOATS
        for name, stream in _screened_streams(rng, n, d, 3).items():
            streams[f"{name} (d={d})"] = stream
    # the largest stored squared norm is far above a typical one
    far = rng.normal(size=(96, 8))
    far[0] *= 10
    streams["one far row (d=8)"] = far, rng.integers(0, 3, size=96)
    for d in (2, 8, 16, 64):
        streams[f"own pairs (d={d})"] = own_pairs_stream(d)
    for context, (points, labels) in streams.items():
        calls.clear()
        NnCache().extend(Stream(points, labels))
        assert calls, context
        own_blocks = 0
        for mask, x, ids, start in calls:
            n0 = start.shape[1]
            stored, block = needed_pairs(x, ids, start)
            missed = np.count_nonzero(stored & ~mask[:, :n0])
            assert not missed, f"{context}, block at {n0}: {missed} pairs missed"
            if mask.shape[1] == x.shape[0]:
                own_blocks += 1
                missed = np.count_nonzero(block & ~mask[:, n0:])
                assert not missed, f"{context}, block at {n0}: {missed} of its own pairs missed"
        # every screened block covers its own pairs
        assert own_blocks == len(calls), context


@pytest.mark.parametrize("n, d, n_classes, bound", [(1000, 2, 2, 6_300), (1000, 8, 2, 5_000), (2000, 256, 10, 9_200)])
def test_extend_evaluates_few_pairs_exactly(monkeypatch, n, d, n_classes, bound):
    """The pairs ``_insert_block`` evaluates exactly, per IID stream (mean
    of scenario seeds 0-4), stay within about 1.25 times what blocks of 32
    give, each screened against its stored rows and own pairs in one
    product: 5,004 at d = 2, 4,119 at d = 8 and 7,787 at d = 256. Blocks of
    16 gave 10,822, 4,002 and 7,380; with the block's own pairs all exact
    below b * b * d = 4096, it was 17,287 at d = 2 and 11,127 at d = 8."""
    counts = []
    insert_block = NnCache._insert_block

    def counting_insert_block(cache, n0, n, work):
        log = insert_block(cache, n0, n, work)
        counts.append(np.count_nonzero(work.pairs[: (n - n0) * n]))
        return log

    monkeypatch.setattr(NnCache, "_insert_block", counting_insert_block)
    for seed in range(5):
        NnCache().extend(generate(ScenarioConfig("iid", n, n_classes, d), RandomSource(seed, "scenario")))
    assert sum(counts) / 5 < bound
@pytest.mark.parametrize("d", [2, 256])
def test_extend_allocates_no_block_sized_temporaries(d):
    """A screened ``extend`` holds the cache's arrays, one workspace of two
    float and three bool arrays of ``_BLOCK`` x n and the log; each block
    adds less than a quarter of one ``_BLOCK`` x n float array on top."""
    n = 6000
    rng = np.random.default_rng(d)
    stream = Stream(rng.normal(size=(n, d)), rng.integers(0, 10, size=n))
    cache = NnCache()
    tracemalloc.start()
    try:
        log = cache.extend(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the cache keeps the stream's rows, which were allocated before tracing
    assert cache._x is stream.x
    held = cache._norms.nbytes + cache._labels.nbytes + cache._nearest.nbytes
    workspace = _BLOCK * n * (2 * 8 + 3) + 2 * n * 8
    margin = _BLOCK * n * 8 // 4
    assert peak < held + workspace + sum(a.nbytes for a in log) + margin


def test_extend_refuses_a_stream_of_another_dimension():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(46, 64))
    # labels 8 and 3 first appear in the stream that is refused
    labels = np.array([5] * 6 + [8, 3, 5] * 13 + [3])
    stream = make_stream(points, labels)
    # a filled cache keeps its rows, minima and class ids
    head = 5
    cache, reference = fill_cache(stream[:head]), fill_cache(stream[:head])
    with pytest.raises(ValueError, match="dimension 63 does not match cache dimension 64"):
        cache.extend(make_stream(points[head:, :63], labels[head:]))
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
    assert_empty_log(cache.extend(Stream(np.empty((0, 1)), [])))
    assert cache.n == 0 and cache.dim is None
    stream = make_stream(np.arange(6.0), [0, 1, 0, 1, 1, 0])
    cache, reference = fill_cache(stream), fill_cache(stream)
    assert_empty_log(cache.extend(Stream(np.empty((0, 0)), [])))
    assert cache.dim == 1
    assert_same_state(cache, reference, "after an empty extend")


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


def test_class_means_give_inf_for_a_sum_past_the_largest_double():
    # the clamp used to double the largest finite score, 1e308, and warn
    means, counts = class_means([1e308, 1e308, 1.0], [0, 0, 1])
    assert np.array_equal(means, [np.inf, 1.0])
    assert np.array_equal(counts, [2, 1])
    # a non-finite score counts as exactly twice the largest finite score,
    # even where that double would overflow
    means, _ = class_means([np.inf, -1e308, 1e308], [0, 0, 1])
    assert np.array_equal(means, [1e308 / 2, 1e308])


@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([1.0, 1e-16, 5e-324, 1e308, np.inf]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
@example([1.0, 1e-16, 1e-16], None)
@settings(max_examples=200, deadline=None)
def test_class_means_do_not_depend_on_the_order_of_the_rows(scores, pyrandom):
    """Each class mean is the correctly rounded sum of the class's scores,
    a bag, divided by its size; ``np.bincount`` summed in row order, so
    that [1.0, 1e-16, 1e-16] gave 0.3333333333333333 and its reverse
    0.3333333333333334."""
    labels = [i % 2 for i in range(len(scores))] if pyrandom else [0] * len(scores)
    order = list(range(len(scores)))
    if pyrandom is None:
        order.reverse()
    else:
        pyrandom.shuffle(order)
    means, counts = class_means(scores, labels)
    permuted, permuted_counts = class_means([scores[i] for i in order], [labels[i] for i in order])
    assert means.tobytes() == permuted.tobytes()
    assert np.array_equal(counts, permuted_counts)
    finite = [s for s in scores if math.isfinite(s)]
    if len(finite) == len(scores) and not any(abs(s) > 1e307 for s in scores):
        for label, mean in enumerate(means):
            members = [s for s, y in zip(scores, labels) if y == label]
            assert mean == math.fsum(members) / len(members)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 30),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 1e300, np.inf]),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_class_means_kept_in_place_equal_those_of_the_prefix(steps):
    """``ClassMeans`` under rows added and rows whose score moves, the
    largest finite score and the infinite ones included, gives at every step
    the means and sizes of ``class_means`` on the prefix, bit for bit."""
    kept = ClassMeans()
    scores: list[float] = []
    labels: list[int] = []
    for label, row, score in steps:
        if row < len(scores) and row % 2:
            before, scores[row] = scores[row], score
            kept.move(labels[row], before, score)
        else:
            # class ids are dense: a new class takes the next id
            labels.append(min(label, max(labels, default=-1) + 1))
            scores.append(score)
            kept.add(labels[-1], score)
        means, counts = class_means(scores, labels)
        assert np.array(kept.current(scores)).tobytes() == means.tobytes()
        assert kept.counts == counts.tolist()


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

