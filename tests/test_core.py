"""Tests for domain types and the seeded substream source."""

import math
import re

import numpy as np
import pytest

from shiftmart import NnCache, Observation, RandomSource, Stream, ks_distance, ks_uniform_bound
from shiftmart.core import integer_field, real_field

from oracles import nn_distances_bruteforce

# values that are not numbers, or not numbers a float can hold
NOT_NUMBERS = [True, False, None, "1", [1], 10**400, -(10**400)]


def test_same_seed_and_tag_replays_identically():
    a = RandomSource(7, "tau")
    b = RandomSource(7, "tau")
    assert [a.uniform_draw() for _ in range(100)] == [
        b.uniform_draw() for _ in range(100)
    ]


def test_distinct_tags_give_distinct_streams():
    a = RandomSource(7, "tau")
    b = RandomSource(7, "tau-prime")
    assert [a.uniform_draw() for _ in range(100)] != [
        b.uniform_draw() for _ in range(100)
    ]


def test_distinct_seeds_give_distinct_streams():
    assert RandomSource(7, "tau").uniform_draw() != RandomSource(8, "tau").uniform_draw()


def test_batch_draws_match_single_draws():
    batch = RandomSource(3, "x").uniform_draws(50)
    one_by_one = RandomSource(3, "x")
    assert np.array_equal(batch, [one_by_one.uniform_draw() for _ in range(50)])


def test_draws_lie_in_unit_interval_and_look_uniform():
    draws = RandomSource(11, "tau").uniform_draws(10**5)
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert 0.49 <= draws.mean() <= 0.51


def test_pooled_substreams_pass_ks_uniformity():
    pooled = np.concatenate(
        [RandomSource(1, f"stream-{i}").uniform_draws(10_000) for i in range(10)]
    )
    assert ks_distance(pooled) < ks_uniform_bound(pooled.size)


def test_normal_draws_are_deterministic_and_standard():
    a = RandomSource(5, "scenario").normal_draws(10_000)
    b = RandomSource(5, "scenario").normal_draws(10_000)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.05
    assert abs(a.std() - 1.0) < 0.05


def test_observation_validates_inputs():
    obs = Observation(np.array([0.5, -0.5]), 3)
    assert obs.x.dtype == np.float64
    assert obs.y == 3
    with pytest.raises(ValueError):
        Observation(np.array([[1.0]]), 0)
    with pytest.raises(ValueError):
        Observation(np.array([np.nan]), 0)
    # a float or bool label is refused, not truncated to class 1, and a
    # label that a Stream refuses is refused here too
    for label in (-1, 1.5, True, 2**63):
        with pytest.raises(ValueError, match="label"):
            Observation(np.array([0.0]), label)


def test_stream_holds_checked_read_only_arrays():
    x = np.arange(6.0).reshape(3, 2)
    stream = Stream(x, np.array([2, 0, 2], dtype=np.uint8))
    # the caller can still write x, so the stream holds a copy of it, and
    # neither array can be written through
    assert not np.shares_memory(stream.x, x)
    assert stream.x.dtype == np.float64 and stream.y.dtype == np.int64
    for array in (stream.x, stream.y):
        with pytest.raises(ValueError):
            array[0] = 1
    assert len(stream) == 3
    assert [(obs.x.tolist(), obs.y) for obs in stream] == [([0.0, 1.0], 2), ([2.0, 3.0], 0), ([4.0, 5.0], 2)]
    assert isinstance(stream[-1], Observation) and stream[-1].y == 2
    tail = stream[1:]
    assert isinstance(tail, Stream) and np.array_equal(tail.x, x[1:]) and tail.y.tolist() == [0, 2]
    assert len(Stream(np.empty((0, 2)), [])) == 0


class ArrayHolder:
    """An object that hands out its own array, as some array containers do."""

    def __init__(self, data):
        self.data = data

    def __array__(self, dtype=None, copy=None):
        return self.data


def test_stream_freezes_only_the_arrays_it_made():
    x = np.arange(6.0).reshape(3, 2)
    y = np.array([2, 0, 2])
    holder = ArrayHolder(x.copy())
    for stream in (Stream(x, y), Stream(holder, y)):
        assert np.array_equal(stream.x, x)
    # arrays that a caller holds stay writable
    assert x.flags.writeable and y.flags.writeable and holder.data.flags.writeable
    made = (
        Stream(x.tolist(), y.tolist()),
        Stream(x.astype(np.float32), y.astype(np.uint8)),
    )
    for stream in made:
        assert np.array_equal(stream.x, x) and np.array_equal(stream.y, y)
        for array in (stream.x, stream.y):
            assert array.base.base is None and not array.base.flags.writeable


def frozen(array):
    array.flags.writeable = False
    return array


def test_stream_keeps_an_array_only_when_no_one_can_write_it():
    x = np.arange(12.0).reshape(6, 2)
    y = np.zeros(6, dtype=np.int64)
    owner = frozen(x.copy())
    # a read-only array, or a contiguous view of one, whose owner is read-only
    for rows in (owner, owner[2:], frozen(owner[1:4].view())):
        assert np.shares_memory(Stream(rows, y[: len(rows)]).x, rows)
    labels = frozen(y.copy())
    held = Stream(owner, labels)
    assert np.shares_memory(held.y, labels)
    # a slice of a stream shares its arrays
    tail = held[1:]
    assert np.shares_memory(tail.x, owner) and np.shares_memory(tail.y, labels)
    writable_owner = x.copy()
    copied = (
        x,  # the caller's writable array
        frozen(writable_owner.view()),  # a read-only view of writable memory
        np.frombuffer(x.tobytes()).reshape(6, 2),  # memory an ndarray does not own
        frozen(np.asfortranarray(owner)),  # read-only but not C-contiguous
        owner[::2],  # a strided view
    )
    for rows in copied:
        stream = Stream(rows, y[: len(rows)])
        assert not np.shares_memory(stream.x, rows) and np.array_equal(stream.x, rows)
        assert stream.x.flags.c_contiguous and not stream.x.base.flags.writeable
    assert x.flags.writeable and writable_owner.flags.writeable


def test_a_callers_later_writes_do_not_reach_the_stream():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    rows, labels = x.copy(), y.copy()
    holder = ArrayHolder(x.copy())
    for stream in (Stream(x, y), Stream(holder, y)):
        x[::3] = np.nan
        holder.data[::3] = np.nan
        y[:] = 7
        assert np.array_equal(stream.x, rows) and np.array_equal(stream.y, labels)
        cache = NnCache()
        cache.extend(stream)
        d_same, d_other = nn_distances_bruteforce(rows, labels)
        assert np.array_equal(cache.d_same, d_same) and np.array_equal(cache.d_other, d_other)
        x[:], y[:], holder.data[:] = rows, labels, rows
    # the caller's arrays and the holder's data stay writable
    assert x.flags.writeable and y.flags.writeable and holder.data.flags.writeable


def test_stream_refuses_malformed_objects():
    with pytest.raises(ValueError, match="2-D"):
        Stream(np.zeros(3), [0, 0, 0])
    with pytest.raises(ValueError, match="non-finite"):
        Stream(np.array([[0.0], [np.inf]]), [0, 0])
    with pytest.raises(ValueError, match="2 objects but 3 labels"):
        Stream(np.zeros((2, 1)), [0, 0, 0])
    # rows of several shapes, named in the stream's words rather than numpy's
    with pytest.raises(ValueError, match=re.escape("one shape, got (2,), (3,)")):
        Stream([np.zeros(2), np.zeros(3)], [0, 0])
    with pytest.raises(ValueError, match=re.escape("one shape, got (), (2,)")):
        Stream((np.zeros(2), "ab"), [0, 0])
    # labels that are not a 1-D sequence, a scalar among them
    for labels in (1.5, 1, None, np.array(1.5)):
        with pytest.raises(ValueError, match="labels must be a 1-D array"):
            Stream(np.zeros((1, 1)), labels)


@pytest.mark.parametrize("label", [1.5, True, -1, 2**63, 2.0])
def test_stream_refuses_a_label_that_int64_counts_cannot_hold(label):
    # labels are checked once per stream, as an array or one by one, and a
    # label beyond int64 is refused rather than wrapped
    named = re.escape(str(label))
    with pytest.raises(ValueError, match=f"label .*{named}"):
        Stream(np.zeros((3, 1)), [0, 1, label])
    # an array of bools, floats, int64 or uint64
    with pytest.raises(ValueError, match=f"label .*{named}"):
        Stream(np.zeros((1, 1)), np.array([label]))


def test_describe_names_seed_and_tag():
    assert RandomSource(42, "tau").describe() == "42:tau"


@pytest.mark.parametrize("value", [1, np.int64(7), 2**63, -(2**63), 10**300])
def test_integer_field_returns_a_python_int(value):
    result = integer_field("n", value)
    assert type(result) is int and result == value


@pytest.mark.parametrize("value", NOT_NUMBERS + [2.0, 1.5, math.nan, math.inf])
def test_integer_field_refuses_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match="^n must be an integer, got "):
        integer_field("n", value)


def test_integer_field_refuses_values_below_low():
    assert integer_field("n", 2, low=2) == 2
    with pytest.raises(ValueError, match="^n must be at least 2, got 1$"):
        integer_field("n", np.int64(1), low=2)


@pytest.mark.parametrize("value", [0, 1, 0.5, np.float32(0.25), np.int64(1), 1e-300])
def test_real_field_returns_a_python_float(value):
    result = real_field("x", value, 0.0, 1.0)
    assert type(result) is float and result == value


@pytest.mark.parametrize(
    "value", NOT_NUMBERS + [math.nan, math.inf, -math.inf, np.float32("inf"), -1e-300, 1.5]
)
def test_real_field_refuses_what_is_not_a_finite_number_in_range(value):
    with pytest.raises(ValueError, match=r"^x must be a finite number in \[0, 1\], got "):
        real_field("x", value, 0.0, 1.0)


def test_real_field_bounds():
    # unbounded above, still finite
    assert real_field("x", 1e300, 0.0) == 1e300
    with pytest.raises(ValueError, match=r"^x must be a finite number in \[0, inf\], got inf$"):
        real_field("x", math.inf, 0.0)
    # an open lower end refuses the end itself
    assert real_field("x", 1, 0.0, 1.0, open_low=True) == 1.0
    with pytest.raises(ValueError, match=r"^x must be a finite number in \(0, 1\], got 0$"):
        real_field("x", 0, 0.0, 1.0, open_low=True)


def test_refused_values_are_shortened_in_the_message():
    with pytest.raises(ValueError) as info:
        integer_field("n", 10**400)
    assert len(str(info.value)) < 80
