"""Tests for domain types and the seeded substream source."""

import math

import numpy as np
import pytest

from shiftmart import Observation, RandomSource, ks_distance, ks_uniform_bound
from shiftmart.core import integer_field, real_field

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
    # a float or bool label is refused, not truncated to class 1
    for label in (-1, 1.5, True):
        with pytest.raises(ValueError, match="label"):
            Observation(np.array([0.0]), label)


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
