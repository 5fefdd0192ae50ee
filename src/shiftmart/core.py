"""Domain types and deterministic randomness shared across the library.

A stream is a plain sequence of :class:`Observation` (feature vector plus
class label). All randomness flows through :class:`RandomSource`, which
derives named substreams from a single experiment seed, so every pipeline is
replayable and the tie-breaking randomizations of the two martingale legs can
be kept statistically independent of each other. Every number that arrives
from outside is checked by :func:`integer_field` or :func:`real_field`.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

Label = int


def _as_float(value) -> float:
    """``value`` as a float, or NaN unless it is a real number that a float can
    hold. JSON ``true`` and ``false`` arrive as bools, which are not numbers."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def integer_field(name: str, value, low: int | None = None) -> int:
    """``value`` as an ``int`` of at least ``low``, or ValueError naming ``name``.
    Refuses bools, floats (2.0 too) and integers too large for a float."""
    if not isinstance(value, numbers.Integral) or not math.isfinite(_as_float(value)):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return int(value)


def real_field(name: str, value, low=-math.inf, high=math.inf, *, open_low=False) -> float:
    """``value`` as a finite ``float`` in ``[low, high]``, or in ``(low, high]``
    with ``open_low``, else ValueError naming ``name``. Refuses bools,
    non-numbers, NaN, +-inf and integers too large for a float."""
    number = _as_float(value)
    if math.isfinite(number) and (low < number if open_low else low <= number) and number <= high:
        return number
    span = f"{'(' if open_low else '['}{low:g}, {high:g}]"
    raise ValueError(f"{name} must be a finite number in {span}, got {reprlib.repr(value)}")


@dataclass(frozen=True, eq=False)
class Observation:
    """One stream element: a feature vector ``x`` and a class label ``y``."""

    x: np.ndarray
    y: Label

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"object must be a 1-D vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("object vector contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", integer_field("label", self.y, low=0))


class RandomSource:
    """Deterministic uniform-[0, 1) stream identified by ``(seed, stream_tag)``.

    The same pair replays the identical sequence; distinct tags give
    statistically independent substreams (the generator state is derived by
    hashing the pair, so no global draw order is involved). A source is
    single-owner: do not share one instance across concurrent tasks, derive
    disjoint tags up front instead.
    """

    def __init__(self, seed: int, stream_tag: str):
        self.seed = int(seed)
        self.stream_tag = str(stream_tag)
        digest = hashlib.sha256(f"{self.seed}/{self.stream_tag}".encode()).digest()
        entropy = int.from_bytes(digest[:16], "little")
        self._generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy))
        )

    def uniform_draw(self) -> float:
        """Return the next value of the substream, uniform on [0, 1)."""
        return float(self._generator.random())

    def uniform_draws(self, n: int) -> np.ndarray:
        """Return the next ``n`` values (same sequence as repeated single draws)."""
        return self._generator.random(int(n))

    def normal_draws(self, n: int) -> np.ndarray:
        """Return ``n`` standard-normal deviates (synthetic object generation)."""
        return self._generator.standard_normal(int(n))

    def describe(self) -> str:
        """Provenance string recorded on downstream p-values and trajectories."""
        return f"{self.seed}:{self.stream_tag}"

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_tag={self.stream_tag!r})"
