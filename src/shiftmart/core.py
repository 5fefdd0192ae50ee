"""Domain types and deterministic randomness shared across the library.

A stream is a :class:`Stream`: the objects of all its steps in one read-only
float64 array and their class labels in one read-only int64 array, checked
once, in one vectorised pass. Iterating it yields :class:`Observation`
(feature vector plus class label), one per step. All randomness flows
through :class:`RandomSource`, which derives named substreams from a single
experiment seed, so every pipeline is replayable and the tie-breaking
randomizations of the two martingale legs can be kept statistically
independent of each other. Every number that arrives from outside is checked
by :func:`integer_field` or :func:`real_field`.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

Label = int

# labels are stored as int64
_LABEL_LIMIT = 2**63


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


def _label(value) -> int:
    """``value`` as an int label that int64 holds, or ValueError naming it."""
    label = integer_field("label", value, low=0)
    if label >= _LABEL_LIMIT:
        raise ValueError(f"label must be below 2**63, got {label}")
    return label


@dataclass(frozen=True, eq=False)
class Observation:
    """One stream element: a feature vector ``x`` and a class label ``y``,
    checked as a row and a label of a ``Stream`` are."""

    x: np.ndarray
    y: Label

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"object must be a 1-D vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("object vector contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", _label(self.y))


def _label_array(y) -> np.ndarray:
    """``y`` as a 1-D int64 array of labels, each checked by ``_label``: an
    integer array in one vectorised pass, anything else label by label, so
    that a bool or a float (2.0 too) is refused as ``integer_field`` refuses
    it. A ``y`` that is not 1-D, such as a scalar, is refused whole."""
    y = y if isinstance(y, np.ndarray) else np.array(y, dtype=object)
    if y.ndim != 1:
        raise ValueError(f"labels must be a 1-D array, got shape {y.shape}")
    if y.dtype.kind not in "iu":
        return np.array([_label(value) for value in y.tolist()], dtype=np.int64)
    bad = y[y < 0] if y.dtype.kind == "i" else y[y >= _LABEL_LIMIT]
    if bad.size:
        _label(bad[0].item())
    return y.astype(np.int64, copy=False)


def _held(array: np.ndarray, given) -> np.ndarray:
    """A read-only view of ``array``, the conversion of ``given``, or of a
    copy of it: the array a ``Stream`` holds, by the rule stated there."""
    if array is not given and array.base is None and isinstance(given, (np.ndarray, list, tuple)):
        # the conversion made it, so no one else holds it
        array.flags.writeable = False
    owner = array if array.base is None else array.base
    frozen = isinstance(owner, np.ndarray) and owner.base is None and not owner.flags.writeable
    if not (frozen and array.flags.c_contiguous and not array.flags.writeable):
        array = array.copy()
        array.flags.writeable = False
    return array.view()


@dataclass(frozen=True, eq=False)
class Stream:
    """A checked stream of n steps: the objects ``x``, a read-only float64
    array of shape (n, d), and the labels ``y``, a read-only int64 array of
    shape (n,).

    A stream keeps an array only when its own conversion made it (from a
    list or a tuple, or from an array of another dtype), and freezes it, or
    when it is read-only and C-contiguous and its memory is owned by a
    read-only ndarray, itself or the ndarray its ``.base`` names. Anything
    else, such as a caller's writable array, a read-only view of writable
    memory, a buffer or what an ``__array__`` method hands out, is copied
    once, and the copy frozen. So a caller's later writes to a writable
    array cannot reach the stream, and ``NnCache.extend`` keeps the rows
    without a copy. A read-only array handed to a stream is handed over:
    the stream shares its memory, and numpy lets the owner of that memory
    switch writes back on (``flags.writeable = True``). Doing so breaks
    this rule, and a NaN or a negative label written then reaches the
    stream unchecked. A stream that copies nothing cannot prevent it, and
    ``generate`` relies on that hand-over to keep its rows once.

    The arrays are checked once, in one vectorised pass: ``x``, once held,
    is 2-D and finite (a list or tuple of rows of several shapes is refused
    first, naming them), and every label is an integer in [0, 2**63),
    refusing bools and floats as ``integer_field`` does; an integer array's
    labels are checked as they are converted, since a uint64 label must be
    checked before it becomes an int64. A stream works like a list of
    observations: ``len``, iteration (one ``Observation`` a step), indexing
    and slicing (a slice is a ``Stream`` that shares the arrays).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if isinstance(self.x, (list, tuple)):
            # numpy would refuse rows of several shapes in words of its own
            shapes = sorted({np.shape(row) for row in self.x})
            if len(shapes) > 1:
                raise ValueError(f"object rows must share one shape, got {', '.join(map(str, shapes))}")
        x = _held(np.asarray(self.x, dtype=np.float64), self.x)
        if x.ndim != 2:
            raise ValueError(f"objects must be a 2-D array, got shape {x.shape}")
        y = _held(_label_array(self.y), self.y)
        if y.size != x.shape[0]:
            raise ValueError(f"{x.shape[0]} objects but {y.size} labels")
        if not np.isfinite(x).all():
            raise ValueError("object vector contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.y.size

    def __iter__(self):
        return map(Observation, self.x, self.y.tolist())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Stream(self.x[key], self.y[key])
        return Observation(self.x[key], int(self.y[key]))


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
