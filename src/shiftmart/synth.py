"""Synthetic shift-taxonomy streams, plus KS and chi-square uniformity statistics.

Objects are Gaussian with unit covariance around per-class means placed on a
simplex with inter-class distance 4 (scaled standard basis vectors, so the
object dimension must be at least the number of classes). That keeps
nearest-neighbour conformity informative at desk scale while every stream is
reproducible from its config and seed alone.

Scenarios:

iid
    Labels categorical-uniform, objects drawn from the class conditional.
concept-shift
    Identical, except every class mean translates by ``shift_magnitude``
    along a fixed unit direction from step ``changepoint``+1 on; the label
    marginals are untouched.
label-shift
    Class conditionals fixed; the label marginals switch from uniform to a
    skewed vector (class k weighted by exp(-shift_magnitude * k)) from step
    ``changepoint``+1 on.
markov-labels
    Labels follow a row-stochastic transition matrix, so the stream is not
    exchangeable, while objects are drawn independently from the class
    conditional given the label, so it stays exchangeable within each label
    class. This is the regime where only the label-conditional leg keeps its
    validity guarantee.

``changepoint`` and ``shift_magnitude`` (2.0 unless given) belong to the two
shift scenarios and ``label_transition`` to ``markov-labels``; any other
scenario refuses them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import RandomSource, Stream, integer_field, real_field

SCENARIOS = ("iid", "concept-shift", "label-shift", "markov-labels")
_SHIFT_SCENARIOS = ("concept-shift", "label-shift")

_INTER_CLASS_DISTANCE = 4.0
_ROW_SUM_TOL = 1e-12
# Largest n_classes * dim (the class centres) and n_steps * dim (the stream)
# a config may ask for: 10**8 float64 values are 800 MB. The benchmark's
# largest stream is 2000 x 256 floats; the USPS stream is 9298 x 256.
_MAX_FLOATS = 10**8
# Largest shift_magnitude a config may ask for. A concept shift moves the
# objects by this much, and their squared distances across the changepoint
# overflow from about 1.3e154 on.
_MAX_SHIFT = 1e100
# what a label_transition matrix and each of its rows may be given as
_ROWS = (list, tuple, np.ndarray)


@dataclass(frozen=True)
class ScenarioConfig:
    """Generator parameters for one synthetic stream."""

    scenario: str
    n_steps: int
    n_classes: int = 2
    dim: int = 2
    changepoint: int | None = None
    shift_magnitude: float | None = None
    label_transition: tuple[tuple[float, ...], ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        """Check every field and store it normalised (ints, floats, tuples)."""
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        store = partial(object.__setattr__, self)
        store("n_steps", integer_field("n_steps", self.n_steps, low=1))
        store("n_classes", integer_field("n_classes", self.n_classes, low=2))
        store("dim", integer_field("dim", self.dim))
        for name in ("changepoint", "seed"):
            if getattr(self, name) is not None:
                store(name, integer_field(name, getattr(self, name)))
        rows = self.label_transition
        if rows is not None:
            if not isinstance(rows, _ROWS) or not all(isinstance(row, _ROWS) for row in rows):
                raise ValueError("label_transition must be a list of rows")
            entry = partial(real_field, "label_transition", low=0.0, high=1.0)
            store("label_transition", tuple(tuple(map(entry, row)) for row in rows))
        if self.dim < self.n_classes:
            raise ValueError(
                "object dimension must be at least n_classes "
                f"(got dim={self.dim}, n_classes={self.n_classes})"
            )
        for name in ("n_classes", "n_steps"):
            if getattr(self, name) * self.dim > _MAX_FLOATS:
                raise ValueError(
                    f"{name} * dim must be at most {_MAX_FLOATS} floats "
                    f"(got {name}={getattr(self, name)}, dim={self.dim})"
                )
        if self.scenario in _SHIFT_SCENARIOS:
            if self.changepoint is None:
                raise ValueError(f"{self.scenario} requires a changepoint")
            if not 0 < self.changepoint <= self.n_steps:
                raise ValueError("changepoint must satisfy 0 < changepoint <= n_steps")
            magnitude = 2.0 if self.shift_magnitude is None else self.shift_magnitude
            store("shift_magnitude", real_field("shift_magnitude", magnitude, 0.0, _MAX_SHIFT))
        elif self.changepoint is not None:
            raise ValueError(f"changepoint is for concept-shift and label-shift only, not {self.scenario}")
        elif self.shift_magnitude is not None:
            raise ValueError(f"shift_magnitude is for concept-shift and label-shift only, not {self.scenario}")
        if self.scenario == "markov-labels":
            k = self.n_classes
            matrix = self.label_transition
            if matrix is None:
                raise ValueError("markov-labels requires a label_transition matrix")
            if len(matrix) != k or any(len(row) != k for row in matrix):
                raise ValueError(f"label_transition must be {k}x{k}")
            row_sums = np.array(matrix).sum(axis=1)
            if (np.abs(row_sums - 1.0) > _ROW_SUM_TOL).any():
                raise ValueError("label_transition rows must sum to 1")
        elif self.label_transition is not None:
            raise ValueError(f"label_transition is for markov-labels only, not {self.scenario}")


def class_centres(n_classes: int, dim: int) -> np.ndarray:
    """Per-class centres, the means of the object distributions: scaled basis
    vectors with pairwise distance 4; ``dim`` is at least ``n_classes``."""
    means = np.zeros((n_classes, dim))
    scale = _INTER_CLASS_DISTANCE / np.sqrt(2.0)
    means[np.arange(n_classes), np.arange(n_classes)] = scale
    return means


def _categorical(cum_probs: list[float], u: float, n_classes: int) -> int:
    # the comparisons of np.searchsorted(side="right") without its per-call
    # cost: 1000 draws with K = 2 took 0.13 ms against 1.1 ms in a warm process
    return min(bisect_right(cum_probs, u), n_classes - 1)


def _skewed_marginals(n_classes: int, magnitude: float) -> np.ndarray:
    weights = np.exp(-magnitude * np.arange(n_classes))
    return weights / weights.sum()


def generate(config: ScenarioConfig, source: RandomSource) -> Stream:
    """Materialize one stream. Pure given (config, source).

    Each step draws one uniform (its label) and then ``dim`` normals (its
    object) from ``source``, in that order, and the class mean is added to
    the normals in the row of a preallocated (n_steps, dim) array; the
    concept shift is one add to the rows after the changepoint. Those are
    the additions of building each object on its own, so the stream keeps
    its bits, and no (n_steps, dim) temporary is made. Both filled arrays
    are frozen, so the stream keeps them without a copy (``Stream``).
    """
    k = config.n_classes
    centres = list(class_centres(k, config.dim))
    uniform_cum = np.cumsum(np.full(k, 1.0 / k)).tolist()

    if config.scenario == "label-shift":
        skew_cum = np.cumsum(_skewed_marginals(k, config.shift_magnitude)).tolist()
    if config.scenario == "markov-labels":
        transition_cum = np.cumsum(config.label_transition, axis=1).tolist()

    x = np.empty((config.n_steps, config.dim))
    labels = []
    label = None
    for step, row in enumerate(x, start=1):
        u = source.uniform_draw()
        if config.scenario == "markov-labels" and label is not None:
            label = _categorical(transition_cum[label], u, k)
        elif config.scenario == "label-shift" and step > config.changepoint:
            label = _categorical(skew_cum, u, k)
        else:
            label = _categorical(uniform_cum, u, k)
        np.add(centres[label], source.normal_draws(config.dim), out=row)
        labels.append(label)
    if config.scenario == "concept-shift":
        shift_direction = np.full(config.dim, 1.0 / np.sqrt(config.dim))
        x[config.changepoint :] += config.shift_magnitude * shift_direction
    y = np.array(labels, dtype=np.int64)
    x.flags.writeable = y.flags.writeable = False
    return Stream(x, y)


def ks_distance(samples) -> float:
    """Exact KS distance of the empirical CDF from uniform on [0, 1]."""
    u = np.sort(np.asarray(samples, dtype=np.float64))
    n = u.size
    if n == 0:
        raise ValueError("samples must be non-empty")
    upper = (np.arange(1, n + 1) / n - u).max()
    lower = (u - np.arange(n) / n).max()
    return float(max(upper, lower))


def ks_uniform_bound(n: int) -> float:
    """Frozen pass threshold for pooled-uniformity checks: 1.95/sqrt(n) + 0.005."""
    return 1.95 / np.sqrt(n) + 0.005


def pair_chisq(pairs) -> tuple[float, int]:
    """Chi-square statistic of paired samples against uniformity on [0,1]^2.

    Returns (statistic, degrees of freedom) for a 10 x 10 grid with equal
    expected counts.
    """
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (n, 2)")
    counts, _, _ = np.histogram2d(
        pairs[:, 0], pairs[:, 1], bins=10, range=[[0.0, 1.0], [0.0, 1.0]]
    )
    expected = pairs.shape[0] / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, counts.size - 1
