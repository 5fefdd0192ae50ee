"""Nearest-neighbour conformity scores over growing observation prefixes.

Four scoring variants are supported, all functions of two per-point
quantities that :class:`NnCache` maintains incrementally while the stream
grows: the Euclidean distance ``d_same`` to the nearest point with the same
label (the point itself excluded) and the distance ``d_other`` to the nearest
point with any other label.

    ratio                       d_other / d_same
    ratio-squared-denominator   d_other / d_same**2
    same-class                  1 / d_same
    nearest-object              1 / min(d_same, d_other)

Degenerate prefixes (empty classes, duplicate points) are made total by fixed
extended-real conventions:

    min over an empty set  :=  +inf
    finite / +inf          :=  0
    positive / 0           :=  +inf
    0 / 0                  :=  1
    +inf / +inf            :=  1

Downstream p-values depend on scores only through ranks, so any fixed
measurable convention preserves their validity; these keep the scores totally
ordered and free of NaNs.

``label_average`` replaces every score by the mean score of its label class,
which makes the output depend on the labels alone (equal labels always
receive bit-identical scores).
"""

from __future__ import annotations

import numpy as np

from .core import Observation

NN_VARIANTS = (
    "ratio",
    "ratio-squared-denominator",
    "same-class",
    "nearest-object",
)


# An insertion into a cache of n points of dimension d screens the stored rows
# with one matrix-vector product once n * d reaches this many floats; below it
# every row is computed exactly. Both ways commit the same formula, so the
# switch changes no output. The screen costs some 20 numpy calls (about 65 us
# at small n) on top of the product; timed per insertion in a warm process
# (numpy 2.4 with OpenBLAS on a 2-vCPU x86 host) it broke even with the direct
# computation between n * d = 8000 and 16000 for d = 8 to 256 and near
# n = 1000 for d = 2. Screening every insertion made the perfbench mc-small
# workload (n = 1000, d = 2) 15 % slower end to end. From 16384 floats
# (128 KiB) on, a process whose cache keeps growing also gets the direct
# computation's n x d temporaries by a fresh mmap on every step; screening
# made the usps-shape workload (n = 2000, d = 256) 7x faster end to end.
SCREEN_MIN_FLOATS = 16384

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


class NnCache:
    """Incrementally maintained nearest-neighbour distances for a prefix.

    Each insertion folds the new point's distances to the stored points into
    the running minima of both the old points and the new one. Every
    committed distance is ``sqrt(((X[i] - x)**2).sum())``, so the minima are
    bit-identical to a full scan. Small caches evaluate that formula on all n
    stored rows (O(n * dim) with an n x dim temporary). From
    ``SCREEN_MIN_FLOATS`` on, one matrix-vector product screens the rows with
    an approximate squared distance and a rigorous bound on its error, and
    the formula is evaluated only on the few rows that could change a minimum
    (see ``insert``). Labels are stored as dense class ids, so memory does not
    depend on the label values. The cache is single-owner and mutable;
    scoring reads are safe between insertions.
    """

    def __init__(self, dim: int | None = None):
        self._dim = None if dim is None else int(dim)
        self._n = 0
        self._x: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._d_same: np.ndarray | None = None
        self._d_other: np.ndarray | None = None
        self._class_ids: dict[int, int] = {}

    @property
    def n(self) -> int:
        return self._n

    @property
    def dim(self) -> int | None:
        return self._dim

    @property
    def labels(self) -> np.ndarray:
        """Dense class ids of the stored prefix (read-only view).

        The k-th distinct label inserted has id k, so two points share an id
        exactly when they share a label, and the ids are below the number of
        distinct labels however large the labels themselves are.
        """
        return self._view(self._labels)

    @property
    def d_same(self) -> np.ndarray:
        """Per-point distance to the nearest same-label point (read-only view)."""
        return self._view(self._d_same)

    @property
    def d_other(self) -> np.ndarray:
        """Per-point distance to the nearest other-label point (read-only view)."""
        return self._view(self._d_other)

    def _view(self, arr: np.ndarray | None) -> np.ndarray:
        if arr is None:
            return np.empty(0)
        out = arr[: self._n]
        out.flags.writeable = False
        return out

    def _grow(self):
        cap = 16 if self._x is None else 2 * self._x.shape[0]
        x = np.empty((cap, self._dim), dtype=np.float64)
        norms = np.empty(cap, dtype=np.float64)
        labels = np.empty(cap, dtype=np.int64)
        d_same = np.empty(cap, dtype=np.float64)
        d_other = np.empty(cap, dtype=np.float64)
        if self._n:
            x[: self._n] = self._x[: self._n]
            norms[: self._n] = self._norms[: self._n]
            labels[: self._n] = self._labels[: self._n]
            d_same[: self._n] = self._d_same[: self._n]
            d_other[: self._n] = self._d_other[: self._n]
        self._x, self._norms, self._labels = x, norms, labels
        self._d_same, self._d_other = d_same, d_other

    def insert(self, obs: Observation) -> None:
        """Add one observation, updating all stored minima.

        Raises ValueError when the object dimension does not match the cache
        (the first insertion fixes the dimension if it was not given).

        Once n * dim reaches ``SCREEN_MIN_FLOATS``, only the stored rows that
        pass a screen get their exact distance computed:

        Screen. With s_i = ||X_i||**2, computed once when row i is inserted,
        and t = ||x||**2, one product ``X @ x`` gives a_i = s_i - 2 X_i.x + t,
        an approximation of the squared distance D_i = ||X_i - x||**2.

        Error bound. Let u = 2**-53 be the unit roundoff and eta = 2**-1075
        the largest rounding error of an underflowing product (IEEE
        arithmetic with gradual underflow, numpy's default). A dot product of
        length d, summed in any order and with or without fused
        multiply-adds, is off by at most gamma_d * sum_k |a_k b_k| + d * eta,
        where gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of
        Numerical Algorithms, sec. 3.1). As |X_i.x| <= (S_i + T) / 2 for the
        exact norms S_i and T, the three dot products are off by at most
        2 gamma_d (S_i + T) + 4 d eta together, and the subtraction and the
        addition that form a_i add at most 4 u (S_i + T) (1 + gamma_d). The
        committed value q_i = fl(sum_k fl(fl(X_ik - x_k)**2)) is off from D_i
        by at most gamma_{d+2} D_i + d eta, and D_i <= 2 (S_i + T). So

            |a_i - q_i| <= ((4 d + 8) u (S_i + T) + 5 d eta) (1 + O(d u)).

        The screen uses E_i = 8 (d + 4) (u (s_i + t) + 2 eta), about twice
        that, which leaves room for rounding s_i, t, the bounds a_i -/+ E_i
        and the squared thresholds below, each off by a few u of the same
        size. Hence lo_i = a_i - E_i <= q_i <= a_i + E_i = hi_i.

        Candidates. As sqrt and rounding are monotone, row i is skipped only
        when lo_i > m_i**2, so its distance cannot undercut m_i, the row's
        current minimum of the relevant kind (``d_same`` when the labels
        match, ``d_other`` otherwise), and lo_i > h, where h is the smallest
        hi over the rows of its kind (same label as x, or another label), so
        it cannot attain the new point's own minimum of that kind. Every
        comparison is written as ``~(lo > threshold)``, so a NaN or infinite
        approximation, e.g. from squared norms that overflow for entries
        near 1e154, makes the row a candidate. The exact formula is then
        applied to the candidates only and committed through ``np.minimum``
        as for a small cache.
        """
        x = np.asarray(obs.x, dtype=np.float64)
        if self._dim is None:
            self._dim = x.size
        if x.size != self._dim:
            raise ValueError(
                f"object dimension {x.size} does not match cache dimension {self._dim}"
            )
        y = self._class_ids.setdefault(int(obs.y), len(self._class_ids))
        if self._x is None or self._n == self._x.shape[0]:
            self._grow()
        n = self._n
        # vdot, unlike @, does not warn when the norm overflows to inf, which
        # only makes rows candidates (see the screen)
        norm = self._norms[n] = np.vdot(x, x)
        if n:
            if n * self._dim < SCREEN_MIN_FLOATS:
                diff = self._x[:n] - x
                dist = np.sqrt((diff * diff).sum(axis=1))
                same = self._labels[:n] == y
                np.minimum(self._d_same[:n], np.where(same, dist, np.inf), out=self._d_same[:n])
                np.minimum(self._d_other[:n], np.where(same, np.inf, dist), out=self._d_other[:n])
            else:
                rows = self._screen(x, norm, y)
                diff = self._x[rows] - x
                dist = np.sqrt((diff * diff).sum(axis=1))
                same = self._labels[rows] == y
                self._d_same[rows] = np.minimum(self._d_same[rows], np.where(same, dist, np.inf))
                self._d_other[rows] = np.minimum(self._d_other[rows], np.where(same, np.inf, dist))
            self._d_same[n] = dist[same].min() if same.any() else np.inf
            self._d_other[n] = dist[~same].min() if not same.all() else np.inf
        else:
            self._d_same[0] = np.inf
            self._d_other[0] = np.inf
        self._x[n] = x
        self._labels[n] = y
        self._n = n + 1

    def _screen(self, x: np.ndarray, norm: float, y: int) -> np.ndarray:
        """Indices of the stored rows whose exact distance to ``x`` is needed."""
        n = self._n
        s = self._norms[:n]
        same = self._labels[:n] == y
        with np.errstate(over="ignore", invalid="ignore"):
            approx = self._x[:n] @ x
            approx *= -2.0
            approx += s
            approx += norm
            err = 8.0 * (self._dim + 4) * (_UNIT_ROUNDOFF * (s + norm) + _SMALLEST_SUBNORMAL)
            lo = approx - err
            hi = np.add(approx, err, out=approx)
            own_same = np.where(same, hi, np.inf).min()
            own_other = np.where(same, np.inf, hi).min()
            current = np.where(same, self._d_same[:n], self._d_other[:n])
            threshold = np.maximum(current * current, np.where(same, own_same, own_other))
            return np.flatnonzero(~(lo > threshold))


def _extended_ratio(num, den) -> np.ndarray:
    """Elementwise num/den under the module's extended-real conventions."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    # 0/0 and inf/inf come out as NaN; both map to 1 by convention.
    out = np.where(np.isnan(out), 1.0, out)
    return out


def score_nn(variant: str, cache: NnCache) -> np.ndarray:
    """Conformity scores of the cached prefix under one of the NN variants.

    Higher scores mean more conforming. The result has one entry per stored
    observation and may contain +inf but never NaN.
    """
    if variant not in NN_VARIANTS:
        raise ValueError(f"unknown conformity variant {variant!r}")
    if cache.n == 0:
        raise ValueError("cannot score an empty cache")
    ds = cache.d_same
    do = cache.d_other
    if variant == "ratio":
        return _extended_ratio(do, ds)
    if variant == "ratio-squared-denominator":
        return _extended_ratio(do, ds * ds)
    if variant == "same-class":
        return _extended_ratio(np.ones_like(ds), ds)
    return _extended_ratio(np.ones_like(ds), np.minimum(ds, do))


def label_average(scores, labels) -> np.ndarray:
    """Replace each score by the mean score of its label class.

    Infinite inputs are first clamped to twice the largest finite score (to
    1.0 when no finite score exists) so the class means stay finite; this is
    rank-affecting only in degenerate prefixes. The output assigns
    bit-identical values to equal labels. Memory grows with the largest
    label, so pass dense class ids such as ``NnCache.labels``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    finite = np.isfinite(scores)
    if not finite.all():
        cap = 2.0 * scores[finite].max() if finite.any() else 1.0
        scores = np.where(finite, scores, cap)
    sums = np.bincount(labels, weights=scores)
    counts = np.bincount(labels)
    return sums[labels] / counts[labels]
