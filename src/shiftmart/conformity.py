"""Nearest-neighbour conformity scores over growing observation prefixes.

Four scoring variants are supported, all functions of two per-point
quantities that :class:`NnCache` maintains incrementally while the stream
grows: the Euclidean distance ``d_same`` to the nearest point with the same
label (the point itself excluded) and the distance ``d_other`` to the nearest
point with any other label. ``NnCache.extend`` inserts a whole stream and
returns one log of every step's rows whose distances that insertion lowered
and their new distances, so a caller rescores only those rows.

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

``nn_scores`` holds these conventions once, for any rows' distances;
``score_nn`` applies it to a whole cache. ``label_average`` replaces every
score by the mean score of its label class (``class_means``), which makes the
output depend on the labels alone (equal labels always receive bit-identical
scores).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .core import Observation, Stream

NN_VARIANTS = (
    "ratio",
    "ratio-squared-denominator",
    "same-class",
    "nearest-object",
)


# A block of b insertions into a cache of n points of dimension d screens the
# stored rows with one b x n x d matrix product once b * n * d reaches this
# many multiply-adds; below it every pair is computed exactly. Both ways
# commit the same formula, so the switch changes no output. Timed in a warm
# process (numpy 2.4 with OpenBLAS 0.3.31 on a 2-vCPU x86 VM), the screen
# broke even with the exact computation of every pair near b * n * d = 1000
# to 1500 for d = 2, 4000 for d = 8 and 25000 for d = 64 and 256, for blocks
# of 1 and of 16 alike. Between this value and those break-evens the slower
# way took at most about twice as long as the faster, and a block cost up to
# 0.15 ms (1 point) or 0.35 ms (16 points) either way; at n = 512 a block of
# 16 took 0.34 of the time with the screen for d = 2 and 0.12 for d = 256.
SCREEN_MIN_FLOATS = 4096

# New points inserted and screened together by ``NnCache.extend``. A block of
# b points makes a few b x n float temporaries. Interleaving 2000 points of
# d = 256 with 10 classes in a warm process took 0.33 to 0.42 s with blocks
# of 8 and 0.25 to 0.33 s with blocks of 16 and 32, and the peak memory of
# the three differed by less than 0.2 MiB.
_BLOCK = 16

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


def _frozen(x: np.ndarray) -> bool:
    """True when no one can write the rows ``x``: they are C-contiguous
    float64, and neither ``x`` nor any array it views is writeable, down to
    the array that owns the memory. ``Stream`` freezes the arrays that it
    makes itself, and ``generate`` the array it fills."""
    if x.dtype != np.float64 or not x.flags.c_contiguous:
        return False
    while isinstance(x, np.ndarray):
        if x.flags.writeable:
            return False
        if x.base is None:
            return True
        x = x.base
    # memory that an ndarray does not own, such as a buffer, may be written
    return False


def _read_only(view: np.ndarray) -> np.ndarray:
    """``view``, a fresh view of the storage, with writing through it refused."""
    view.flags.writeable = False
    return view


class NnCache:
    """Incrementally maintained nearest-neighbour distances for a prefix.

    Each insertion folds the new point's distances to the stored points into
    the running minima of both the old points and the new one. Every
    committed distance is ``sqrt(((X[i] - x)**2).sum())``, so the minima are
    bit-identical to a full scan. ``extend`` takes a ``Stream``, whose two
    arrays are already checked, or converts anything else to one; it is the
    engine's one conversion. The row storage of an empty cache is the
    stream's own rows when no one can write them (``_frozen``), as for every
    stream the library makes; otherwise, and when a later call needs room,
    the rows are copied into writable storage. The class ids and squared
    norms are written once. ``extend`` folds the new rows into the minima in
    blocks of up to ``_BLOCK`` rows, committing each block's steps at once,
    and returns a log of the rows whose minima each step changed; ``insert``
    is a stream of one. Small blocks and caches evaluate the formula on
    every pair of a new point and an earlier one. Once a block's product
    with the stored rows reaches ``SCREEN_MIN_FLOATS`` multiply-adds, that
    one matrix product screens the stored rows against the whole block with
    an approximate squared distance and a rigorous bound on its error, and
    the formula is evaluated only on the few pairs that could change a
    minimum (see ``_screen``). On a 2000-point IID stream with d = 256 and
    10 classes (numpy 2.4 with OpenBLAS 0.3.31 on a 2-vCPU x86
    VM), ``extend`` took 0.09 to 0.14 s in a warm process and one ``insert``
    per point 0.68 to 0.79 s. Labels are stored as dense class ids, so memory
    does not depend on the label values. ``labels``, ``d_same`` and
    ``d_other`` make a read-only view of the storage on each read. The cache
    is single-owner and mutable.
    """

    def __init__(self):
        self._dim: int | None = None
        self._n = 0
        self._x = np.empty((0, 0))
        self._norms = np.empty(0)
        self._labels = np.empty(0, dtype=np.int64)
        # row 0: distance to the nearest same-label point, row 1: other label
        self._nearest = np.empty((2, 0))
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
        return _read_only(self._labels[: self._n])

    @property
    def d_same(self) -> np.ndarray:
        """Per-point distance to the nearest same-label point (read-only view)."""
        return _read_only(self._nearest[0, : self._n])

    @property
    def d_other(self) -> np.ndarray:
        """Per-point distance to the nearest other-label point (read-only view)."""
        return _read_only(self._nearest[1, : self._n])

    def _reserve(self, capacity: int, rows: np.ndarray | None = None):
        """Grow the storage to ``capacity`` rows, copying the stored prefix.
        ``rows``, frozen rows of exactly that many points, become the row
        storage of an empty cache in place of a new writable array."""
        x = np.empty((capacity, self._dim), dtype=np.float64) if rows is None else rows
        norms = np.empty(capacity, dtype=np.float64)
        labels = np.empty(capacity, dtype=np.int64)
        nearest = np.empty((2, capacity), dtype=np.float64)
        if self._n:
            x[: self._n] = self._x[: self._n]
            norms[: self._n] = self._norms[: self._n]
            labels[: self._n] = self._labels[: self._n]
            nearest[:, : self._n] = self._nearest[:, : self._n]
        self._x, self._norms, self._labels = x, norms, labels
        self._nearest = nearest

    def insert(self, obs: Observation) -> None:
        """Add one observation, updating all stored minima.

        ``extend([obs])`` with its log ignored. Raises ValueError when the
        object dimension does not match the cache (the first insertion fixes
        the dimension). A stream of one pays the checks of a stream and a
        block's fixed cost on every point; for a stream, ``extend`` is about
        6x faster (see the class docstring).
        """
        self.extend([obs])

    def extend(self, stream: Stream | Iterable[Observation]) -> tuple[np.ndarray, ...]:
        """Insert a stream in order; return the log ``(rows, d_same, d_other)``.

        Each step logs the stored rows whose ``d_same`` or ``d_other`` that
        insertion lowered, ascending, then its new row, which is one more than
        the previous step's. ``d_same`` and ``d_other`` are those rows' minima
        as they stood right after that step. Every other row keeps its minima,
        and so its scores, at that step. The minima and class ids are those of
        one ``insert`` each: a label new to the cache takes the next id, in
        one pass over the labels. An empty stream gives three empty arrays.

        Anything but a ``Stream`` is converted by ``Stream.of`` first, which
        checks every object and label; ``insert`` and ``interleave`` pass
        their argument here, so this is the one place a stream is converted.
        A stream whose dimension does not match the cache raises ValueError,
        and so does anything that ``Stream.of`` refuses, such as a label of
        1.5 or ``True``; either way the cache is left exactly as it was, its
        dimension included. The storage grows at most once per call, and the
        stream's class ids and squared norms are written once, before the
        first block. Into an empty cache, frozen rows (``_frozen``) are kept
        as the row storage itself; other rows are copied, so that a caller's
        later writes to its own array cannot change the minima.
        """
        if not isinstance(stream, Stream):
            stream = Stream.of(stream)
        if not len(stream):
            return np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
        dim = stream.x.shape[1]
        if self._dim is not None and dim != self._dim:
            raise ValueError(
                f"object dimension {dim} does not match cache dimension {self._dim}"
            )
        self._dim = dim
        n0 = self._n
        n = n0 + len(stream)
        if not n0 and _frozen(stream.x):
            self._reserve(n, rows=stream.x)
        else:
            capacity = self._x.shape[0]
            if n > capacity:
                self._reserve(max(n, 2 * capacity))
            self._x[n0:n] = stream.x
        new = self._x[n0:n]
        # a new label's id is the count of distinct labels inserted before it
        class_ids = self._class_ids
        self._labels[n0:n] = [class_ids.setdefault(y, len(class_ids)) for y in stream.y.tolist()]
        # einsum, like vdot and unlike @, does not warn when a norm overflows
        # to inf, which only makes pairs candidates (see the screen)
        np.einsum("ij,ij->i", new, new, out=self._norms[n0:n])
        blocks = [self._insert_block(i, min(i + _BLOCK, n)) for i in range(n0, n, _BLOCK)]
        self._n = n
        d_same, d_other = np.concatenate([minima for _, minima in blocks], axis=1)
        return np.concatenate([rows for rows, _ in blocks]), d_same, d_other

    def _insert_block(self, n0: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Fold the stored rows n0..n-1 into the minima; return their log.

        The rows, class ids and squared norms are already written. The pairs
        (j, i) of row n0 + j and every row i before it that need an exact
        distance are found and all their distances are computed in one call.
        While the block's product with the rows before it stays below
        ``SCREEN_MIN_FLOATS`` multiply-adds, every pair is exact. From there
        on, the pairs with an earlier row of the same block are always exact,
        and the pairs with the rows before n0 pass ``_screen``. Observations
        are finite, so a distance is finite or +inf and never NaN; a finite
        distance whose square overflows is +inf, as in a full scan.

        Commit, all steps at once. A pair whose distance is not below its
        row's minimum of its kind at the start of the block lowers nothing at
        any step, so it is dropped. The touched rows are those of the pairs
        left, and the block's own rows. A dense matrix has one row per step and one
        column per touched row and kind (``d_same``, ``d_other``): a step's
        distances where it has a pair, +inf elsewhere, below a first row of
        the minima at the start of the block. ``np.minimum.accumulate`` down
        the steps gives every minimum right after every step. A step lowers
        a minimum where its distance is below the minimum before that step,
        the comparison a write one step at a time would make, so the log and
        the minima are bit for bit those of committing the steps in turn.
        Each row of the block starts from its own minima over the rows before
        it, and only later steps of the block can lower them.
        """
        b = n - n0
        x = self._x
        # the j-th row of the block meets rows n0 + j - 1 and before
        pairs = np.arange(n) < np.arange(n0, n)[:, None]
        if b * n0 * self._dim >= SCREEN_MIN_FLOATS:
            self._screen(n0, n, pairs[:, :n0])
        steps, rows = np.divmod(np.flatnonzero(pairs), n)
        points = n0 + steps
        with np.errstate(over="ignore"):
            diff = x[rows] - x[points]
            diff *= diff
            dist = np.sqrt(diff.sum(axis=1))
        # 0 where the labels match, 1 where they differ: the row of _nearest.
        # Flat indices take a faster path in numpy than pairs of indices.
        kind = self._labels[rows] != self._labels[points]
        nearest = self._nearest
        flat = nearest.reshape(-1)
        capacity = nearest.shape[1]
        # each row of the block starts from its minima over the rows before it
        nearest[:, n0:n] = np.inf
        np.minimum.at(flat, kind * capacity + points, dist)
        # a pair not below its row's minimum at the start of the block lowers
        # nothing, at any step
        keep = dist < flat[kind * capacity + rows]
        steps, rows, kind, dist = steps[keep], rows[keep], kind[keep], dist[keep]
        # the touched rows: those of the pairs kept, then the block's own rows,
        # the last b, each the last of its step
        touched = np.zeros(n, dtype=bool)
        touched[rows] = True
        touched[n0:] = True
        touched = np.flatnonzero(touched)
        m = touched.size
        columns = np.searchsorted(touched, rows)
        # running[j + 1, k * m + c]: row touched[c]'s minimum of kind k after step j
        running = np.full((b + 1, 2 * m), np.inf)
        running[0] = nearest[:, touched].reshape(-1)
        running.reshape(-1)[(1 + steps) * (2 * m) + kind * m + columns] = dist
        np.minimum.accumulate(running, axis=0, out=running)
        # a step's distance is below the minimum before it exactly where the
        # minimum after it is
        lowered = (running[1:] < running[:-1]).reshape(b, 2, m).any(axis=1)
        lowered[np.arange(b), m - b + np.arange(b)] = True
        log_steps, log_columns = np.nonzero(lowered)
        nearest[:, touched] = running[-1].reshape(2, m)
        minima = running.reshape(b + 1, 2, m)[log_steps + 1, :, log_columns].T
        return touched[log_columns], minima

    def _screen(self, n0: int, n: int, out: np.ndarray) -> None:
        """Mark in ``out`` the candidate pairs of points n0..n-1 with the rows before n0.

        Screen. With s_i = ||X_i||**2, computed once when row i is inserted,
        and t_j = ||x_j||**2, one product of the block with the stored rows
        gives a_ji = s_i - 2 X_i.x_j + t_j, an approximation of the squared
        distance D_ji = ||X_i - x_j||**2.

        Error bound. Let u = 2**-53 be the unit roundoff and eta = 2**-1075
        the largest rounding error of an underflowing product (IEEE
        arithmetic with gradual underflow, numpy's default). A dot product of
        length d, summed in any order and with or without fused
        multiply-adds, is off by at most gamma_d * sum_k |a_k b_k| + d * eta,
        where gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of
        Numerical Algorithms, sec. 3.1); this covers a matrix product, whose
        entries are such dot products. As |X_i.x| <= (S_i + T) / 2 for the
        exact norms S_i and T, the three dot products are off by at most
        2 gamma_d (S_i + T) + 4 d eta together, and the subtraction and the
        addition that form a_ji add at most 4 u (S_i + T) (1 + gamma_d). The
        committed value q_ji = fl(sum_k fl(fl(X_ik - x_jk)**2)) is off from
        D_ji by at most gamma_{d+2} D_ji + d eta, and D_ji <= 2 (S_i + T). So

            |a_ji - q_ji| <= ((4 d + 8) u (S_i + T) + 5 d eta) (1 + O(d u)).

        E_ji = 8 (d + 4) (u (s_i + t_j) + 2 eta) is about twice that. The
        screen uses one term per new point, E_j = 8 (d + 4)
        (u (s_max + t_j) + 2 eta) with s_max the largest s_i of the stored
        rows, so E_j >= E_ji. It forms only the lower bound
        lo_ji = (-2 X_i.x_j + s_i) + (t_j - E_j); the upper bound is
        hi_ji = lo_ji + 2 E_j. The product -2 X_i.x_j is taken with -2 x_j,
        which doubling gives exactly, so it is off by at most twice the
        error of X_i.x_j, as counted above (an x_j large enough for the
        doubling to overflow has t_j = inf, and its pairs become candidates
        as described below). Rounding E_j, these sums, the sum with 2 E_j
        below and the squared thresholds costs a few u (S_i + T) plus a few
        u E_j in all, well inside the room of at least E_j / 2 that the
        factor of two leaves. Hence lo_ji <= q_ji <= hi_ji.

        Candidates. As sqrt and rounding are monotone, the pair is skipped
        only when lo_ji > m_i**2, so its distance cannot undercut m_i, row
        i's minimum of the relevant kind (``d_same`` when the labels match,
        ``d_other`` otherwise) at the start of the block, and lo_ji > h_j,
        where h_j is the smallest hi_ji over the stored rows of its kind
        (same label as x_j, or another label), so it cannot attain the new
        point's own minimum of that kind. As E_j does not depend on i, h_j is
        the smallest lo_ji of that kind plus 2 E_j. Minima only shrink, so
        m_i at the start of the block is at least m_i at step j, and h_j over
        the stored rows is at least the smallest hi over all rows before x_j,
        so a pair skipped against the values at the start of the block cannot
        change a minimum at step j either. A pair is skipped only where
        ``lo > max(m**2, h)`` holds, and ``np.maximum`` propagates NaN, so a
        NaN or infinite approximation, e.g. from squared norms that overflow
        for entries near 1e154, makes the pair a candidate. The exact
        formula is then applied to the candidates only, as for a small cache.
        """
        x = self._x
        s = self._norms[:n0]
        t = self._norms[n0:n, None]
        same = self._labels[:n0] == self._labels[n0:n, None]
        with np.errstate(over="ignore", invalid="ignore"):
            err = 8.0 * (self._dim + 4) * (_UNIT_ROUNDOFF * (s.max() + t) + _SMALLEST_SUBNORMAL)
            # lo = (-2 X_i.x_j + s_i) + (t_j - E_j)
            lo = (-2.0 * x[n0:n]) @ x[:n0].T
            lo += s
            lo += t - err
            own_same = np.where(same, lo, np.inf).min(axis=1, initial=np.inf, keepdims=True)
            own_other = np.where(same, np.inf, lo).min(axis=1, initial=np.inf, keepdims=True)
            d_same, d_other = self._nearest[:, :n0]
            threshold = np.where(
                same,
                np.maximum(d_same * d_same, own_same + 2.0 * err),
                np.maximum(d_other * d_other, own_other + 2.0 * err),
            )
            np.logical_not(lo > threshold, out=out)


def _extended_ratio(num, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den under the module's extended-real conventions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den, out=np.empty_like(den))
    # 0/0 and inf/inf come out as NaN; both map to 1 by convention.
    out[np.isnan(out)] = 1.0
    return out


def nn_scores(variant: str, d_same, d_other) -> np.ndarray:
    """Conformity scores of points with the given nearest-neighbour distances.

    Elementwise over equal-shaped ``d_same`` and ``d_other`` arrays, so the
    scores of any subset of a cache's rows are those of ``score_nn`` at the
    same rows. Higher scores mean more conforming; the result may contain
    +inf but never NaN.
    """
    if variant not in NN_VARIANTS:
        raise ValueError(f"unknown conformity variant {variant!r}")
    ds = np.asarray(d_same, dtype=np.float64)
    do = np.asarray(d_other, dtype=np.float64)
    if variant == "ratio":
        return _extended_ratio(do, ds)
    if variant == "ratio-squared-denominator":
        return _extended_ratio(do, ds * ds)
    if variant == "same-class":
        return _extended_ratio(1.0, ds)
    return _extended_ratio(1.0, np.minimum(ds, do))


def score_nn(variant: str, cache: NnCache) -> np.ndarray:
    """Conformity scores of the cached prefix under one of the NN variants.

    The result has one entry per stored observation: ``nn_scores`` of the
    cache's ``d_same`` and ``d_other``.
    """
    if cache.n == 0:
        raise ValueError("cannot score an empty cache")
    return nn_scores(variant, cache.d_same, cache.d_other)


def class_means(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Mean score and size of each label class, indexed by label.

    Infinite inputs are first clamped to twice the largest finite score (to
    1.0 when no finite score exists) so the means stay finite; this is
    rank-affecting only in degenerate prefixes. A label below the largest one
    that does not occur has count 0 and mean 0. Memory grows with the
    largest label, so pass dense class ids such as ``NnCache.labels``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    sums = np.bincount(labels, weights=scores)
    # a class sum is finite only if its scores are; an overflowing sum of
    # finite scores takes this branch too and recomputes the same sums
    if not np.isfinite(sums).all():
        finite = np.isfinite(scores)
        cap = 2.0 * scores[finite].max() if finite.any() else 1.0
        sums = np.bincount(labels, weights=np.where(finite, scores, cap))
    counts = np.bincount(labels)
    # a label that does not occur has sum 0 and so mean 0
    return sums / np.maximum(counts, 1), counts


def label_average(scores, labels) -> np.ndarray:
    """Replace each score by the mean score of its label class.

    The means are those of ``class_means``, so the output assigns
    bit-identical values to equal labels.
    """
    means, _ = class_means(scores, labels)
    return means[np.asarray(labels, dtype=np.int64)]
