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

import math

import numpy as np

from .core import Observation, Stream

NN_VARIANTS = (
    "ratio",
    "ratio-squared-denominator",
    "same-class",
    "nearest-object",
)


# A block of b insertions into a cache of n points of dimension d screens the
# stored rows, and with them the block's own pairs, with one matrix product
# once b * n * d reaches this many multiply-adds; below it every pair is
# computed exactly. Both ways commit the same formula, so the switch changes
# no output. Timed in a warm process (numpy 2.4 with OpenBLAS 0.3.31 on a
# 2-vCPU x86 VM), the screen broke even with the exact computation of every
# pair near b * n * d = 1000 to 1500 for d = 2, 4000 for d = 8 and 25000
# for d = 64 and 256, for blocks of 1 and of 16 alike. For blocks of 32
# (``extend`` of 32 points after n0, median of 30, on a loaded host) it broke
# even near 4096 for d = 2 and 8 and below the smallest block tried (n0 = 8,
# b * n * d = 16384) for d = 64 and 256; at n0 = 512 a block of 32 took 0.42
# of the exact time with the screen for d = 2, 0.31 for d = 8, 0.20 for
# d = 64 and 0.11 for d = 256.
SCREEN_MIN_FLOATS = 4096

# New points inserted and screened together by ``NnCache.extend``, which
# holds a workspace of 19 bytes per block row and cache row. Blocks of 32
# took ``extend`` 12 to 23 % less time than blocks of 16 (n = 1000, d = 2
# and n = 2000, d = 64 and 256, timed alternately in one process). In
# benchmark pairs against blocks of 16 they lowered the peak resident
# memory of one cold experiment of n = 2000, d = 256 by 0.48 MiB and raised
# that of a warm process running experiments of n = 1000, d = 2 by 0.9 to
# 1.2 MiB (0.3 MiB of it the workspace). Screening the stored rows in column panels
# of a fixed number of entries, so that the screen's buffers did not grow
# with the cache, raised it by 0.5 to 1 MiB too and made the screen slower.
_BLOCK = 32
# _EARLIER[j, k]: row k of a block comes before row j
_EARLIER = np.tri(_BLOCK, k=-1, dtype=bool)
_EARLIER.flags.writeable = False

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


class _Workspace:
    """The buffers of one ``NnCache.extend`` call, which every block views.

    For blocks of up to ``rows`` new rows and a cache of up to ``n`` rows,
    flat arrays of ``rows * n`` entries: ``pairs``, the block's pairs that
    need an exact distance, owned by ``_insert_block``; ``same`` and
    ``differ``, the screen's label masks; ``lo`` and ``threshold``, the
    screen's product and its masked minima and thresholds, which after the
    screen hold the differences of the exact pairs, a chunk at a time. And
    ``squares``, the stored rows' squared minima of each kind and the new
    rows' stand-ins for them. So a block allocates no array of its size
    times the cache's.
    """

    def __init__(self, rows: int, n: int, d: int):
        size = rows * n
        # a chunk of lo holds every pair of a block of one point that is not
        # screened: fewer than n and than SCREEN_MIN_FLOATS / d
        chunk = max(size, d * min(n, max(1, SCREEN_MIN_FLOATS // d)))
        floats = np.empty(2 * chunk + 2 * n)
        self.lo, self.threshold = floats[:chunk], floats[chunk : 2 * chunk]
        self.squares = floats[2 * chunk :].reshape(2, n)
        flags = np.empty(3 * size, dtype=bool)
        self.pairs, self.same, self.differ = flags[:size], flags[size : 2 * size], flags[2 * size :]


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
    arrays are already checked, and nothing else. An empty cache keeps the
    first stream's rows, read-only as ``Stream`` defines that, as its row
    storage; a later call copies them into larger, writable storage. The
    class ids and squared norms are written once. ``extend`` folds the new
    rows into the minima in blocks of up to ``_BLOCK`` rows, committing each
    block's steps at once, and returns a log of the rows whose minima each
    step changed; ``insert`` is a stream of one. Small blocks and caches
    evaluate the formula on every pair of a new point and an earlier one.
    Once a block's product with the stored rows reaches
    ``SCREEN_MIN_FLOATS`` multiply-adds, that one matrix product screens
    the stored rows against the whole block with an approximate squared
    distance and a rigorous bound on its error, and the formula is
    evaluated only on the few pairs that could change a minimum; the same
    product screens the block's own pairs (see ``_screen``). The arrays of
    a block's size times the cache's are views of one workspace per
    ``extend`` call.
    On a 2000-point IID stream with d = 256 and 10 classes (numpy 2.4 with
    OpenBLAS 0.3.31 on a shared 2-vCPU x86 VM), ``extend`` took about
    0.06 s in a warm process and one ``insert`` per point 0.5 to 0.8 s. Labels are
    stored as dense class ids, so memory does not depend on the label
    values. ``labels``, ``d_same`` and ``d_other`` make a read-only view of
    the storage on each read. The cache is single-owner and mutable.
    """

    def __init__(self):
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
        """The width of the stored rows, or None while the cache is empty."""
        return self._x.shape[1] if self._n else None

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
        ``rows``, a stream's rows of exactly that many points, become the row
        storage of an empty cache in place of a new writable array."""
        x = np.empty((capacity, self._x.shape[1])) if rows is None else rows
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

        ``extend`` of a stream of one, with its log ignored. Raises ValueError
        when the object dimension does not match the cache (the first
        insertion fixes the dimension). A stream of one pays the checks of a
        stream and a block's fixed cost on every point; for a stream,
        ``extend`` is about 8 to 12x faster (see the class docstring).
        """
        self.extend(Stream(obs.x[None], np.array([obs.y])))

    def extend(self, stream: Stream) -> tuple[np.ndarray, ...]:
        """Insert a stream in order; return the log ``(rows, d_same, d_other)``.

        Each step logs the stored rows whose ``d_same`` or ``d_other`` that
        insertion lowered, ascending, then its new row, which is one more than
        the previous step's. ``d_same`` and ``d_other`` are those rows' minima
        as they stood right after that step. Every other row keeps its minima,
        and so its scores, at that step. The minima and class ids are those of
        one ``insert`` each: a label new to the cache takes the next id, in
        one pass over the labels. An empty stream, of any width, gives three
        empty arrays and changes nothing.

        Anything but a ``Stream`` raises TypeError; build one with
        ``Stream(x, y)``, which checks every object and label. A stream whose
        dimension does not match the cache raises ValueError. Either way the
        cache is left exactly as it was, its dimension included. The storage
        grows at most once per call, and the stream's class ids and squared
        norms are written once, before the first block. An empty cache keeps
        the stream's rows as its row storage.
        """
        if not isinstance(stream, Stream):
            raise TypeError(f"expected a Stream, got {type(stream).__name__}; build one with Stream(x, y)")
        if not len(stream):
            return np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
        n0 = self._n
        if n0 and stream.x.shape[1] != self.dim:
            raise ValueError(
                f"object dimension {stream.x.shape[1]} does not match cache dimension {self.dim}"
            )
        n = n0 + len(stream)
        if not n0:
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
        work = _Workspace(min(len(stream), _BLOCK), n, new.shape[1])
        blocks = [self._insert_block(i, min(i + _BLOCK, n), work) for i in range(n0, n, _BLOCK)]
        # the log's pieces and the whole log are held at once below
        del work
        self._n = n
        # one transpose of the joined log, not one a block: numpy joins
        # transposed pieces through buffers of its own
        d_same, d_other = np.concatenate([minima for _, minima in blocks]).T
        return np.concatenate([rows for rows, _ in blocks]), d_same, d_other

    def _insert_block(self, n0: int, n: int, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
        """Fold the stored rows n0..n-1 into the minima; return their log.

        The rows, class ids and squared norms are already written. The pairs
        (j, i) of row n0 + j and every row i before it that need an exact
        distance are found, and their differences go through ``work.lo``
        and ``work.threshold`` a chunk of pairs at a time. While the block's
        product with the rows before it stays below ``SCREEN_MIN_FLOATS``
        multiply-adds, every pair is exact. From there
        on, every pair passes ``_screen``, both those with the rows before
        n0 and those with an earlier row of the same block. Observations are
        finite, so a distance is finite or +inf and never NaN; a finite
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
        d = x.shape[1]
        # pairs[j, i]: row i before row n0 + j needs an exact distance to it
        pairs = work.pairs[: b * n].reshape(b, n)
        if b * n0 * d < SCREEN_MIN_FLOATS:
            pairs[:] = True
        else:
            self._screen(n0, n, pairs, work)
        pairs[:, n0:] &= _EARLIER[:b, :b]
        steps, rows = np.divmod(np.flatnonzero(pairs), n)
        points = n0 + steps
        # the pairs' differences go through the workspace, a chunk at a time;
        # "clip" writes out without a copy, and the indices are in range
        dist = np.empty(rows.size)
        chunk = work.lo.size // d
        with np.errstate(over="ignore"):
            for start in range(0, rows.size, chunk):
                end = min(start + chunk, rows.size)
                diff = work.lo[: (end - start) * d].reshape(-1, d)
                other = work.threshold[: diff.size].reshape(-1, d)
                np.take(x, rows[start:end], axis=0, out=diff, mode="clip")
                np.take(x, points[start:end], axis=0, out=other, mode="clip")
                diff -= other
                diff *= diff
                np.add.reduce(diff, axis=1, out=dist[start:end])
            np.sqrt(dist, out=dist)
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
        # minima[k]: d_same and d_other of logged row k
        minima = running.reshape(b + 1, 2, m)[log_steps + 1, :, log_columns]
        return touched[log_columns], minima

    def _screen(self, n0: int, n: int, out: np.ndarray, work: _Workspace) -> None:
        """Mark in ``out`` the candidate pairs of points n0..n-1 with the rows before n0
        and with the points before them in the block (``out`` has n columns).

        Screen. With s_i = ||X_i||**2, computed once when row i is inserted,
        and t_j = ||x_j||**2, one product of the block with the rows before
        n gives a_ji = s_i - 2 X_i.x_j + t_j, an approximation of the squared
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
        screen uses one term per block, E = 16 (d + 4) (u s_max + eta) with
        s_max the largest s_i of the rows the product covers, which include
        the block's own, so s_max >= t_j and E >= E_ji; below, E_j stands
        for it. It forms only the lower bound
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

        The block's own pairs. The product covers the new points too, and
        lo_ji for a pair of new points n0 + i and n0 + j is formed in the
        same way, with the same E, so the bound above holds for these pairs
        too, whatever d is.
        h_j is still taken over the stored rows only, so it is at least the
        squared exact minimum own_j of x_j's distances of its kind to the
        stored rows. For i < j, the pair cannot lower row n0 + i's minimum of
        its kind at step j, which is at most own_i as minima only shrink,
        when lo_ji > h_i; and it cannot attain x_j's minimum of that kind,
        which is at most own_j, when lo_ji > h_j. So a new point stands in
        for m_i**2 with its own h_i, and a pair is skipped only where
        ``lo > max(h_i, h_j)``; the pairs with i >= j are dropped by the
        caller.

        Every array of the block's size times the cache's is a view of
        ``work``. The mask of each kind keeps lo where the kind matches and
        puts +inf elsewhere through ``fmax`` with ``0 * inf`` (NaN, which
        ``fmax`` ignores) or ``1 * inf``, so that no pass branches on each
        entry, as ``np.where`` would.
        """
        b = out.shape[0]
        x = self._x
        s = self._norms[:n]
        t = self._norms[n0:n, None]
        lo = work.lo[: b * n].reshape(b, n)
        threshold = work.threshold[: b * n].reshape(b, n)
        same = work.same[: b * n].reshape(b, n)
        differ = work.differ[: b * n].reshape(b, n)
        squares = work.squares
        np.equal(self._labels[:n], self._labels[n0:n, None], out=same)
        np.logical_not(same, out=differ)
        with np.errstate(over="ignore", invalid="ignore"):
            err = 8.0 * (x.shape[1] + 4) * (2.0 * _UNIT_ROUNDOFF * s.max() + _SMALLEST_SUBNORMAL)
            # lo = (-2 X_i.x_j + s_i) + (t_j - E)
            np.matmul(-2.0 * x[n0:n], x[:n].T, out=lo)
            lo += s
            lo += t - err
            # h[k, j]: h_j of kind k (same, other) over the stored rows; a
            # new point stands in for m**2 with its own h of each kind
            h = squares[:, n0:n]
            for k, elsewhere in enumerate((differ, same)):
                np.copyto(threshold, elsewhere)
                threshold *= np.inf
                np.fmax(lo, threshold, out=threshold)
                threshold[:, :n0].min(axis=1, out=h[k])
            h += 2.0 * err
            h_same, h_other = h[0, :, None], h[1, :, None]
            minima = self._nearest[:, :n0]
            np.multiply(minima, minima, out=squares[:, :n0])
            # skip where lo > max(m**2, h) of the pair's kind
            np.maximum(squares[1, :n], h_other, out=threshold)
            np.greater(lo, threshold, out=out)
            out &= differ
            np.maximum(squares[0, :n], h_same, out=threshold)
            # differ is free now
            np.greater(lo, threshold, out=differ)
            differ &= same
            out |= differ
            np.logical_not(out, out=out)


def _extended_ratio(num, den: np.ndarray) -> np.ndarray:
    """Elementwise num/den under the module's extended-real conventions."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


# every finite double is an integer number of units of 2**-1074
_UNITS_PER_ONE = 2**1074


def _units(x: float) -> int:
    """A finite double as an exact integer number of units of 2**-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _rounded(units: int) -> float:
    """The double nearest ``units`` units of 2**-1074, ties to even: int /
    int true division rounds correctly. Past the largest double, +-inf."""
    try:
        return units / _UNITS_PER_ONE
    except OverflowError:
        return math.inf if units > 0 else -math.inf


def _class_sum(scores: list[float], cap: int) -> float:
    """The correctly rounded sum of ``scores``, each one that is not finite
    counted as ``cap`` units. ``math.fsum`` rounds correctly too, and it
    returns a finite sum only when every score and every partial sum is."""
    try:
        total = math.fsum(scores)
    except (OverflowError, ValueError):
        total = math.inf
    if math.isfinite(total):
        return total
    return _rounded(sum(_units(s) if math.isfinite(s) else cap for s in scores))


def class_means(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Mean score and size of each label class, indexed by label.

    A class's mean is the correctly rounded sum of its scores divided by its
    size, so it depends on the class's scores as a bag, in any order. A score
    that is not finite counts as twice the largest finite score (as 1.0 when
    no finite score exists), exactly; this is rank-affecting only in
    degenerate prefixes. A sum past the largest double is +inf. A label below
    the largest one that does not occur has count 0 and mean 0. Memory grows
    with the largest label, so pass dense class ids such as
    ``NnCache.labels``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    counts = np.bincount(labels)
    finite = scores[np.isfinite(scores)]
    cap = 2 * _units(float(finite.max())) if finite.size else _units(1.0)
    ends = np.cumsum(counts).tolist()
    by_class = scores[np.argsort(labels)].tolist()
    sums = [_class_sum(by_class[end - count : end], cap) for end, count in zip(ends, counts.tolist())]
    # a label that does not occur has sum 0 and so mean 0
    return np.array(sums) / np.maximum(counts, 1), counts


class ClassMeans:
    """The means of ``class_means`` for a prefix whose scores change in place.

    Each class keeps the exact sum of its finite scores as an integer number
    of units of 2**-1074, the count of its scores that are not finite, and
    its size; ``add`` and ``move`` update only the class of the row they
    name, from that row's score before and after. ``current`` re-divides
    only the classes whose sum moved: the correctly rounded sum, then the
    same IEEE division as ``class_means``, so the means are its means bit
    for bit. While some class holds a score that is not finite, every such
    class counts it as twice the largest finite score of the prefix, as
    ``class_means`` does. That score is kept as the scores change and
    searched for only after the row that held it moved down; a class that
    holds a score that is not finite is re-divided only when it moved or
    that score changed.
    """

    def __init__(self):
        self.means: list[float] = []
        self.counts: list[int] = []
        self._sums: list[int] = []
        self._infinite: list[int] = []
        self._moved: set[int] = set()
        # the largest finite score, or -inf when there is none; while
        # _stale, only an upper bound of it
        self._top = -math.inf
        self._stale = False
        self._cap = 0

    def add(self, y: int, score: float) -> None:
        """A new row of class ``y``, the next class id or an earlier one."""
        if y == len(self.means):
            self.means.append(0.0)
            self.counts.append(0)
            self._sums.append(0)
            self._infinite.append(0)
        self.counts[y] += 1
        self._change(y, score, 1)

    def move(self, y: int, before: float, after: float) -> None:
        """A row of class ``y`` whose score changed from ``before`` to ``after``."""
        self._change(y, before, -1)
        self._change(y, after, 1)

    def _change(self, y: int, score: float, sign: int) -> None:
        if math.isfinite(score):
            self._sums[y] += sign * _units(score)
            if sign < 0:
                # another row may hold the same score
                self._stale |= score == self._top
            elif score >= self._top:
                self._top, self._stale = score, False
        else:
            self._infinite[y] += sign
        self._moved.add(y)

    def current(self, scores: list[float]) -> list[float]:
        """The class means of the prefix whose scores are ``scores``."""
        if any(self._infinite):
            if self._stale:
                self._top = max(filter(math.isfinite, scores), default=-math.inf)
                self._stale = False
            cap = 2 * _units(self._top if self._top > -math.inf else 0.5)
            if cap != self._cap:
                self._cap = cap
                self._moved.update(y for y, count in enumerate(self._infinite) if count)
        for y in self._moved:
            total = _rounded(self._sums[y] + self._infinite[y] * self._cap)
            self.means[y] = total / self.counts[y]
        self._moved.clear()
        return self.means


def label_average(scores, labels) -> np.ndarray:
    """Replace each score by the mean score of its label class.

    The means are those of ``class_means``, so the output assigns
    bit-identical values to equal labels.
    """
    means, _ = class_means(scores, labels)
    return means[np.asarray(labels, dtype=np.int64)]
