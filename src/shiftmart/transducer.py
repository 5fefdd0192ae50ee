"""Randomized p-values from conformity scores.

Two rank-based transducers convert the score vector of the current prefix
into a p-value for the newest observation:

* ``p_label_conditional`` ranks the newest score within its own label class
  only. Fed with nearest-neighbour scores this is the concept-shift leg: its
  p-values stay uniform whenever objects are exchangeable within each label
  class, even when the label sequence itself is far from IID.
* ``p_conformal`` ranks globally. Fed with class-averaged scores (which
  depend on the labels alone) this is the label-shift leg.

``interleave``, the package's one step loop, runs up to three legs (concept,
label, and black: ``p_conformal`` on the concept scores) over a stream in a
single pass, drawing each leg's tie-breaking values tau from its own named
substream. Under exchangeable streams with independent tau substreams the
interleaved p-values behave as independent uniforms, which is what makes the
product of the concept and label test martingales a valid exchangeability
martingale. Adding an observation changes the nearest-neighbour scores of
earlier observations, so every step rescores exactly the rows whose
distances that insertion lowered, and the new row. ``NnCache.extend`` logs
those rows for the whole stream, and the log is scored with one
``nn_scores`` call per measure. The concept and black ranks come from
sorted score lists kept in one loop over the log. The label leg's ranks
come from float class sums over the whole log at once, with a proven error
bound that decides almost every step, and from a ``ClassMeans`` of exact
class sums at the steps the bound leaves open. Either way the p-values
equal those of the two transducers on the full prefix, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import RandomSource, Stream, real_field
from .conformity import NN_VARIANTS, ClassMeans, NnCache, nn_scores


def p_conformal(scores, tau: float) -> float:
    """Rank-based p-value of the newest (last) score among all scores.

    p = (#{i: a_i < a_n} + tau * #{i: a_i = a_n}) / n, the newest score
    itself included in the tie count, so p >= tau/n > 0 whenever tau > 0.
    Ties use exact floating-point equality. Scores that are not a non-empty
    1-D array, or hold a NaN, raise ValueError.
    """
    tau = real_field("tau", tau, 0.0, 1.0)
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be a 1-D array, got shape {s.shape}")
    if s.size == 0:
        raise ValueError("scores must be non-empty")
    nan = np.isnan(s)
    if nan.any():
        raise ValueError(f"scores must not be NaN, got NaN at index {int(np.argmax(nan))}")
    newest = s[-1]
    less = int(np.count_nonzero(s < newest))
    equal = int(np.count_nonzero(s == newest))
    return (less + tau * equal) / s.size


def p_label_conditional(scores, labels, tau: float) -> float:
    """Rank-based p-value of the newest score within its own label class.

    ``p_conformal`` of the scores whose label is the newest observation's;
    the denominator is the class count, at least 1 because the newest
    observation qualifies.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if s.size == 0:
        raise ValueError("scores must be non-empty")
    return p_conformal(s[y == y[-1]], tau)


def _rank(ordered: list, score: float, tau: float) -> float:
    """``p_conformal`` of ``score`` among the sorted scores that include it."""
    less = bisect_left(ordered, score)
    equal = bisect_right(ordered, score) - less
    return (less + tau * equal) / len(ordered)


def _move(ordered: list, old: float, new: float) -> None:
    """Replace one copy of ``old`` by ``new`` in a sorted list."""
    del ordered[bisect_left(ordered, old)]
    insort(ordered, new)


def _tau_draws(sources: Sequence[RandomSource | None], steps: int) -> list[np.ndarray | None]:
    """The tau values of each source for ``steps`` steps that draw from the
    sources in order, None where the source is None.

    A source listed more than once (shared randomization) is drawn from in
    turn at each step. ``uniform_draws(m)`` is the sequence of ``m`` single
    draws, so the values are those of drawing one at a time.
    """
    columns = {}
    for src in sources:
        if src is not None and id(src) not in columns:
            legs = sum(other is src for other in sources)
            columns[id(src)] = iter(src.uniform_draws(legs * steps).reshape(steps, legs).T)
    return [None if src is None else next(columns[id(src)]) for src in sources]


def _rank_class_mean(means: list[float], counts: list[int], y: int, tau: float) -> float:
    """``p_conformal`` of class ``y``'s mean among the class-averaged scores
    of a prefix whose classes have these means and sizes."""
    mean = means[y]
    less = equal = 0
    for m, c in zip(means, counts):
        if m < mean:
            less += c
        elif m == mean:
            equal += c
    return (less + tau * equal) / sum(counts)


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal

# Cells (classes times steps) of the label leg's certified stage built at
# once: each of its float arrays is 16 KiB. On 2000-step streams with
# d = 256 and 10 classes (2-CPU x86-64, numpy 2.4) chunks of 2048, 4096 and
# 8192 cells took the stage about 1.8, 1.5 and 1.4 ms (median of 15, two
# sweeps), and moved the peak resident memory of one such benchmark
# experiment by -0.06, +0.01 and +0.31 MiB against exact sums at every step
# (two runs each); a stream of 1000 steps and 2 classes fits one chunk.
_RANK_CHUNK_CELLS = 2048


@np.errstate(over="ignore", invalid="ignore")
def _certified_ranks(rows: np.ndarray, scores: np.ndarray, classes: np.ndarray):
    """The label leg's counts at every step, certified from float class sums.

    ``rows`` is an ``NnCache.extend`` log, ``scores`` the label-measure
    scores of its entries and ``classes`` the class id of each row. Returns
    ``(less, equal, undecided)``: per step, the number of rows of the prefix
    whose class mean is below the newest row's, and equal to it, and the
    ascending steps where these two counts are not certified and mean
    nothing. At every other step they are the counts that
    ``_rank_class_mean`` takes from the means and sizes of ``class_means``
    on the prefix.

    Float sums. Every entry of the log gives its row's class
    delta = (its score) - (the score the row held before), the latter 0 for
    the entry that adds the row, and an infinite score counting as 0 in
    both, so the exact deltas of a class telescope to the exact sum S of
    its finite scores. The class sums of a step, S^, are one ``np.bincount``
    of the deltas by (class, step) cell and a ``cumsum`` along the steps;
    A^, the sums of |delta|, and the class sizes c are built the same way.
    The steps go a chunk of ``_RANK_CHUNK_CELLS`` cells at a time, the sums
    of a chunk's last step carried into the first step of the next. Let m
    be the number of log entries up to and including the step, at least
    the number of the class's entries.

    Error bound. Let u = 2**-53 and eta = 2**-1075, the largest rounding
    error of a result that underflows. A computed delta is off by at most u
    |delta| (a sum of doubles that underflows is exact). ``bincount`` adds a
    cell's entries in order and ``cumsum`` adds the cells in order, so S^ is
    one summation tree over the class's computed deltas, at most m, and
    exact zeros (the empty cells and the carry into the first chunk); an
    addition with a zero operand is exact, so each delta meets at most
    m - 1 roundings, and

        |S^ - sum of computed deltas| <= gamma_{m-1} sum |delta^|

    with gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1; this holds for any order of summation).
    A^ is the same tree over |delta^|, so sum |delta^| <= A^ / (1 -
    gamma_{m-1}), and as rounding is monotone, |S^| <= A^. Hence
    |S^ - S| <= m u A^ (1 + O(m u)), and E = 2 (m + 1) u A^ is about twice
    that. ``class_means`` gives the mean mu = fl(fl(S) / c), with
    |fl(S) - S| <= u |S| and the division off by at most u |fl(S) / c| +
    eta; the stage's mean mu^ = fl(S^ / c) is off from S^ / c by at most
    u |S^| / c + eta. So

        |mu - mu^| <= (|S^ - S| + 3 u (|S^| + |S^ - S|)) / c + 2 eta,

    to first order in u, and the radius r = 2 (E + 3 u (|S^| + E)) / c +
    8 * 2**-1074 is at least twice that. Rounding r, and the sums mu^ - r
    and mu^ + r below, costs a few u (|mu^| + r), and the products that
    form r may each underflow by eta; the room of at least 3 u |mu^| + 14
    eta that the factor of two and the subnormal term leave covers both.
    Hence mu^ - r <= mu <= mu^ + r as computed.

    Decided steps. A class c with fl(mu^_c + r_c) < fl(mu^_y - r_y), y the
    newest row's class, has mu_c < mu_y; one with fl(mu^_c - r_c) >
    fl(mu^_y + r_y) has mu_c > mu_y. A class with A^ = 0 has every delta 0
    (a sum of nonnegative doubles is 0 only when each term is), so every
    finite score it holds is exactly 0, and so is its mean at a step that
    holds no infinite score; two such classes tie exactly. A step is
    decided when every class that has rows is below y, above it, ties it
    that way or is y; ``less`` and ``equal`` then sum the sizes of the
    classes below and tied. A step is undecided when it holds an infinite
    score (its class means take the clamp of ``class_means``, which these
    sums do not follow), when a radius is not finite (it is infinite when a
    sum overflows, since |S^| <= A^), and when two class means are too
    close for their radii, exact ties included.
    """
    n, m = classes.size, rows.size
    width = int(classes.max()) + 1
    # the entries by row, each row's in log order; a row is first logged by
    # the step that adds it. A stable sort: numpy's quicksort of int64 made
    # warm benchmark processes about 0.37 MiB larger, for 0.08 ms less a run.
    order = np.argsort(rows, kind="stable")
    by_row = rows[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(by_row[1:], by_row[:-1], out=first[1:])
    # per entry in that order, the row's finite score (0 for an infinite
    # one) and whether its score is infinite; then the change of each
    held = np.empty((2, m))
    held[0] = scores[order]
    np.isinf(held[0], out=held[1], casting="unsafe")
    held[0, held[1] == 1.0] = 0.0
    change = held.copy()
    change[:, 1:] -= held[:, :-1]
    np.copyto(change, held, where=first)
    # the changes in log order: each entry's delta, and its change of the
    # count of infinite scores
    delta, infinite = held
    delta[order], infinite[order] = change
    added = np.empty(m, dtype=bool)
    added[order] = first
    # the per-entry temporaries go before the chunks are built, which keeps
    # the stage's peak memory down
    del order, by_row, first, change
    # ends[k]: the entries of steps 0..k
    ends = np.flatnonzero(added) + 1
    step = np.cumsum(added)
    step -= added
    decided = np.cumsum(np.bincount(step, infinite, n)) == 0.0
    span = max(1, min(n, _RANK_CHUNK_CELLS // width))
    # entry e of step k and class c adds to cell (c, k - s0) of the chunk from step s0
    cells = classes[rows]
    cells *= span
    cells += step
    del step
    # the sums, sums of |delta| and class sizes of the steps before the chunk
    carry = np.zeros((3, width))
    less, equal = np.empty(n), np.empty(n)
    for s0 in range(0, n, span):
        s1 = min(s0 + span, n)
        e0, e1 = ends[s0 - 1] if s0 else 0, ends[s1 - 1]
        local = cells[e0:e1] - s0
        built = []
        for i, weight in enumerate((delta[e0:e1], np.abs(delta[e0:e1]), added[e0:e1])):
            cell_sums = np.bincount(local, weight, width * span).reshape(width, span)[:, : s1 - s0]
            cell_sums[:, 0] += carry[i]
            built.append(np.cumsum(cell_sums, axis=1, out=cell_sums))
            carry[i] = cell_sums[:, -1]
        sums, total, sizes = built
        counts = np.maximum(sizes, 1.0)
        # radius = 2 (E + 3 u (|S^| + E)) / c + 8 * 2**-1074, E = 2 (m + 1) u A^
        radius = total * ((2.0 * _UNIT_ROUNDOFF) * (ends[s0:s1] + 1.0))
        bound = np.abs(sums)
        bound += radius
        bound *= 3.0 * _UNIT_ROUNDOFF
        radius += bound
        radius *= 2.0
        radius /= counts
        radius += 8.0 * _SMALLEST_SUBNORMAL
        decided[s0:s1] &= np.isfinite(radius).all(axis=0)
        means = np.divide(sums, counts, out=sums)
        lo, hi = np.subtract(means, radius, out=bound), np.add(means, radius, out=radius)
        at, y = np.arange(s1 - s0), classes[s0:s1]
        below = hi < lo[y, at]
        zero = total == 0.0
        tied = zero & zero[y, at]
        tied[y, at] = True
        known = below | tied | (lo > hi[y, at]) | (sizes == 0.0)
        decided[s0:s1] &= known.all(axis=0)
        less[s0:s1] = (sizes * below).sum(axis=0)
        equal[s0:s1] = (sizes * tied).sum(axis=0)
    return less, equal, np.flatnonzero(~decided)


def _label_p_values(rows: np.ndarray, scores: np.ndarray, classes: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The label leg's p-value at every step of an ``NnCache.extend`` log.

    ``_certified_ranks`` gives most steps' counts, and ``(less + tau *
    equal) / (k + 1)`` at step k has the bits of ``_rank_class_mean``. At the
    steps it leaves undecided a ``ClassMeans`` ranks the exact class means:
    it is fed the log up to the last of them only, and re-divides only at
    them.
    """
    less, equal, undecided = _certified_ranks(rows, scores, classes)
    p = (less + tau * equal) / np.arange(1, classes.size + 1)
    if not undecided.size:
        return p
    last = int(undecided[-1])
    exact = set(undecided.tolist())
    # the log up to its entry that adds row `last`, which ends step `last`
    end = int(np.argmax(rows == last)) + 1
    row_class = classes[: last + 1].tolist()
    means = ClassMeans()
    k = 0
    for i, score in zip(rows[:end].tolist(), scores[:end].tolist()):
        if i < k:
            means.move(i, row_class[i], score)
            continue
        y = row_class[k]
        means.add(y, score)
        if k in exact:
            p[k] = _rank_class_mean(means.current(), means.counts, y, float(tau[k]))
        k += 1
    return p


@dataclass(frozen=True, eq=False)
class InterleavedPValues:
    """Per-step p-values of the legs plus randomization provenance.

    ``p_concept[k]``, ``p_label[k]`` and ``p_black[k]`` belong to step k+1 of
    the stream; the provenance strings identify which tau substream fed each
    leg (used to refuse invalid martingale products downstream). ``p_label``
    and ``label_provenance`` are None when the run had no label leg, and
    ``p_black`` is None unless the black leg was requested.
    """

    p_concept: np.ndarray
    p_label: np.ndarray | None
    concept_provenance: str
    label_provenance: str | None
    p_black: np.ndarray | None = None

    def __len__(self) -> int:
        return self.p_concept.size


def interleave(
    stream: Stream,
    concept_measure: str,
    label_measure: str | None,
    tau_src: RandomSource,
    tau_prime_src: RandomSource | None,
    tau_black_src: RandomSource | None = None,
) -> InterleavedPValues:
    """Run the transducer legs over a ``Stream``.

    ``concept_measure`` and ``label_measure`` are NN variant tags; they may
    differ. The concept leg ranks the newest raw score within its class, as
    ``p_label_conditional`` does; the label leg ranks the newest class mean
    among the class-averaged scores, as ``p_conformal`` on ``label_average``
    does. A ``label_measure`` of None drops the label leg, and
    ``tau_prime_src`` is then never drawn from; a leg that runs without its
    source raises ValueError before the stream is inserted. With
    ``tau_black_src`` the black leg ranks the newest concept score among all
    of them, as ``p_conformal`` does. Each step's tau values are those of
    drawing black, concept, label, in that order, so passing one source for
    all of them is the shared-randomization compatibility mode; the default
    contract is disjoint substreams. They are drawn for the whole stream at
    once, right after it is inserted, which gives the same values.

    The stream goes to one ``NnCache.extend`` call, which refuses anything
    but a ``Stream`` with TypeError, inserts the two checked arrays whole
    and logs for every step the rows whose minima that insertion lowered,
    then the new row, with their ``d_same`` and ``d_other`` as they stood at
    that step. Each step rescores only those rows: one ``nn_scores`` call per
    measure scores the whole log, and ``nn_scores`` is elementwise, so each
    score is the one its step would have computed.

    The label leg needs only the order of the class means at each step. One
    vectorised stage over the whole log (``_certified_ranks``) forms float
    class sums and a proven bound on their error, and so decides almost
    every step: the classes whose mean is provably below, or exactly tied
    with, the newest row's give the counts. The steps it cannot decide (an
    infinite score held, a sum past the largest double, two means closer
    than their bounds) go to a ``ClassMeans``, which keeps exact class sums
    and the means of ``class_means`` bit for bit; it is fed the log only up
    to the last such step, so the rest of the stream costs it nothing.

    The concept and black legs replay the log in one loop: a row below the
    prefix length is a stored row whose score the step changed, and the row
    equal to it is the step's new row. The concept scores are kept in one
    sorted list per class (and one over all rows for the black leg), so a
    rank is two bisections. The counts are the exact integers the
    transducers count, and scores are never NaN, so the p-values are
    bit-identical to the transducers on the full prefix.
    """
    with_black = tau_black_src is not None
    with_label = label_measure is not None
    for measure in (concept_measure, label_measure) if with_label else (concept_measure,):
        if measure not in NN_VARIANTS:
            raise ValueError(f"unknown conformity variant {measure!r}")
    if tau_src is None:
        raise ValueError("the concept leg has no tau source: tau_src is None")
    if with_label and tau_prime_src is None:
        raise ValueError("the label leg has no tau source: tau_prime_src is None")
    cache = NnCache()
    rows, d_same, d_other = cache.extend(stream)
    n = cache.n
    if not n:
        raise ValueError("empty stream")
    taus = _tau_draws((tau_black_src, tau_src, tau_prime_src if with_label else None), n)
    p_black, p_concept = (None if t is None else np.empty(n) for t in taus[:2])
    tau_black, tau = (None if t is None else t.tolist() for t in taus[:2])
    p_label = None
    if with_label:
        label_scores = nn_scores(label_measure, d_same, d_other)
        p_label = _label_p_values(rows, label_scores, cache.labels, taus[2])
    log = zip(rows.tolist(), nn_scores(concept_measure, d_same, d_other).tolist())
    # the class id and concept score of each row
    row_class = cache.labels.tolist()
    concept_scores: list[float] = []
    # the concept scores of each class id, and of all rows, in sorted lists
    by_class: list[list[float]] = []
    overall: list[float] = []
    for i, score in log:
        k = len(concept_scores)
        if i < k:
            # a stored row whose minima step k lowered
            before = concept_scores[i]
            if before != score:
                concept_scores[i] = score
                _move(by_class[row_class[i]], before, score)
                if with_black:
                    _move(overall, before, score)
            continue
        # row k itself, the last row of step k
        y = row_class[k]
        # class ids are dense in order of arrival, so a new class takes the next
        if y == len(by_class):
            by_class.append([])
        concept_scores.append(score)
        insort(by_class[y], score)
        if with_black:
            insort(overall, score)
            p_black[k] = _rank(overall, score, tau_black[k])
        p_concept[k] = _rank(by_class[y], score, tau[k])
    label_provenance = tau_prime_src.describe() if with_label else None
    return InterleavedPValues(p_concept, p_label, tau_src.describe(), label_provenance, p_black)
