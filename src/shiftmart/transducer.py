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
those rows for the whole stream, the log is scored with one ``nn_scores``
call per measure, and each class keeps an exact sum of its label-measure
scores, updated at the rows each step changes (``ClassMeans``); the ranks
then come from sorted score lists and class means and equal those of the
two transducers on the full prefix, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import RandomSource, Stream, real_field
from .conformity import NN_VARIANTS, ClassMeans, NnCache, nn_scores


def p_conformal(scores, tau: float) -> float:
    """Rank-based p-value of the newest (last) score among all scores.

    p = (#{i: a_i < a_n} + tau * #{i: a_i = a_n}) / n, the newest score
    itself included in the tie count, so p >= tau/n > 0 whenever tau > 0.
    Ties use exact floating-point equality.
    """
    tau = real_field("tau", tau, 0.0, 1.0)
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("scores must be non-empty")
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
    score is the one its step would have computed. The log is then replayed in one loop: a row below the
    prefix length is a stored row whose score the step changed, and the row
    equal to it is the step's new row. The concept scores are kept in one
    sorted list per class (and one over all rows for the black leg), so a
    rank is two bisections. The label leg ranks the newest class mean among
    the class means, which a ``ClassMeans`` keeps: a row's label-measure
    score moves only its class's exact sum, only the classes whose sum moved
    are re-divided, and the means are those of ``class_means`` on the prefix
    bit for bit. The counts are the exact integers the transducers
    count, and scores are never NaN, so the p-values are bit-identical to the
    transducers on the full prefix.
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
    p_black, p_concept, p_label = (None if t is None else np.empty(n) for t in taus)
    tau_black, tau, tau_prime = (None if t is None else t.tolist() for t in taus)
    log = zip(
        rows.tolist(),
        nn_scores(concept_measure, d_same, d_other).tolist(),
        nn_scores(label_measure, d_same, d_other).tolist() if with_label else repeat(None),
    )
    # the class id and concept score of each row, and the label-measure scores
    row_class = cache.labels.tolist()
    concept_scores: list[float] = []
    label_scores: list[float] = []
    label_means = ClassMeans()
    # the concept scores of each class id, and of all rows, in sorted lists
    by_class: list[list[float]] = []
    overall: list[float] = []
    for i, score, label_score in log:
        k = len(concept_scores)
        if i < k:
            # a stored row whose minima step k lowered
            before = concept_scores[i]
            if before != score:
                concept_scores[i] = score
                _move(by_class[row_class[i]], before, score)
                if with_black:
                    _move(overall, before, score)
            if with_label:
                before = label_scores[i]
                if before != label_score:
                    label_scores[i] = label_score
                    label_means.move(row_class[i], before, label_score)
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
        if with_label:
            label_scores.append(label_score)
            label_means.add(y, label_score)
            means = label_means.current(label_scores)
            p_label[k] = _rank_class_mean(means, label_means.counts, y, tau_prime[k])
    label_provenance = tau_prime_src.describe() if with_label else None
    return InterleavedPValues(p_concept, p_label, tau_src.describe(), label_provenance, p_black)
