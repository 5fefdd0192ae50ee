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
martingale. Scores are recomputed from the full prefix at every step (adding
an observation changes earlier nearest-neighbour scores), so no stale-score
shortcut is taken.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Observation, RandomSource
from .conformity import NN_VARIANTS, NnCache, label_average, score_nn


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return tau


def p_conformal(scores, tau: float) -> float:
    """Rank-based p-value of the newest (last) score among all scores.

    p = (#{i: a_i < a_n} + tau * #{i: a_i = a_n}) / n, the newest score
    itself included in the tie count, so p >= tau/n > 0 whenever tau > 0.
    Ties use exact floating-point equality.
    """
    tau = _check_tau(tau)
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("scores must be non-empty")
    newest = s[-1]
    less = int(np.count_nonzero(s < newest))
    equal = int(np.count_nonzero(s == newest))
    return (less + tau * equal) / s.size


def p_label_conditional(scores, labels, tau: float) -> float:
    """Rank-based p-value of the newest score within its own label class.

    Counts are restricted to indices with the newest observation's label; the
    denominator is the class count, at least 1 because the newest observation
    qualifies.
    """
    tau = _check_tau(tau)
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.size == 0:
        raise ValueError("scores must be non-empty")
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    mask = y == y[-1]
    sub = s[mask]
    newest = sub[-1]
    less = int(np.count_nonzero(sub < newest))
    equal = int(np.count_nonzero(sub == newest))
    return (less + tau * equal) / sub.size


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
    stream: Sequence[Observation],
    concept_measure: str,
    label_measure: str | None,
    tau_src: RandomSource,
    tau_prime_src: RandomSource | None,
    tau_black_src: RandomSource | None = None,
) -> InterleavedPValues:
    """Run the transducer legs over a stream of observations.

    ``concept_measure`` and ``label_measure`` are NN variant tags; they may
    differ. The concept leg feeds raw scores to ``p_label_conditional``; the
    label leg class-averages the scores first and feeds ``p_conformal``. A
    ``label_measure`` of None drops the label leg, and ``tau_prime_src`` is
    then never drawn from. With ``tau_black_src`` the black leg feeds the
    concept scores to ``p_conformal``. Each step draws black, concept, label,
    in that order, so passing one source for all of them is the
    shared-randomization compatibility mode; the default contract is
    disjoint substreams.
    """
    with_black = tau_black_src is not None
    with_label = label_measure is not None
    for measure in (concept_measure, label_measure) if with_label else (concept_measure,):
        if measure not in NN_VARIANTS:
            raise ValueError(f"unknown conformity variant {measure!r}")
    stream = list(stream)
    if not stream:
        raise ValueError("empty stream")
    cache = NnCache()
    p_black = np.empty(len(stream)) if with_black else None
    p_concept = np.empty(len(stream))
    p_label = np.empty(len(stream)) if with_label else None
    for k, _ in enumerate(cache.extend(stream)):
        if with_black:
            tau_black = tau_black_src.uniform_draw()
        tau = tau_src.uniform_draw()
        if with_label:
            tau_prime = tau_prime_src.uniform_draw()
        labels = cache.labels
        concept_scores = score_nn(concept_measure, cache)
        if with_black:
            p_black[k] = p_conformal(concept_scores, tau_black)
        p_concept[k] = p_label_conditional(concept_scores, labels, tau)
        if with_label:
            if label_measure == concept_measure:
                raw = concept_scores
            else:
                raw = score_nn(label_measure, cache)
            p_label[k] = p_conformal(label_average(raw, labels), tau_prime)
    label_provenance = tau_prime_src.describe() if with_label else None
    return InterleavedPValues(p_concept, p_label, tau_src.describe(), label_provenance, p_black)
