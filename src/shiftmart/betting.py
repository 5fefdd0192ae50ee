"""Betting strategies that gamble against uniform p-values.

A betting strategy here is a nonnegative function of finite p-value
sequences with value 1 on the empty sequence whose integral over the next
p-value returns the current value; feeding a stream of p-values through one
yields a test martingale (capital process started at 1). Capital is tracked
in log10 so trajectories that climb dozens of orders of magnitude stay
finite, with per-step share normalization for the Jumper strategies.

Strategies
----------
simple-jumper
    Three capital shares ride the linear bets f_eps(p) = 1 + eps*(p - 1/2)
    for eps in {-1, 0, +1}. Before each bet a fraction ``jump_rate`` of the
    total capital is redistributed equally across the shares, so the
    strategy can re-commit after the stream changes character.
sleepy-jumper
    Accepted as a separate tag with an additional ``reluctance`` parameter,
    recorded in the state but currently inert: the dynamics are those of the
    simple jumper with the eps = 0 share playing the asleep state. (The
    original sleeper automaton's sleep/wake transitions are not reproduced
    here; see the README.)
mixture-power
    Capital after p_1..p_n is the uniform mixture over e in (0, 1] of the
    power bets prod_i e * p_i**(e-1), evaluated by 64-point Gauss-Legendre
    quadrature in e with p-values clamped to >= 1e-12. The capital depends on
    the p-values only through n and sum_i log p_i; the state keeps these two
    sufficient statistics, so a step costs O(1).

Each strategy steps in one place, ``_advance``, which takes a state and
checked p-values and returns the capital after each one and the state it
ends in. The jumpers loop ``_jumper_step`` over the values; the mixture
takes the running sums of the clamped logs and maps every (bet count,
sum of log p) pair to its capital in chunks of 128 rows. ``run_martingale``
is ``_advance`` on a whole p-value array and ``bet_step`` is ``_advance`` on
one value, so the two agree bit for bit.

``product_martingale`` multiplies two trajectories (adds them in log10);
this is only a valid martingale when the legs were randomized from disjoint
substreams, which is checked via the recorded provenance unless explicitly
overridden. ``check_betting_validity`` verifies the integral-to-one betting
contract numerically for a strategy tag over sampled prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import accumulate

import numpy as np

from .core import real_field

STRATEGY_TAGS = ("simple-jumper", "sleepy-jumper", "mixture-power")

_MIXTURE_CLAMP = 1e-12
_LOG10 = math.log(10.0)

# Rows of mixture terms evaluated at once: a (128, 64) float64 block is
# 64 KiB. On a 1000-step leg in a warm process (2-CPU x86-64, numpy 2.4)
# 128 rows took 1.29 ms, 16 rows 2.0 ms, 512 rows 1.28 ms and one
# 1000-row block 1.54 ms.
_MIX_CHUNK_ROWS = 128


@cache
def _mixture_rule() -> tuple[np.ndarray, ...]:
    """The 64-point Gauss-Legendre rule mapped onto (0, 1), made on first use
    (``leggauss`` imports ``numpy.polynomial`` and solves an eigenproblem):
    the power mixture's exponents e and their weights w, then log e, log w
    and e - 1. The arrays are shared by every caller, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    eps = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    rule = eps, w, np.log(eps), np.log(w), eps - 1.0
    for array in rule:
        array.flags.writeable = False
    return rule


@dataclass(frozen=True)
class BettingState:
    """Capital state of one betting strategy.

    ``shares`` (Jumper strategies) are ordered eps = -1, 0, +1 and stored
    relative to the running total, which itself lives in ``log10_capital``.
    The mixture strategy keeps its sufficient statistics, O(1) per step:
    ``n_bets`` p-values seen and ``log_p_sum``, the sum of their clamped
    natural logs. A fresh state has capital 1.
    """

    strategy_tag: str
    jump_rate: float = 0.001
    reluctance: float = 0.01
    shares: tuple[float, ...] = ()
    n_bets: int = 0
    log_p_sum: float = 0.0
    log10_capital: float = 0.0


def initial_state(
    strategy_tag: str, jump_rate: float = 0.001, reluctance: float = 0.01
) -> BettingState:
    """Fresh state (capital exactly 1) for one of the strategy tags."""
    if strategy_tag not in STRATEGY_TAGS:
        raise ValueError(f"unknown strategy tag {strategy_tag!r}")
    shares = (1.0 / 3.0,) * 3 if strategy_tag != "mixture-power" else ()
    return BettingState(
        strategy_tag=strategy_tag,
        jump_rate=real_field("jump_rate", jump_rate, 0.0, 1.0, open_low=True),
        reluctance=real_field("reluctance", reluctance, 0.0),
        shares=shares,
    )


def _jumper_step(shares, jump_rate, p):
    """One Jumper transition: mix shares, apply the linear bets, renormalize.

    Returns (new relative shares, growth factor of the total capital). The
    bets satisfy f_eps(p) >= 1/2 for eps in {-1, 0, +1}, so the growth factor
    is always positive.
    """
    c_down, c_hold, c_up = shares
    total = c_down + c_hold + c_up
    jump = jump_rate / 3.0 * total
    keep = 1.0 - jump_rate
    c_down = keep * c_down + jump
    c_hold = keep * c_hold + jump
    c_up = keep * c_up + jump
    edge = p - 0.5
    c_down *= 1.0 - edge
    c_up *= 1.0 + edge
    growth = c_down + c_hold + c_up
    return (c_down / growth, c_hold / growth, c_up / growth), growth


def _mixture_log10_capital(n_bets, log_p_sums):
    """log10 mixture-power capital for each (bet count, sum of clamped log p) pair.

    Row i is the logsumexp of the 64 quadrature terms
    log w + n_i log e + (e - 1) S_i, shifted by the row maximum; the sum of
    the row is taken by numpy and its log by ``math.log``, so the bits do
    not depend on numpy's SIMD log. The rows are evaluated
    ``_MIX_CHUNK_ROWS`` at a time with ``exp`` in place, so no temporary
    grows with the number of rows.
    """
    _, _, log_eps, log_w, eps_m1 = _mixture_rule()
    out = np.empty(log_p_sums.size)
    for lo in range(0, out.size, _MIX_CHUNK_ROWS):
        hi = lo + _MIX_CHUNK_ROWS
        terms = np.multiply.outer(n_bets[lo:hi], log_eps)
        terms += log_w
        terms += np.multiply.outer(log_p_sums[lo:hi], eps_m1)
        top = terms.max(axis=1)
        terms -= top[:, None]
        np.exp(terms, out=terms)
        log_sums = [math.log(s) for s in terms.sum(axis=1).tolist()]
        out[lo:hi] = (top + log_sums) / _LOG10
    return out


def _advance(state: BettingState, ps: list) -> tuple[np.ndarray, BettingState]:
    """The log10 capital after each of the checked p-values ``ps``, and the end state.

    Advancing over ``ps`` and then over more values gives the bits of
    advancing over both at once: the jumper's shares and capital and the
    mixture's running sum of logs are carried from value to value in the
    same order either way, and each mixture row is evaluated on its own.
    """
    if not ps:
        return np.empty(0), state
    if state.strategy_tag == "mixture-power":
        log_ps = (math.log(max(p, _MIXTURE_CLAMP)) for p in ps)
        log_p_sums = accumulate(log_ps, initial=state.log_p_sum)
        log_p_sums = np.fromiter(log_p_sums, np.float64, len(ps) + 1)[1:]
        n_bets = state.n_bets + len(ps)
        capitals = _mixture_log10_capital(
            np.arange(state.n_bets + 1, n_bets + 1, dtype=np.float64), log_p_sums
        )
        end = {"n_bets": n_bets, "log_p_sum": float(log_p_sums[-1])}
    else:
        shares = state.shares
        log10_capital = state.log10_capital
        capitals = np.empty(len(ps))
        for k, p in enumerate(ps):
            shares, growth = _jumper_step(shares, state.jump_rate, p)
            log10_capital += math.log10(growth)
            capitals[k] = log10_capital
        end = {"shares": shares}
    return capitals, replace(state, log10_capital=float(capitals[-1]), **end)


def bet_step(state: BettingState, p: float) -> BettingState:
    """Advance one strategy state by one p-value, as ``run_martingale`` does."""
    return _advance(state, [real_field("p-value", p, 0.0, 1.0)])[1]


@dataclass(frozen=True, eq=False)
class MartingaleTrajectory:
    """Capital path S_0..S_n in log10 (S_0 = 1, so the path starts at 0)."""

    log10_values: np.ndarray
    provenance: str | None = None

    def __len__(self) -> int:
        return self.log10_values.size

    @property
    def final(self) -> float:
        return float(self.log10_values[-1])


def run_martingale(
    state: BettingState, p_values, provenance: str | None = None
) -> MartingaleTrajectory:
    """Feed p-values through a strategy, recording the capital after each one.

    Entry k of the trajectory is the log10 capital after k p-values; with a
    fresh state the trajectory starts at exactly 0. ``provenance`` names the
    randomization substream behind the p-values, consulted by
    ``product_martingale``.

    The p-values are converted to float64 once and checked in one pass: an
    array that is not 1-D raises ValueError naming its shape, and the first
    p-value outside [0, 1] (or NaN) raises ValueError naming it. The
    capitals then come from one ``_advance`` call, so every entry has the
    bits of the ``bet_step`` chain.
    """
    if not isinstance(p_values, np.ndarray):
        p_values = list(p_values)
    p_values = np.asarray(p_values, dtype=np.float64)
    if p_values.ndim != 1:
        raise ValueError(f"p-values must be a 1-D array, got shape {p_values.shape}")
    in_range = (p_values >= 0.0) & (p_values <= 1.0)
    if not in_range.all():
        raise ValueError(
            f"p-value must lie in [0, 1], got {float(p_values[np.argmin(in_range)])}"
        )
    capitals, _ = _advance(state, p_values.tolist())
    return MartingaleTrajectory(np.concatenate(([state.log10_capital], capitals)), provenance)


def product_martingale(
    a: MartingaleTrajectory, b: MartingaleTrajectory, allow_shared: bool = False
) -> MartingaleTrajectory:
    """Pointwise product of two trajectories (sum in the log10 domain).

    The product is a valid exchangeability martingale only when the two legs
    used independent tie-breaking randomizations, so trajectories carrying
    identical provenance are refused unless ``allow_shared`` is set (the
    documented shared-seed approximation).
    """
    if len(a) != len(b):
        raise ValueError(f"trajectory lengths differ: {len(a)} vs {len(b)}")
    if (
        not allow_shared
        and a.provenance is not None
        and a.provenance == b.provenance
    ):
        raise ValueError(
            "refusing product of trajectories with shared randomization "
            f"({a.provenance}); pass allow_shared=True to override"
        )
    if a.provenance is None and b.provenance is None:
        provenance = None
    else:
        provenance = f"product({a.provenance},{b.provenance})"
    return MartingaleTrajectory(a.log10_values + b.log10_values, provenance)


def check_betting_validity(strategy, prefixes, jump_rate: float = 0.001) -> float:
    """Max deviation from the betting contract over the given prefixes.

    For each prefix the integral of F(prefix + [u]) over u in [0, 1] is
    compared against F(prefix), where F maps a p-value sequence to the
    capital ``run_martingale`` gives from a fresh state; a valid betting
    strategy makes every such difference zero. ``strategy`` is a tag from
    STRATEGY_TAGS; anything else raises the ValueError of
    ``initial_state``. Returns the maximum absolute error; anything
    persistently above quadrature roundoff flags an invalid strategy.

    The rule of integration follows from the strategy. A Jumper step is
    affine in the next p-value, so 2-point Gauss-Legendre is exact for the
    jumper tags. For ``mixture-power`` each quadrature component
    e*u**(e-1) is integrated in closed form, which no sampling rule can do
    because for small exponents almost all of the component's mass sits
    below the smallest representable float.
    """
    state = initial_state(strategy, jump_rate)

    def capital(ps):
        return 10.0 ** run_martingale(state, ps).final

    mixture = strategy == "mixture-power"
    if not mixture:
        nodes, weights = np.polynomial.legendre.leggauss(2)
        nodes = 0.5 * (nodes + 1.0)
        weights = 0.5 * weights

    worst = 0.0
    for prefix in prefixes:
        prefix = [float(p) for p in prefix]
        reference = capital(prefix)
        if mixture:
            # Closed-form u-moment per mixture component: the integral of
            # u**(e-1) over [0, 1] is 1/e. Evaluated in the linear domain,
            # an arithmetic path independent of the logsumexp evaluation of
            # F itself.
            n0 = len(prefix)
            log_p_total = np.log(np.clip(np.asarray(prefix), _MIXTURE_CLAMP, 1.0)).sum()
            eps, w = _mixture_rule()[:2]
            moments = 1.0 / eps
            integral = float(
                np.sum(w * eps ** (n0 + 1) * np.exp((eps - 1.0) * log_p_total) * moments)
            )
        else:
            integral = sum(
                w * capital(prefix + [u]) for u, w in zip(nodes, weights)
            )
        worst = max(worst, abs(integral - reference))
    return worst
