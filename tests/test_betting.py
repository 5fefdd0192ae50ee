"""Tests for the betting strategies, trajectories, products and validity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from shiftmart import (
    ExperimentConfig,
    MartingaleTrajectory,
    RandomSource,
    ScenarioConfig,
    bet_step,
    check_betting_validity,
    initial_state,
    product_martingale,
    run_experiment,
    run_martingale,
)


# --- single steps ------------------------------------------------------------


def test_neutral_pvalue_leaves_capital_unchanged():
    for jump_rate in (0.001, 0.1, 1.0):
        state = initial_state("simple-jumper", jump_rate=jump_rate)
        stepped = bet_step(state, 0.5)
        assert stepped.log10_capital == pytest.approx(0.0, abs=1e-15)


def test_symmetric_start_keeps_capital_at_one():
    state = initial_state("simple-jumper", jump_rate=0.001)
    stepped = bet_step(state, 0.1)
    # bets are (1.4, 1.0, 0.6) against equal shares, so the total is 1
    assert 10.0 ** stepped.log10_capital == pytest.approx(1.0, abs=1e-12)


def test_mixture_power_single_extreme_pvalue():
    state = bet_step(initial_state("mixture-power"), 1.0)
    assert 10.0 ** state.log10_capital == pytest.approx(0.5, abs=1e-12)
    state = bet_step(initial_state("mixture-power"), 0.0)
    assert np.isfinite(state.log10_capital)


def test_sleepy_jumper_records_reluctance():
    state = initial_state("sleepy-jumper", jump_rate=0.001, reluctance=0.01)
    assert state.reluctance == 0.01
    assert state.strategy_tag == "sleepy-jumper"


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        initial_state("unknown-strategy")
    with pytest.raises(ValueError):
        initial_state("simple-jumper", jump_rate=0.0)
    for p in (1.5, True, float("nan"), "0.5"):
        with pytest.raises(ValueError, match="p-value"):
            bet_step(initial_state("simple-jumper"), p)
    for field, value in (
        ("jump_rate", True),
        ("jump_rate", 10**400),
        ("reluctance", -1.0),
        ("reluctance", float("inf")),
    ):
        with pytest.raises(ValueError, match=field):
            initial_state("sleepy-jumper", **{field: value})


# --- trajectories ------------------------------------------------------------


def test_empty_pvalue_list_gives_initial_capital_only():
    traj = run_martingale(initial_state("simple-jumper"), [])
    assert np.array_equal(traj.log10_values, [0.0])


def test_all_neutral_pvalues_give_flat_trajectory():
    traj = run_martingale(initial_state("simple-jumper"), [0.5] * 200)
    assert np.abs(traj.log10_values).max() < 1e-12


def test_run_martingale_agrees_with_bet_step_chain():
    ps = RandomSource(4, "p").uniform_draws(100)
    for tag in ("simple-jumper", "sleepy-jumper", "mixture-power"):
        state = initial_state(tag, jump_rate=0.01)
        chain = [state.log10_capital]
        for p in ps:
            state = bet_step(state, p)
            chain.append(state.log10_capital)
        traj = run_martingale(initial_state(tag, jump_rate=0.01), ps)
        assert np.array_equal(traj.log10_values, chain)


def _bet_step_chain(state, p_values):
    chain = [state.log10_capital]
    for p in p_values:
        state = bet_step(state, p)
        chain.append(state.log10_capital)
    return np.array(chain)


@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 1000])
@pytest.mark.parametrize("tag", ["simple-jumper", "mixture-power"])
def test_run_martingale_matches_bet_step_chain_bits_from_a_midstream_state(tag, n):
    # 128 rows is the mixture's chunk, so 127-129 straddle a chunk edge
    rng = np.random.default_rng(n)
    start = initial_state(tag, jump_rate=0.01)
    for p in rng.uniform(size=37):
        start = bet_step(start, p)
    ps = rng.uniform(size=n)
    ps[::7] = 0.0
    ps[3::11] = 1.0
    traj = run_martingale(start, ps)
    assert traj.log10_values.tobytes() == _bet_step_chain(start, ps).tobytes()
    assert run_martingale(start, list(ps)).log10_values.tobytes() == traj.log10_values.tobytes()


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
@pytest.mark.parametrize("tag", ["simple-jumper", "mixture-power"])
def test_run_martingale_names_the_first_p_value_out_of_range(tag, bad):
    ps = RandomSource(5, "p").uniform_draws(300)
    ps[150] = bad
    ps[200] = 2.5
    with pytest.raises(ValueError, match=rf"got {bad}$"):
        run_martingale(initial_state(tag), ps)


@pytest.mark.parametrize(
    "p_values, shape",
    [([[0.5, 0.2]], r"\(1, 2\)"), (np.full((2, 3), 0.5), r"\(2, 3\)"), (np.array(0.5), r"\(\)")],
)
@pytest.mark.parametrize("tag", ["simple-jumper", "mixture-power"])
def test_run_martingale_refuses_p_values_that_are_not_1d(tag, p_values, shape):
    with pytest.raises(ValueError, match=rf"must be a 1-D array, got shape {shape}$"):
        run_martingale(initial_state(tag), p_values)


def test_mixture_run_martingale_peak_memory_per_p_value():
    # 128-row chunks keep the (rows, 64) terms at 64 KiB; one block over
    # all 20 000 rows would peak near 1.6 KiB per p-value
    ps = RandomSource(6, "p").uniform_draws(20_000)
    state = initial_state("mixture-power")
    run_martingale(state, ps[:10])
    tracemalloc.start()
    try:
        run_martingale(state, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * ps.size


def _mixture_power_reference(p_values):
    """log10 mixture-power capital after every prefix, re-integrated each step.

    Each entry re-evaluates logsumexp over the whole clamped p-value history
    with the strategy's 64-point Gauss-Legendre rule, an O(n) computation
    per step that the O(1) sufficient-statistics state must reproduce.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    eps, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    log_p = np.log(np.clip(np.asarray(p_values, dtype=np.float64), 1e-12, 1.0))
    n = np.arange(1, log_p.size + 1)
    log_p_totals = np.array([log_p[:k].sum() for k in n])
    terms = (
        np.log(weights)
        + n[:, None] * np.log(eps)
        + (eps - 1.0) * log_p_totals[:, None]
    )
    return np.concatenate([[0.0], logsumexp(terms, axis=1) / np.log(10.0)])


def test_mixture_power_matches_full_history_reference_to_roundoff():
    # The mixture workload's shape: iid, n=1000, d=2, K=2, both product legs.
    worst = 0.0
    for seed in range(1, 5):
        table = run_experiment(
            ExperimentConfig(
                ScenarioConfig("iid", n_steps=1000),
                "same-class",
                "ratio",
                "mixture-power",
                seed=seed,
            )
        )
        for p_values, log10_capital in (
            (table.p_concept, table.log10_red),
            (table.p_label, table.log10_green),
        ):
            reference = _mixture_power_reference(p_values)
            worst = max(worst, float(np.abs(log10_capital - reference).max()))
    assert worst <= 1e-12


def test_trajectories_are_deterministic():
    ps = RandomSource(8, "p").uniform_draws(500)
    a = run_martingale(initial_state("simple-jumper"), ps)
    b = run_martingale(initial_state("simple-jumper"), ps)
    assert a.log10_values.tobytes() == b.log10_values.tobytes()


def test_capital_stays_positive_on_extreme_pvalues():
    ps = [0.0, 1.0] * 50 + list(RandomSource(1, "p").uniform_draws(100))
    for tag in ("simple-jumper", "mixture-power"):
        traj = run_martingale(initial_state(tag, jump_rate=0.5), ps)
        assert np.isfinite(traj.log10_values).all()


def test_ville_bound_on_iid_uniform_pvalues():
    # direct check against raw uniforms: capital 10 is hit in at most ~10%
    # of runs, typically far fewer
    hits = 0
    for seed in range(1000):
        ps = RandomSource(seed, "ville").uniform_draws(1000)
        traj = run_martingale(initial_state("simple-jumper", jump_rate=0.001), ps)
        hits += traj.log10_values.max() >= 1.0
    assert hits / 1000 <= 0.10


# --- products ----------------------------------------------------------------


def test_product_with_flat_factor_is_identity():
    ps = RandomSource(2, "p").uniform_draws(50)
    traj = run_martingale(initial_state("simple-jumper"), ps, provenance="1:tau")
    flat = MartingaleTrajectory(np.zeros(51), "1:tau-prime")
    prod = product_martingale(flat, traj)
    assert np.array_equal(prod.log10_values, traj.log10_values)


def test_product_magnitude_matches_mixed_measure_headline():
    a = MartingaleTrajectory(np.array([0.0, 10.0]), "1:tau")
    b = MartingaleTrajectory(np.array([0.0, 33.71]), "1:tau-prime")
    prod = product_martingale(a, b)
    assert prod.final == pytest.approx(43.71)


def test_product_rejects_shared_randomization_unless_overridden():
    a = MartingaleTrajectory(np.zeros(3), "1:shared")
    b = MartingaleTrajectory(np.ones(3), "1:shared")
    with pytest.raises(ValueError, match="shared"):
        product_martingale(a, b)
    prod = product_martingale(a, b, allow_shared=True)
    assert np.array_equal(prod.log10_values, np.ones(3))


def test_product_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        product_martingale(
            MartingaleTrajectory(np.zeros(3)), MartingaleTrajectory(np.zeros(4))
        )


@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_product_decomposition_is_exact(seed, n):
    rng = np.random.default_rng(seed)
    a = MartingaleTrajectory(rng.normal(scale=20, size=n), "a")
    b = MartingaleTrajectory(rng.normal(scale=20, size=n), "b")
    prod = product_martingale(a, b)
    assert np.abs(prod.log10_values - (a.log10_values + b.log10_values)).max() == 0.0


# --- betting contract --------------------------------------------------------


def test_jumper_validity_on_random_prefixes():
    rng = np.random.default_rng(0)
    prefixes = [rng.uniform(size=rng.integers(0, 20)) for _ in range(100)]
    for tag in ("simple-jumper", "sleepy-jumper"):
        assert check_betting_validity(tag, prefixes) < 1e-9


def test_jumper_validity_for_large_jump_rates():
    rng = np.random.default_rng(1)
    prefixes = [rng.uniform(size=5) for _ in range(20)]
    assert check_betting_validity("simple-jumper", prefixes, jump_rate=0.7) < 1e-9


def test_mixture_power_total_integral_is_one():
    assert check_betting_validity("mixture-power", [[]]) < 1e-6


def test_mixture_power_validity_on_longer_prefixes():
    rng = np.random.default_rng(2)
    prefixes = [rng.uniform(size=k) for k in (1, 2, 5, 10)]
    assert check_betting_validity("mixture-power", prefixes) < 1e-6


def test_mutated_strategy_is_detected():
    # doubles the newest p-value and forgets the rest: integrates to 1 from
    # the empty prefix but fails the contract from longer prefixes
    def mutated(ps):
        return 2.0 * ps[-1] if len(ps) else 1.0

    assert check_betting_validity(mutated, [[]]) < 1e-12
    rng = np.random.default_rng(3)
    prefixes = [rng.uniform(size=rng.integers(1, 4)) for _ in range(100)]
    assert check_betting_validity(mutated, prefixes) > 0.1


def test_callable_validity_is_exact_for_a_degree_six_betting_function():
    # betting on 7 u**6 integrates to 1, so the strategy is valid; 8-point
    # Gauss-Legendre is exact to degree 15, a 2-point rule misses by 0.16
    def sixth_power(ps):
        return float(np.prod(7.0 * np.asarray(ps, dtype=float) ** 6))

    rng = np.random.default_rng(4)
    prefixes = [[]] + [rng.uniform(0.5, 1.0, size=k) for k in (1, 2, 3)]
    assert check_betting_validity(sixth_power, prefixes) < 1e-10
