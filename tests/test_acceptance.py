"""Acceptance gates for the full pipeline.

Each test enforces one frozen criterion at its stated tolerance and prints a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). The Monte Carlo settings below were calibrated once with
``scripts/calibrate_shift_separation.py`` and are frozen; the USPS check is
report-only and skips unless the dataset is pointed to by SHIFTMART_USPS.
"""

import os
import time

import numpy as np
import pytest
from scipy.stats import chi2

from shiftmart import (
    ExperimentConfig,
    NN_VARIANTS,
    NnCache,
    Observation,
    RandomSource,
    ScenarioConfig,
    UspsPaths,
    check_betting_validity,
    generate,
    initial_state,
    interleave,
    ks_distance,
    ks_uniform_bound,
    label_average,
    pair_chisq,
    product_martingale,
    run_experiment,
    run_martingale,
    score_nn,
)
from shiftmart.conformity import SCREEN_MIN_FLOATS

from oracles import nn_distances_bruteforce

# Frozen pipeline settings for the Monte Carlo criteria. The concept leg uses
# the same-class measure (the strongest concept-shift detector of the four)
# and the label leg the ratio measure; the betting strategy is the jumper at
# the canonical jumping rate.
CONCEPT_MEASURE = "same-class"
LABEL_MEASURE = "ratio"
JUMP_RATE = 0.001
STRATEGY = "simple-jumper"

CHISQ_CRITICAL = chi2.ppf(1.0 - 1e-3, 99)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _legs(scenario, seed, concept_measure=CONCEPT_MEASURE, label_measure=LABEL_MEASURE):
    stream = generate(scenario, RandomSource(seed, "scenario"))
    return interleave(
        stream,
        concept_measure,
        label_measure,
        RandomSource(seed, "tau"),
        RandomSource(seed, "tau-prime"),
    )


# --- criterion: equivariance suite -------------------------------------------


def test_equivariance_suite():
    rng = np.random.default_rng(2024)
    equivariance_failures = 0
    label_invariance_failures = 0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 9))
        points = rng.normal(size=(n, d))
        if n >= 3:  # force duplicates into some prefixes
            points[int(rng.integers(n))] = points[int(rng.integers(n))]
        labels = rng.integers(0, 3, size=n)
        perm = rng.permutation(n)
        original = NnCache()
        permuted = NnCache()
        for x, y in zip(points, labels):
            original.insert(Observation(x, int(y)))
        for i in perm:
            permuted.insert(Observation(points[i], int(labels[i])))
        for variant in NN_VARIANTS:
            base = score_nn(variant, original)
            if not np.array_equal(score_nn(variant, permuted), base[perm]):
                equivariance_failures += 1
        averaged = label_average(score_nn("ratio", original), labels)
        classes = {}
        for i, y in enumerate(labels):
            classes.setdefault(int(y), set()).add(float(averaged[i]))
        if not all(len(values) == 1 for values in classes.values()):
            label_invariance_failures += 1
    ok = equivariance_failures == 0 and label_invariance_failures == 0
    _report(
        "equivariance",
        ok,
        f"200 prefixes x {len(NN_VARIANTS)} variants: "
        f"{equivariance_failures} equivariance and "
        f"{label_invariance_failures} label-invariance violations",
    )
    assert ok


# --- criterion: incremental cache vs brute force ------------------------------


def test_nn_cache_matches_bruteforce_exactly():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(50):
        d = int(rng.integers(1, 9))
        points = rng.normal(size=(200, d))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=200)
        cache = NnCache()
        for x, y in zip(points, labels):
            cache.insert(Observation(x, int(y)))
        d_same, d_other = nn_distances_bruteforce(points, labels)
        if not (
            np.array_equal(cache.d_same, d_same)
            and np.array_equal(cache.d_other, d_other)
        ):
            mismatches += 1
    ok = mismatches == 0
    _report(
        "nn-cache-oracle",
        ok,
        f"50 streams of n=200 vs the full scan: {mismatches} mismatches",
    )
    assert ok


def _screened_streams(rng, n, d, n_classes):
    """Streams that stress the screen of NnCache.insert, keyed by name."""
    base = rng.normal(size=(n, d))
    labels = rng.integers(0, n_classes, size=n)
    duplicates = base.copy()
    duplicates[rng.integers(0, n, n // 3)] = base[rng.integers(0, n, n // 3)]
    # integer coordinates make many squared distances exactly equal
    lattice = rng.integers(-1, 2, size=(n, d)).astype(np.float64)
    # every class but the first appears only in the second half
    late = np.where(np.arange(n) < n // 2, 0, labels)
    return {
        "iid": (base, labels),
        "duplicates": (duplicates, labels),
        "lattice": (lattice, labels),
        "offset 1e8": (base + 1e8, labels),
        "offset 1e154": (base * 1e150 + 1e154, labels),
        "scaled 1e-160": (base * 1e-160, labels),
        # squared differences of a few subnormal units: the screen's error
        # bound needs its underflow floor here
        "scaled 1e-162": (base * 1e-162, labels),
        "late classes": (base, late),
    }


def test_nn_cache_screened_path_matches_bruteforce_exactly():
    rng = np.random.default_rng(17)
    mismatches = []
    streams = 0
    for n, d in ((512, 64), (200, 256)):
        # at least half the insertions of these streams take the screen
        assert n * d >= 2 * SCREEN_MIN_FLOATS
        for n_classes in (2, 10):
            for name, (points, labels) in _screened_streams(rng, n, d, n_classes).items():
                streams += 1
                cache = NnCache()
                for x, y in zip(points, labels):
                    cache.insert(Observation(x, int(y)))
                d_same, d_other = nn_distances_bruteforce(points, labels)
                if not (
                    np.array_equal(cache.d_same, d_same)
                    and np.array_equal(cache.d_other, d_other)
                ):
                    mismatches.append(f"{name} (n={n}, d={d}, K={n_classes})")
    ok = not mismatches
    _report(
        "nn-cache-screen-oracle",
        ok,
        f"{streams} screened streams vs the full scan: {len(mismatches)} mismatches "
        + ", ".join(mismatches),
    )
    assert ok


# --- criterion: betting validity ----------------------------------------------


def test_betting_validity():
    rng = np.random.default_rng(11)
    prefixes = [rng.uniform(size=int(rng.integers(0, 20))) for _ in range(100)]
    worst = 0.0
    for tag in ("simple-jumper", "sleepy-jumper"):
        worst = max(worst, check_betting_validity(tag, prefixes, jump_rate=JUMP_RATE))
    mixture_err = check_betting_validity("mixture-power", [[]])
    ok = worst < 1e-9 and mixture_err < 1e-6
    _report(
        "betting-validity",
        ok,
        f"jumper max error {worst:.2e} vs 1e-9; mixture total integral off by "
        f"{mixture_err:.2e} vs 1e-6",
    )
    assert ok


# --- criterion: label-conditional validity without exchangeability ------------


def test_label_conditional_pvalues_stay_uniform_on_markov_labels():
    scenario = ScenarioConfig(
        "markov-labels",
        n_steps=50,
        n_classes=2,
        dim=2,
        label_transition=((0.05, 0.95), (0.95, 0.05)),
    )
    pooled = np.concatenate(
        [_legs(scenario, seed).p_concept for seed in range(2000)]
    )
    distance = ks_distance(pooled)
    bound = ks_uniform_bound(pooled.size)
    ok = distance < bound
    _report(
        "markov-validity",
        ok,
        f"pooled n={pooled.size} KS {distance:.5f} vs bound {bound:.5f}",
    )
    assert ok


# --- criterion: interleaved uniformity and independence ------------------------


def test_interleaved_pvalues_are_uniform_and_independent():
    scenario = ScenarioConfig("iid", n_steps=25, n_classes=2, dim=2)
    p_concept, p_label, lag1 = [], [], []
    for seed in range(2000):
        legs = _legs(scenario, 10_000 + seed)
        p_concept.append(legs.p_concept)
        p_label.append(legs.p_label)
        lag1.append(np.column_stack([legs.p_label[:-1], legs.p_concept[1:]]))
    p_concept = np.concatenate(p_concept)
    p_label = np.concatenate(p_label)
    ks_c, ks_l = ks_distance(p_concept), ks_distance(p_label)
    bound = ks_uniform_bound(p_concept.size)
    lag0_stat, _ = pair_chisq(np.column_stack([p_concept, p_label]))
    lag1_stat, _ = pair_chisq(np.vstack(lag1))
    ok = (
        ks_c < bound
        and ks_l < bound
        and lag0_stat < CHISQ_CRITICAL
        and lag1_stat < CHISQ_CRITICAL
    )
    _report(
        "interleaving",
        ok,
        f"KS {ks_c:.5f}/{ks_l:.5f} vs {bound:.5f}; chi-square lag0 {lag0_stat:.1f} "
        f"lag1 {lag1_stat:.1f} vs {CHISQ_CRITICAL:.1f}",
    )
    assert ok


# --- criteria: Ville bound and exact decomposition -----------------------------


@pytest.fixture(scope="module")
def ville_runs():
    scenario = ScenarioConfig("iid", n_steps=1000, n_classes=2, dim=2)
    hits = np.zeros(3)
    max_deviation = 0.0
    n_runs = 1000
    for seed in range(n_runs):
        legs = _legs(scenario, seed)
        red = run_martingale(
            initial_state(STRATEGY, JUMP_RATE), legs.p_concept, legs.concept_provenance
        )
        green = run_martingale(
            initial_state(STRATEGY, JUMP_RATE), legs.p_label, legs.label_provenance
        )
        blue = product_martingale(red, green)
        for idx, traj in enumerate((red, green, blue)):
            hits[idx] += traj.log10_values.max() >= 1.0
        max_deviation = max(
            max_deviation,
            np.abs(
                blue.log10_values - (red.log10_values + green.log10_values)
            ).max(),
        )
    return hits / n_runs, max_deviation


def test_ville_bound_through_full_pipeline(ville_runs):
    frequencies, _ = ville_runs
    ok = bool((frequencies <= 0.13).all())
    _report(
        "ville-bound",
        ok,
        "freq(max capital >= 10) red/green/blue = "
        + "/".join(f"{f:.3f}" for f in frequencies)
        + " vs 0.13",
    )
    assert ok


def test_product_decomposition_exact_on_every_row(ville_runs):
    _, max_deviation = ville_runs
    ok = max_deviation <= 1e-9
    _report(
        "decomposition",
        ok,
        f"max |blue - (red + green)| over 1000 runs x 1001 rows = {max_deviation:.2e}",
    )
    assert ok


# --- criterion: directional shift separation -----------------------------------


def _median_finals(scenario, n_seeds=50):
    reds, greens = [], []
    for seed in range(n_seeds):
        legs = _legs(scenario, seed)
        reds.append(
            run_martingale(initial_state(STRATEGY, JUMP_RATE), legs.p_concept).final
        )
        greens.append(
            run_martingale(initial_state(STRATEGY, JUMP_RATE), legs.p_label).final
        )
    return float(np.median(reds)), float(np.median(greens))


def test_shift_separation_is_directional():
    concept = ScenarioConfig(
        "concept-shift",
        n_steps=1000,
        n_classes=2,
        dim=2,
        changepoint=500,
        shift_magnitude=2.0,
    )
    label = ScenarioConfig(
        "label-shift",
        n_steps=1000,
        n_classes=2,
        dim=2,
        changepoint=500,
        shift_magnitude=2.0,
    )
    concept_red, concept_green = _median_finals(concept)
    label_red, label_green = _median_finals(label)
    concept_gap = concept_red - concept_green
    label_gap = label_green - label_red
    ok = concept_gap >= 2.0 and label_gap >= 2.0
    _report(
        "shift-separation",
        ok,
        f"concept shift: median red {concept_red:.2f} - green {concept_green:.2f} "
        f"= {concept_gap:.2f} >= 2; label shift: green {label_green:.2f} - "
        f"red {label_red:.2f} = {label_gap:.2f} >= 2",
    )
    assert ok


# --- USPS qualitative report (non-gating) ---------------------------------------


def test_usps_qualitative_report():
    data_dir = os.environ.get("SHIFTMART_USPS")
    if not data_dir:
        _report("usps-qualitative", True, "SKIPPED (set SHIFTMART_USPS to run)")
        pytest.skip("USPS dataset not configured")
    train = os.path.join(data_dir, "zip.train")
    test = os.path.join(data_dir, "zip.test")
    if not (os.path.exists(train) and os.path.exists(test)):
        _report("usps-qualitative", True, f"SKIPPED (no zip.train/zip.test in {data_dir})")
        pytest.skip("USPS files missing")
    start = time.time()
    config = ExperimentConfig(
        data=UspsPaths(train, test),
        concept_measure="ratio",
        label_measure="ratio",
        strategy="sleepy-jumper",
        jump_rate=JUMP_RATE,
        seed=1,
    )
    table = run_experiment(config)
    elapsed = time.time() - start
    red_final = table.log10_red[-1]
    red_at_test_start = table.log10_red[-2008]
    growth_in_test_set = red_final - red_at_test_start
    detail = (
        f"n={table.n_steps}; red final {red_final:.2f} "
        f"({growth_in_test_set:.2f} of it over the last 2007 observations); "
        f"green final {table.log10_green[-1]:.2f} vs black final "
        f"{table.log10_black[-1]:.2f}; blue final {table.log10_blue[-1]:.2f} "
        f"[{elapsed:.0f}s]"
    )
    # reported, not asserted: headline magnitudes depend on the original
    # sleeper automaton and on the randomization
    _report("usps-qualitative", True, detail)
