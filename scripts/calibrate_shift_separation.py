#!/usr/bin/env python3
"""Monte Carlo calibration for the shift-separation acceptance margins.

Runs the concept-shift and label-shift scenarios over a seed sweep for a few
candidate pipeline settings and prints the median final log10 capitals of the
concept leg (red) and the label leg (green). The frozen acceptance test
asserts median(red) - median(green) >= 2 under concept shift and the reverse
under label shift; run this before changing any of the frozen parameters.
"""

import argparse
import time

import numpy as np

from shiftmart import ExperimentConfig, ScenarioConfig, run_experiment


def leg_finals(scenario, seed, concept_measure, label_measure, strategy, jump_rate):
    config = ExperimentConfig(
        scenario, concept_measure, label_measure, strategy, jump_rate=jump_rate, seed=seed
    )
    table = run_experiment(config)
    return table.log10_red[-1], table.log10_green[-1]


def sweep(scenario, seeds, concept_measure, label_measure, strategy, jump_rate):
    finals = np.array(
        [
            leg_finals(scenario, seed, concept_measure, label_measure, strategy, jump_rate)
            for seed in range(seeds)
        ]
    )
    return np.median(finals[:, 0]), np.median(finals[:, 1])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--n-steps", type=int, default=1000)
    parser.add_argument("--changepoint", type=int, default=500)
    parser.add_argument("--magnitude", type=float, default=2.0)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--jump-rates", type=float, nargs="+", default=[0.001, 0.01])
    parser.add_argument("--measures", nargs="+", default=["ratio"])
    args = parser.parse_args()

    for dim in args.dims:
        concept = ScenarioConfig(
            "concept-shift",
            n_steps=args.n_steps,
            n_classes=2,
            dim=dim,
            changepoint=args.changepoint,
            shift_magnitude=args.magnitude,
        )
        label = ScenarioConfig(
            "label-shift",
            n_steps=args.n_steps,
            n_classes=2,
            dim=dim,
            changepoint=args.changepoint,
            shift_magnitude=args.magnitude,
        )
        for measure in args.measures:
            for jump_rate in args.jump_rates:
                start = time.time()
                c_red, c_green = sweep(
                    concept, args.seeds, measure, measure, "simple-jumper", jump_rate
                )
                l_red, l_green = sweep(
                    label, args.seeds, measure, measure, "simple-jumper", jump_rate
                )
                elapsed = time.time() - start
                print(
                    f"dim={dim} measure={measure} J={jump_rate}: "
                    f"concept-shift red={c_red:7.2f} green={c_green:7.2f} "
                    f"(gap {c_red - c_green:6.2f}) | "
                    f"label-shift red={l_red:7.2f} green={l_green:7.2f} "
                    f"(gap {l_green - l_red:6.2f}) [{elapsed:.0f}s]"
                )


if __name__ == "__main__":
    main()
