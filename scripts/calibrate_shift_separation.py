#!/usr/bin/env python3
"""Monte Carlo calibration for the shift-separation acceptance margins.

Runs the concept-shift and label-shift scenarios over a seed sweep for a few
candidate pipeline settings and prints the median final log10 capitals of the
concept leg (red) and the label leg (green). The frozen acceptance test
asserts median(red) - median(green) >= 2 under concept shift and the reverse
under label shift; run this before changing any of the frozen parameters.
A bad flag value exits 2 with a message.
"""

import argparse
import sys
import time

import numpy as np

from shiftmart import run_experiment
from shiftmart.cli import config_from_dict, exit_code_of


def sweep(data, seeds, measure, jump_rate):
    """Median final log10 capitals of the red and green legs over ``seeds`` seeds."""
    finals = []
    for seed in range(seeds):
        config = config_from_dict(
            {
                "data": data,
                "concept_measure": measure,
                "label_measure": measure,
                "strategy": "simple-jumper",
                "jump_rate": jump_rate,
                "seed": seed,
            }
        )
        table = run_experiment(config)
        finals.append((table.log10_red[-1], table.log10_green[-1]))
    finals = np.array(finals)
    return np.median(finals[:, 0]), np.median(finals[:, 1])


def calibrate(args) -> int:
    changepoint = args.n_steps // 2 if args.changepoint is None else args.changepoint
    for dim in args.dims:
        concept, label = (
            {
                "kind": "scenario",
                "scenario": scenario,
                "n_steps": args.n_steps,
                "n_classes": 2,
                "dim": dim,
                "changepoint": changepoint,
                "shift_magnitude": args.magnitude,
            }
            for scenario in ("concept-shift", "label-shift")
        )
        for measure in args.measures:
            for jump_rate in args.jump_rates:
                start = time.time()
                c_red, c_green = sweep(concept, args.seeds, measure, jump_rate)
                l_red, l_green = sweep(label, args.seeds, measure, jump_rate)
                elapsed = time.time() - start
                print(
                    f"dim={dim} measure={measure} J={jump_rate}: "
                    f"concept-shift red={c_red:7.2f} green={c_green:7.2f} "
                    f"(gap {c_red - c_green:6.2f}) | "
                    f"label-shift red={l_red:7.2f} green={l_green:7.2f} "
                    f"(gap {l_green - l_red:6.2f}) [{elapsed:.0f}s]"
                )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--n-steps", type=int, default=1000)
    parser.add_argument("--changepoint", type=int, help="default: half of --n-steps")
    parser.add_argument("--magnitude", type=float, default=2.0)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--jump-rates", type=float, nargs="+", default=[0.001, 0.01])
    parser.add_argument("--measures", nargs="+", default=["ratio"])
    args = parser.parse_args(argv)
    return exit_code_of(lambda: calibrate(args))


if __name__ == "__main__":
    sys.exit(main())
