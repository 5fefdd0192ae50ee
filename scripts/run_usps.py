#!/usr/bin/env python3
"""Run the four-martingale experiment on the USPS digits files.

Expects the classic whitespace-separated text files (label then 256 pixel
intensities in [-1, 1] per row), usually named zip.train and zip.test.
Prints the final log10 capitals of all four martingales and where the
concept-shift leg earned its growth, and optionally writes the trajectory
CSV for plotting.
"""

import argparse
import sys
import time

from shiftmart import ExperimentConfig, UspsPaths, run_experiment, write_trajectory_csv
from shiftmart.betting import STRATEGY_TAGS
from shiftmart.conformity import NN_VARIANTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("train", help="path to zip.train")
    parser.add_argument("test", help="path to zip.test")
    parser.add_argument("--concept-measure", choices=NN_VARIANTS, default="ratio")
    parser.add_argument("--label-measure", choices=NN_VARIANTS, default="ratio")
    parser.add_argument("--strategy", choices=STRATEGY_TAGS, default="sleepy-jumper")
    parser.add_argument("--jump-rate", type=float, default=0.001)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--shared-randomization", action="store_true")
    parser.add_argument("--out", default=None, help="trajectory CSV output path")
    args = parser.parse_args(argv)

    config = ExperimentConfig(
        data=UspsPaths(args.train, args.test),
        concept_measure=args.concept_measure,
        label_measure=args.label_measure,
        strategy=args.strategy,
        jump_rate=args.jump_rate,
        seed=args.seed,
        shared_randomization=args.shared_randomization,
    )
    start = time.time()
    table = run_experiment(config)
    elapsed = time.time() - start

    n = table.n_steps
    print(f"processed {n} observations in {elapsed:.0f}s")
    print(f"black (conformal, {args.concept_measure}):        {table.log10_black[-1]:8.2f}")
    print(f"red   (label-conditional, {args.concept_measure}): {table.log10_red[-1]:8.2f}")
    print(f"green (label conformal, {args.label_measure}):     {table.log10_green[-1]:8.2f}")
    print(f"blue  (product red*green):                 {table.log10_blue[-1]:8.2f}")
    if n > 2007:
        over_test = table.log10_red[-1] - table.log10_red[n - 2007]
        print(f"red growth over the final 2007 observations: {over_test:8.2f}")
    if args.out:
        write_trajectory_csv(table, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
