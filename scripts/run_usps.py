#!/usr/bin/env python3
"""Run the four-martingale experiment on the USPS digits files.

Expects the classic whitespace-separated text files (label then 256 pixel
intensities in [-1, 1] per row), usually named zip.train and zip.test.
Prints the final log10 capitals of all four martingales and where the
concept-shift leg earned its growth, and optionally writes the trajectory
CSV for plotting. It takes the flags of ``shiftmart run`` that override a
config, ``--output`` among them, but not ``--config`` or the inert
``--reluctance``. Exits as ``shiftmart run`` does: 0 on success, 2 on a bad
flag value, 3 on a missing or malformed data file.
"""

import argparse
import sys
import time

from shiftmart import run_experiment, write_trajectory_csv
from shiftmart.cli import add_run_flags, config_from_dict, exit_code_of


def report(args) -> int:
    # flags left out keep the ExperimentConfig defaults, as in ``shiftmart run``
    overrides = {k: v for k, v in vars(args).items() if v is not None}
    paths = {"train_path": overrides.pop("train"), "test_path": overrides.pop("test")}
    config = config_from_dict({"data": {"kind": "usps", **paths}, **overrides})
    start = time.time()
    table = run_experiment(config)
    elapsed = time.time() - start

    n = table.n_steps
    concept, label = config.concept_measure, config.label_measure
    print(f"processed {n} observations in {elapsed:.0f}s")
    print(f"black (conformal, {concept}):        {table.log10_black[-1]:8.2f}")
    print(f"red   (label-conditional, {concept}): {table.log10_red[-1]:8.2f}")
    print(f"green (label conformal, {label}):     {table.log10_green[-1]:8.2f}")
    print(f"blue  (product red*green):                 {table.log10_blue[-1]:8.2f}")
    if n > 2007:
        over_test = table.log10_red[-1] - table.log10_red[n - 2007]
        print(f"red growth over the final 2007 observations: {over_test:8.2f}")
    if config.output:
        write_trajectory_csv(table, config.output)
        print(f"wrote {config.output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("train", help="path to zip.train")
    parser.add_argument("test", help="path to zip.test")
    add_run_flags(parser)
    args = parser.parse_args(argv)
    return exit_code_of(lambda: report(args))


if __name__ == "__main__":
    sys.exit(main())
