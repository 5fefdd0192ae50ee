#!/usr/bin/env python3
"""Record the pinned outputs of each workload's default seed block.

    python3 perfbench/pin.py

Runs the first experiments of the block that ``run.py --seed 1`` runs and
writes ``perfbench/pins.json``: for the jumper workloads the sha256 of each
trajectory CSV, for ``mixture`` the final and maximum log10 capital of each
leg. ``run.py`` checks every experiment whose config seed has a pin. Rewrite
the pins only for a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import bench
from run import HERE, SEED_STRIDE, WORK, WORKLOADS

DEFAULT_SEED = 1
PINNED = {"usps-shape": 8, "mc-small": 128, "mixture": 32}


def main() -> int:
    pins = {}
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        csv_path = os.path.join(work, "pin.csv")
        for name, count in PINNED.items():
            spec = WORKLOADS[name]
            pins[name] = {}
            for i in range(count):
                config = bench.experiment_config(spec, DEFAULT_SEED * SEED_STRIDE + i)
                table = bench.run_and_write(config, csv_path)
                failures = bench.check_output(table, csv_path, {})
                if failures:
                    print(f"{name} seed {config.seed}: {failures}", file=sys.stderr)
                    return 1
                pins[name][str(config.seed)] = bench.pin_values(table, csv_path, spec["strategy"])
            print(f"{name}: pinned {count} experiments", file=sys.stderr)
    with open(HERE / "pins.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
