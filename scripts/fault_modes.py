"""Summarise the page faults of ``perfbench/run.py`` records.

Usage: python scripts/fault_modes.py PATH...

Each PATH is a record that ``perfbench/run.py`` wrote, or a directory of
them such as ``.bench_out/results``. Per record it prints the workload, the
config seed block, the median ``wall_s`` and ``minor_faults`` of its timed
experiments, and how many of them faulted more than 500 pages back in: an
experiment that does is in the faulting mode that ROADMAP item 1 describes.
Exit codes: 0 on success, 2 on a missing argument, 3 on a record that cannot
be read.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# An experiment faulting more pages than this has had its heap trimmed and
# grown again; one that has not faults at most a few hundred.
FAULTING_PAGES = 500


def summary(record: dict) -> str:
    """One line for one record: workload, seed, medians and faulting count."""
    timed = [e for e in record["experiments"] if "wall_s" in e]
    faults = [e["minor_faults"] for e in timed]
    return (
        f"{record['workload']} seed={record['seed']} experiments={len(timed)}"
        f" wall_s={statistics.median(e['wall_s'] for e in timed):.4f}"
        f" minor_faults={statistics.median(faults):g}"
        f" faulting={sum(f > FAULTING_PAGES for f in faults)}"
    )


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: fault_modes.py PATH...", file=sys.stderr)
        return 2
    for arg in argv:
        path = Path(arg)
        for name in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            try:
                with open(name, encoding="utf-8") as handle:
                    line = summary(json.load(handle))
            except (OSError, ValueError, KeyError, TypeError, statistics.StatisticsError) as exc:
                print(f"{name}: not a run record ({exc!r})", file=sys.stderr)
                return 3
            print(f"{name}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
