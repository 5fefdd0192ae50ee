"""Time two source trees against each other, one fresh process per side.

Usage: python scripts/ab_time.py A_SRC B_SRC --shape n,d,K [--rounds R]

A_SRC and B_SRC are checkouts, each with the package under ``src/shiftmart``.
Each round starts one process per tree, A first in even rounds and B first in
odd ones. A process imports only its own tree and times, on an IID stream of
n points of dimension d with K classes (the round's seed): ``NnCache().extend``
of the stream; ``interleave`` with the ``same-class`` concept leg, the
``ratio`` label leg and the black leg, less the time of its own ``extend``
call (the replay); and ``run_experiment`` of the same shape plus writing its
CSV. For each timing the script prints each side's median and quartiles, the
B/A ratio of each round, and the rounds B won. Exit codes: 0 on success, 2 on
bad arguments, 3 on a tree without ``src/shiftmart``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIMINGS = ("extend_s", "replay_s", "experiment_s")


def child(src: str, n: int, d: int, n_classes: int, seed: int) -> dict:
    """The three timings of one process that imports the package from ``src``."""
    sys.path.insert(0, src)
    from shiftmart import (
        ExperimentConfig,
        NnCache,
        RandomSource,
        ScenarioConfig,
        generate,
        interleave,
        run_experiment,
        write_trajectory_csv,
    )
    from shiftmart import transducer

    stream = generate(ScenarioConfig("iid", n, n_classes, d), RandomSource(seed, "scenario"))
    start = time.perf_counter()
    NnCache().extend(stream)
    extend_s = time.perf_counter() - start

    inner = []

    class TimedCache(NnCache):
        def extend(self, stream):
            start = time.perf_counter()
            log = super().extend(stream)
            inner.append(time.perf_counter() - start)
            return log

    transducer.NnCache = TimedCache
    sources = (RandomSource(seed, name) for name in ("tau", "tau-prime", "tau-black"))
    start = time.perf_counter()
    interleave(stream, "same-class", "ratio", *sources)
    replay_s = time.perf_counter() - start - sum(inner)
    transducer.NnCache = NnCache

    config = ExperimentConfig(
        ScenarioConfig("iid", n_steps=n, n_classes=n_classes, dim=d),
        concept_measure="same-class",
        seed=seed,
    )
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        write_trajectory_csv(run_experiment(config), str(Path(tmp) / "run.csv"))
        experiment_s = time.perf_counter() - start
    return {"extend_s": extend_s, "replay_s": replay_s, "experiment_s": experiment_s}


def timed_process(src: Path, shape: tuple[int, int, int], seed: int) -> dict:
    command = [sys.executable, __file__, "--child", str(src), ",".join(map(str, shape)), str(seed)]
    result = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4f} [{low:.4f}, {high:.4f}]"


def parse_shape(text: str) -> tuple[int, int, int]:
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not three integers n,d,K: {text!r}") from None
    if len(shape) != 3 or min(shape) < 1:
        raise argparse.ArgumentTypeError(f"not three positive integers n,d,K: {text!r}")
    return shape


def positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        src, shape, seed = argv[1:]
        print(json.dumps(child(src, *parse_shape(shape), int(seed))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", type=Path, metavar="A_SRC")
    parser.add_argument("b_src", type=Path, metavar="B_SRC")
    parser.add_argument("--shape", type=parse_shape, required=True, help="n,d,K")
    parser.add_argument("--rounds", type=positive, default=10)
    args = parser.parse_args(argv)
    trees = []
    for tree in (args.a_src, args.b_src):
        if not (tree / "src" / "shiftmart" / "__init__.py").is_file():
            print(f"error: no src/shiftmart under {tree}", file=sys.stderr)
            return 3
        trees.append((tree / "src").resolve())
    runs = {"A": [], "B": []}
    for round_ in range(args.rounds):
        order = ("A", "B") if round_ % 2 == 0 else ("B", "A")
        for side in order:
            runs[side].append(timed_process(trees[side == "B"], args.shape, seed=round_))
    for key in TIMINGS:
        a = [run[key] for run in runs["A"]]
        b = [run[key] for run in runs["B"]]
        ratios = [y / x for x, y in zip(a, b)]
        print(f"{key}: A {quartiles(a)}  B {quartiles(b)}")
        print(f"  B/A per round: {' '.join(f'{r:.3f}' for r in ratios)}")
        print(f"  B faster in {sum(r < 1 for r in ratios)} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
