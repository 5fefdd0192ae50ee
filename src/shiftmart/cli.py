"""End-user entry point: data ingestion, experiment runs, CSV/JSON emission.

One experiment streams a dataset (the USPS digits files or a synthetic
scenario) through ``transducer.interleave``, the single pass over one
nearest-neighbour cache, and bets on the p-values of each leg, which gives
four martingale trajectories:

    black   plain conformal p-values on the concept measure's scores
    red     label-conditional p-values on the concept measure's scores
            (concept-shift detector)
    green   plain conformal p-values on class-averaged scores of the label
            measure (label-shift detector)
    blue    product of red and green, the perfectly decomposable
            exchangeability martingale

Each leg draws its tie-breaking values from its own named substream of the
experiment seed ("tau-black", "tau", "tau-prime"), so legs can be added or
removed without disturbing each other; with ``shared_randomization`` all
draws come from one "shared" substream (order per step: black, red, green),
mirroring the single-seed shortcut some older experiments used.

Exit codes: 0 success, 2 config error, 3 data error, 4 internal invariant
violation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .betting import STRATEGY_TAGS, initial_state, product_martingale, run_martingale
from .conformity import NN_VARIANTS
from .core import RandomSource, Stream, integer_field
from .synth import ScenarioConfig, generate, ks_distance, pair_chisq
from .transducer import interleave

USPS_DIM = 256
USPS_FIELDS = USPS_DIM + 1
_FEATURE_TOL = 1e-6
# Largest |blue - (red + green)| a TrajectoryTable may hold.
_DECOMPOSITION_TOL = 1e-9

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    """Bad experiment configuration (exit code 2)."""


class DataError(Exception):
    """Unreadable or malformed input data (exit code 3)."""


class InvariantViolation(Exception):
    """An internal consistency check failed (exit code 4)."""


# ---------------------------------------------------------------------------
# USPS ingestion
# ---------------------------------------------------------------------------


def _parse_usps_file(path: str) -> tuple[list[np.ndarray], list[int]]:
    """The feature vectors and labels of the rows of one USPS file."""
    rows, labels = [], []
    try:
        # a byte outside ASCII decodes to a lone surrogate, which no number
        # parses, so its row is refused like any other unparsable row
        handle = open(path, "r", encoding="ascii", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != USPS_FIELDS:
                raise DataError(
                    f"{path}:{lineno}: expected {USPS_FIELDS} fields, got {len(fields)}"
                )
            try:
                # float() and numpy read "0_5" as 5, and no USPS file holds "_"
                if "_" in line:
                    raise ValueError("a field holds a digit-grouping underscore")
                raw_label = float(fields[0])
                features = np.array(fields[1:], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparsable number: {exc}") from exc
            # round() raises on inf and NaN; -1 fails the range check instead
            label = round(raw_label) if math.isfinite(raw_label) else -1
            if abs(raw_label - label) > _FEATURE_TOL or not 0 <= label <= 9:
                raise DataError(
                    f"{path}:{lineno}: label must be an integer in 0..9, got {fields[0]}"
                )
            if not np.isfinite(features).all() or np.abs(features).max() > 1.0 + _FEATURE_TOL:
                raise DataError(
                    f"{path}:{lineno}: feature out of [-1, 1] beyond tolerance"
                )
            rows.append(features)
            labels.append(label)
    return rows, labels


def load_usps(train_path: str, test_path: str) -> Stream:
    """Load the USPS digits text files, train rows first then test rows.

    Each row is whitespace-separated: an integer label 0-9 followed by 256
    pixel intensities in [-1, 1]. Malformed rows raise DataError naming the
    file and line. The rows are checked as they are parsed. The stream
    makes one array of objects from them, and the array of labels is
    frozen, so the stream keeps both without a copy.
    """
    train_rows, train_labels = _parse_usps_file(train_path)
    test_rows, test_labels = _parse_usps_file(test_path)
    if not train_rows and not test_rows:
        raise DataError(f"no observations in {train_path} + {test_path}")
    labels = np.array(train_labels + test_labels)
    labels.flags.writeable = False
    return Stream(train_rows + test_rows, labels)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


def _is_path(value) -> bool:
    """True for a string open() takes as a path. It would take an integer (or a
    bool) as a file descriptor, it names no file with an empty string, it
    raises ValueError on a NUL character, and UnicodeEncodeError on a string
    the file system encoding cannot encode, such as a lone surrogate from a
    JSON escape."""
    if not isinstance(value, str) or not value or "\0" in value:
        return False
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class UspsPaths:
    train_path: str
    test_path: str

    def __post_init__(self):
        for name in ("train_path", "test_path"):
            value = getattr(self, name)
            if not _is_path(value):
                raise ConfigError(f"{name} must be a path string, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a data source plus the three run components."""

    data: UspsPaths | ScenarioConfig
    concept_measure: str = "ratio"
    label_measure: str | None = "ratio"
    strategy: str = "simple-jumper"
    jump_rate: float = 0.001
    reluctance: float = 0.01
    seed: int = 1
    shared_randomization: bool = False
    output: str | None = None

    def __post_init__(self):
        if self.concept_measure not in NN_VARIANTS:
            raise ConfigError(f"unknown concept_measure {self.concept_measure!r}")
        if self.label_measure is not None and self.label_measure not in NN_VARIANTS:
            raise ConfigError(f"unknown label_measure {self.label_measure!r}")
        try:
            # the strategy's fields are checked by building the state a run starts from
            state = initial_state(self.strategy, self.jump_rate, self.reluctance)
            seed = integer_field("seed", self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "jump_rate", state.jump_rate)
        object.__setattr__(self, "reluctance", state.reluctance)
        object.__setattr__(self, "seed", seed)
        shared = self.shared_randomization
        if not isinstance(shared, bool):
            raise ConfigError(f"shared_randomization must be a bool, got {shared!r}")
        if self.output is not None and not _is_path(self.output):
            raise ConfigError(f"output must be a path string or null, got {self.output!r}")


_CONFIG_KEYS = {field.name for field in dataclasses.fields(ExperimentConfig)}
_DATA_KINDS = {"usps": UspsPaths, "scenario": ScenarioConfig}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON document schema."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "data" not in raw:
        raise ConfigError("config requires a 'data' section")
    data_raw = raw["data"]
    if not isinstance(data_raw, dict) or "kind" not in data_raw:
        raise ConfigError("'data' must be an object with a 'kind' field")
    kind = data_raw["kind"]
    if not isinstance(kind, str) or kind not in _DATA_KINDS:
        raise ConfigError(f"unknown data kind {kind!r}")
    fields = {k: v for k, v in data_raw.items() if k != "kind"}
    try:
        data = _DATA_KINDS[kind](**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid data section: {exc}") from exc
    kwargs = {k: v for k, v in raw.items() if k != "data"}
    try:
        return ExperimentConfig(data=data, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read the JSON config file and apply CLI flag overrides."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal beyond Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# The four-martingale run
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TrajectoryTable:
    """Per-step p-values and the four log10 trajectories of one run.

    ``p_label``, ``log10_green`` and ``log10_blue`` make up the label leg:
    all None when the run had no label-measure leg, else all arrays. The
    table's contract, which ``checked`` enforces: ``p_concept``,
    ``log10_black`` and ``log10_red`` are present; the label leg is all
    present or all absent; each column is an ndarray; a p column has one
    entry per step, at least one, each in [0, 1] (NaN refused); a
    trajectory has one entry more, for the initial capital, is finite and
    starts at 0; no entry is -0.0, which no run writes; and blue is within
    1e-9 of red + green.

    The constructor does not check, so that the benchmark's self-test can
    build broken tables to test its own output check. Every table the library makes, reads or writes
    passes through ``checked``: ``run_experiment``, ``read_trajectory_csv``
    and ``render_trajectory_csv``.
    """

    p_concept: np.ndarray
    p_label: np.ndarray | None
    log10_black: np.ndarray
    log10_red: np.ndarray
    log10_green: np.ndarray | None
    log10_blue: np.ndarray | None

    def checked(self) -> TrajectoryTable:
        """This table, or ValueError naming the first rule of the contract it breaks."""
        absent = tuple(name for name in _COLUMNS if getattr(self, name) is None)
        for name in absent:
            if name not in _LABEL_LEG:
                raise ValueError(f"{name} is missing")
        if absent and absent != _LABEL_LEG:
            raise ValueError(f"{', '.join(_LABEL_LEG)} must be all filled or all empty")
        n = np.size(self.p_concept)
        if n == 0:
            raise ValueError("p_concept is empty: a table has at least one step")
        for name in [name for name in _COLUMNS if name not in absent]:
            values = getattr(self, name)
            is_p = name.startswith("p_")
            shape = (n + (not is_p),)
            if not isinstance(values, np.ndarray) or values.shape != shape:
                got = f"{type(values).__name__} {np.shape(values)}"
                raise ValueError(f"{name} is {got}, expected ndarray {shape}")
            if is_p and not ((values >= 0.0) & (values <= 1.0)).all():
                raise ValueError(f"{name} holds a value outside [0, 1] or NaN")
            if not is_p and not np.isfinite(values).all():
                raise ValueError(f"{name} holds a value that is not finite")
            if not is_p and values[0] != 0.0:
                raise ValueError(f"{name} must start at 0, got {float(values[0])!r}")
            if (np.signbit(values) & (values == 0.0)).any():
                raise ValueError(f"{name} holds -0.0, which no run writes")
        if self.log10_blue is not None:
            # a sum that overflows is infinitely far from blue, not a warning
            with np.errstate(over="ignore"):
                gap = np.abs(self.log10_blue - (self.log10_red + self.log10_green)).max()
            if gap > _DECOMPOSITION_TOL:
                raise ValueError(f"log10_blue is {gap:.3g} away from log10_red + log10_green")
        return self

    def __eq__(self, other):
        if not isinstance(other, TrajectoryTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    @property
    def n_steps(self) -> int:
        return self.p_concept.size


def _load_stream(config: ExperimentConfig) -> Stream:
    if isinstance(config.data, UspsPaths):
        return load_usps(config.data.train_path, config.data.test_path)
    scenario_seed = config.data.seed if config.data.seed is not None else config.seed
    return generate(config.data, RandomSource(scenario_seed, "scenario"))


def run_experiment(config: ExperimentConfig) -> TrajectoryTable:
    """Bet on the p-values of one ``interleave`` pass, emitting all four trajectories.

    Deterministic given the config: the scenario, the black leg and the two
    product legs each consume their own substream of the experiment seed.
    """
    stream = _load_stream(config)
    if config.shared_randomization:
        shared = RandomSource(config.seed, "shared")
        tau_black_src = tau_src = tau_prime_src = shared
    else:
        tau_black_src = RandomSource(config.seed, "tau-black")
        tau_src = RandomSource(config.seed, "tau")
        tau_prime_src = RandomSource(config.seed, "tau-prime")

    legs = interleave(
        stream, config.concept_measure, config.label_measure, tau_src, tau_prime_src, tau_black_src
    )
    p_legs = [p for p in (legs.p_black, legs.p_concept, legs.p_label) if p is not None]
    in_range = np.logical_and.reduce([(p >= 0.0) & (p <= 1.0) for p in p_legs])
    if not in_range.all():
        raise InvariantViolation(f"p-value out of range at step {np.argmin(in_range) + 1}")

    def bet(p_values, provenance):
        state = initial_state(config.strategy, config.jump_rate, config.reluctance)
        return run_martingale(state, p_values, provenance)

    black = bet(legs.p_black, tau_black_src.describe())
    red = bet(legs.p_concept, legs.concept_provenance)
    log10_green = log10_blue = None
    if legs.p_label is not None:
        green = bet(legs.p_label, legs.label_provenance)
        blue = product_martingale(red, green, allow_shared=config.shared_randomization)
        log10_green, log10_blue = green.log10_values, blue.log10_values
    try:
        return TrajectoryTable(
            legs.p_concept,
            legs.p_label,
            black.log10_values,
            red.log10_values,
            log10_green,
            log10_blue,
        ).checked()
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

# The CSV has the step count n, then one column per TrajectoryTable field in
# field order. Row n=0 holds the initial capitals and leaves the p columns
# empty; an absent label leg leaves its columns empty in every row.
_COLUMNS = tuple(field.name for field in dataclasses.fields(TrajectoryTable))
_LABEL_LEG = ("p_label", "log10_green", "log10_blue")
CSV_HEADER = ",".join(("n",) + _COLUMNS)


def render_trajectory_csv(table: TrajectoryTable) -> str:
    """Format the table as CSV text; floats use shortest round-trip formatting.

    Row n=0 carries the initial capitals and empty p fields. A table that
    breaks the ``TrajectoryTable`` contract raises ValueError, so no file is
    written that ``read_trajectory_csv`` would refuse.
    """
    rows = table.checked().n_steps + 1
    columns = [map(str, range(rows))]
    for name in _COLUMNS:
        values = getattr(table, name)
        cells = [] if values is None else list(map(repr, values.tolist()))
        # leading blanks: row 0 of a p column, every row of an absent column
        columns.append([""] * (rows - len(cells)) + cells)
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def write_trajectory_csv(table: TrajectoryTable, path: str) -> None:
    """Emit the table to ``path``, following symbolic links to their target.

    A new path or a regular file is written atomically, leaving no partial
    output: a temporary next to the target replaces it, so a link to it
    stays a link. The temporary is a new file under a short name of this
    call's own, created with the permissions of ``open`` (0o666 less the
    umask), so no existing file, directory or link is opened or removed,
    and the target may have any name its directory takes. An existing file
    that is not regular, such as a FIFO or a device, is written in place,
    since replacing it would put a regular file where its reader or the
    device was. A path that cannot be written (a missing directory, a
    directory at ``path``, a full device) raises ConfigError naming it.
    """
    text = render_trajectory_csv(table)
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        try:
            with open(target, "w", encoding="ascii") as out:
                out.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
        return
    tmp = os.path.join(os.path.dirname(target), f".shiftmart-{os.urandom(8).hex()}.tmp")
    created = False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with open(fd, "w", encoding="ascii") as out:
            out.write(text)
        os.replace(tmp, target)
    except BaseException as exc:
        if created:
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
        raise


def read_trajectory_csv(path: str) -> TrajectoryTable:
    """Parse a trajectory CSV back into a table (inverse of write).

    Anything ``render_trajectory_csv`` could not have written raises
    DataError naming the file: a wrong header, a row of the wrong width (a
    blank line included), a last line without its newline, an ``n`` column
    other than 0, 1, ..., N, p-value cells on row 0, a cell that is not a
    float in its shortest round-trip form (``repr``), or a table that breaks
    the ``TrajectoryTable`` contract.
    """
    try:
        # "\n" alone ends a line, and is kept, so a "\r" stays in its cell
        with open(path, "r", encoding="ascii", newline="\n") as handle:
            lines = list(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if lines and not lines[-1].endswith("\n"):
        raise DataError(f"{path}: the last line does not end in a newline")
    if not lines or lines[0] != CSV_HEADER + "\n":
        raise DataError(f"{path}: missing or wrong header")
    rows = [line[:-1].split(",") for line in lines[1:]]
    if not rows or any(len(r) != len(_COLUMNS) + 1 for r in rows):
        raise DataError(f"{path}: malformed rows")
    for k, row in enumerate(rows):
        if row[0] != str(k):
            raise DataError(f"{path}: expected n = {k}, got {row[0]!r}")
    columns = {}
    # a cell that is not a float and a table that breaks the contract both
    # raise ValueError
    try:
        for name, cells in zip(_COLUMNS, list(zip(*rows))[1:]):
            is_p = name.startswith("p_")
            if is_p and cells[0]:
                raise DataError(f"{path}: row n=0 must leave the p-value cells empty")
            cells = cells[is_p:]
            values = [float(c) for c in cells] if any(cells) else []
            if any(repr(v) != c for v, c in zip(values, cells)):
                raise DataError(f"{path}: {name} holds a number not in shortest round-trip form")
            columns[name] = np.array(values) if values else None
        return TrajectoryTable(**columns).checked()
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def _sweep_worker(args):
    config, seed, out_path = args
    run_config = dataclasses.replace(config, seed=seed)
    table = run_experiment(run_config)
    write_trajectory_csv(table, out_path)
    return out_path


def _cmd_run(args) -> int:
    # every run flag is stored under its config field's name; None means absent
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
    config = load_config(args.config, overrides)
    table = run_experiment(config)
    if config.output:
        write_trajectory_csv(table, config.output)
    else:
        sys.stdout.write(render_trajectory_csv(table))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out_dir}: {exc}") from exc
    base = args.seed if args.seed is not None else config.seed
    tasks = [
        (config, base + i, os.path.join(args.out_dir, f"seed{base + i}.csv"))
        for i in range(args.seeds)
    ]
    # a fork-started pool starts every worker at the first task: no more than one per seed
    workers = min(args.workers, len(tasks))
    if workers == 1:
        for task in tasks:
            print(_sweep_worker(task))
    else:
        # imported here: the pool's modules add set-up time to every other command
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for path in pool.map(_sweep_worker, tasks):
                print(path)
    return EXIT_OK


def _cmd_report(args) -> int:
    table = read_trajectory_csv(args.trajectory)
    report = {}
    for name, p in (("p_concept", table.p_concept), ("p_label", table.p_label)):
        if p is not None:
            report[name] = {"ks_distance": ks_distance(p), "sample_count": p.size}
    if table.p_label is not None:
        stat, df = pair_chisq(np.column_stack([table.p_concept, table.p_label]))
        report["pair"] = {"chisq_stat": stat, "chisq_df": df}
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


# one process per ``sweep`` worker: a mistyped ``--workers`` cannot start thousands
_MAX_WORKERS = 64
# one CSV file per ``sweep`` seed, and one task built per seed before any runs
_MAX_SEEDS = 100_000


def _count(cap: int):
    """argparse type for a count: an integer from 1 up to ``cap``, else exit code 2."""
    # argparse is imported by the command line alone, not by the library
    import argparse

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
        if value > cap:
            raise argparse.ArgumentTypeError(f"expected at most {cap}, got {text!r}")
        return value

    return parse


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="shiftmart",
        description="Conformal martingales separating concept shift from label shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--output", default=None, help="CSV output path (default stdout)")
    run.add_argument("--concept-measure", dest="concept_measure", choices=NN_VARIANTS)
    run.add_argument("--label-measure", dest="label_measure", choices=NN_VARIANTS)
    run.add_argument("--strategy", choices=STRATEGY_TAGS)
    run.add_argument("--jump-rate", dest="jump_rate", type=float, default=None)
    run.add_argument("--reluctance", type=float, default=None)
    run.add_argument(
        "--shared-randomization",
        dest="shared_randomization",
        action="store_true",
        default=None,
        help="draw all tie-breaking values from one substream (compatibility mode)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="fan one config out over many seeds")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seeds", type=_count(_MAX_SEEDS), required=True, help="number of seeds")
    sweep.add_argument("--seed", type=int, default=None, help="first seed (default: config seed)")
    sweep.add_argument("--out-dir", dest="out_dir", required=True)
    workers = min(os.cpu_count() or 1, _MAX_WORKERS)
    sweep.add_argument("--workers", type=_count(_MAX_WORKERS), default=workers)
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report", help="uniformity statistics of the p-values in a trajectory CSV")
    report.add_argument("trajectory", help="trajectory CSV emitted by run")
    report.set_defaults(func=_cmd_report)
    return parser


def exit_code_of(action) -> int:
    """``action()``, or exit code 2, 3 or 4 with the message on stderr if it
    raises ConfigError, DataError or InvariantViolation."""
    try:
        return action()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return exit_code_of(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
