"""Conformal test martingales that split dataset-shift evidence into a
concept-shift component and a label-shift component.

The pipeline: nearest-neighbour conformity scores over a growing prefix
(:mod:`shiftmart.conformity`) feed rank-based randomized p-values
(:mod:`shiftmart.transducer`) that betting strategies gamble against
(:mod:`shiftmart.betting`). The label-conditional leg stays a martingale
whenever objects are exchangeable within each label class, so it reacts to
concept shift only; the class-averaged leg reacts to label shift; their
product is an exchangeability martingale that decomposes perfectly into the
two. Synthetic scenario generators live in :mod:`shiftmart.synth`, and
:mod:`shiftmart.cli` runs full experiments on the USPS digits or synthetic
streams, emitting CSV trajectories.
"""

from .betting import (
    STRATEGY_TAGS,
    BettingState,
    MartingaleTrajectory,
    bet_step,
    check_betting_validity,
    initial_state,
    product_martingale,
    run_martingale,
)
from .cli import (
    ExperimentConfig,
    TrajectoryTable,
    UspsPaths,
    load_usps,
    read_trajectory_csv,
    render_trajectory_csv,
    run_experiment,
    write_trajectory_csv,
)
from .conformity import NN_VARIANTS, NnCache, class_means, label_average, nn_scores, score_nn
from .core import Label, Observation, RandomSource, Stream
from .synth import (
    SCENARIOS,
    ScenarioConfig,
    generate,
    ks_distance,
    ks_uniform_bound,
    pair_chisq,
)
from .transducer import (
    InterleavedPValues,
    interleave,
    p_conformal,
    p_label_conditional,
)

__version__ = "0.1.0"

__all__ = [
    "BettingState",
    "ExperimentConfig",
    "InterleavedPValues",
    "Label",
    "MartingaleTrajectory",
    "NN_VARIANTS",
    "NnCache",
    "Observation",
    "RandomSource",
    "SCENARIOS",
    "STRATEGY_TAGS",
    "ScenarioConfig",
    "Stream",
    "TrajectoryTable",
    "UspsPaths",
    "bet_step",
    "check_betting_validity",
    "class_means",
    "generate",
    "initial_state",
    "interleave",
    "ks_distance",
    "ks_uniform_bound",
    "label_average",
    "load_usps",
    "nn_scores",
    "p_conformal",
    "p_label_conditional",
    "pair_chisq",
    "product_martingale",
    "read_trajectory_csv",
    "render_trajectory_csv",
    "run_experiment",
    "run_martingale",
    "score_nn",
    "write_trajectory_csv",
]
