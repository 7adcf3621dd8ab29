"""Distributed classification over a network of partially informative agents.

Each agent sees observations through a classifier that only distinguishes a
subset of the possible classes.  Agents fold every observation into a local
belief, then pool beliefs with their neighbors — by default taking the
elementwise minimum, a process of elimination that rejects classes any
neighbor has ruled out.  The package pairs a simulation engine for these
dynamics with an analytical score engine that predicts how fast each false
class is rejected, and tools to verify the prediction empirically.
"""

__version__ = "0.1.0"

from .errors import (
    AsymmetricInput,
    ClassOutOfScope,
    ConfigError,
    DimensionMismatch,
    DisconnectedGraph,
    IdentifiabilityViolated,
    InsufficientSamples,
    MyopicCrowdError,
    ParseError,
    ReplayExhausted,
    RetriesExhausted,
    RowNotStochastic,
    ScopeMismatch,
    TrueClassInScope,
    UnknownClass,
)
from .world import (
    EPS,
    ROW_TOL,
    ClassSet,
    InputSpace,
    LikelihoodTable,
    World,
    build_world,
    load_world,
    world_from_dict,
    world_to_dict,
)
from .classifier import (
    AgentScope,
    BayesOracle,
    NoisySource,
    ReplaySource,
    load_replay_csv,
    make_scope,
    posterior_table,
    replay_source_from_csv,
    write_replay_csv,
)
from .scores import (
    ScoreReport,
    check_global_identifiability,
    confusion_score,
    discriminative_score,
    score_report,
    source_set,
    support_set,
)
from .dynamics import (
    CLAMP_TOL,
    LOG_FLOOR,
    local_trajectory,
)
from .network import (
    AgentGraph,
    erdos_renyi_connected,
    is_connected,
    load_graph,
)
from .config import (
    RATE_SLACK,
    RULES,
    ExperimentConfig,
    SourceSpec,
    config_from_dict,
    load_config,
    spawn_streams,
)
from .sim import (
    MIN_RATE_SAMPLES,
    TrajectoryLog,
    estimate_rejection_rate,
    first_identification,
    run_batch,
    run_experiment,
    summary,
    time_to_identification,
    write_outputs,
)

# The documented public surface; submodules stay reachable as
# ``myopic_crowd.<module>`` but are not re-exported.
__all__ = [
    # errors
    "AsymmetricInput",
    "ClassOutOfScope",
    "ConfigError",
    "DimensionMismatch",
    "DisconnectedGraph",
    "IdentifiabilityViolated",
    "InsufficientSamples",
    "MyopicCrowdError",
    "ParseError",
    "ReplayExhausted",
    "RetriesExhausted",
    "RowNotStochastic",
    "ScopeMismatch",
    "TrueClassInScope",
    "UnknownClass",
    # world
    "EPS",
    "ROW_TOL",
    "ClassSet",
    "InputSpace",
    "LikelihoodTable",
    "World",
    "build_world",
    "load_world",
    "world_from_dict",
    "world_to_dict",
    # classifier
    "AgentScope",
    "BayesOracle",
    "NoisySource",
    "ReplaySource",
    "load_replay_csv",
    "make_scope",
    "posterior_table",
    "replay_source_from_csv",
    "write_replay_csv",
    # scores
    "ScoreReport",
    "check_global_identifiability",
    "confusion_score",
    "discriminative_score",
    "score_report",
    "source_set",
    "support_set",
    # dynamics
    "CLAMP_TOL",
    "LOG_FLOOR",
    "local_trajectory",
    # network
    "AgentGraph",
    "erdos_renyi_connected",
    "is_connected",
    "load_graph",
    # config
    "RATE_SLACK",
    "RULES",
    "ExperimentConfig",
    "SourceSpec",
    "config_from_dict",
    "load_config",
    "spawn_streams",
    # sim
    "MIN_RATE_SAMPLES",
    "TrajectoryLog",
    "estimate_rejection_rate",
    "first_identification",
    "run_batch",
    "run_experiment",
    "summary",
    "time_to_identification",
    "write_outputs",
]
