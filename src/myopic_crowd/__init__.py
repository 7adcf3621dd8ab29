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
    EmptyNeighborhood,
    IdentifiabilityViolated,
    InsufficientSamples,
    MyopicCrowdError,
    NoRejector,
    ParseError,
    ReplayExhausted,
    RetriesExhausted,
    RowNotStochastic,
    ScopeMismatch,
    SymbolUnknown,
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
    sample_observation,
    save_world,
    world_from_dict,
    world_to_dict,
)
from .classifier import (
    AgentScope,
    BayesOracle,
    NoisySource,
    PosteriorVector,
    ReplaySource,
    load_replay_csv,
    make_scope,
    posterior,
    replay_source_from_csv,
    write_replay_csv,
)
from .scores import (
    ScoreReport,
    best_rejection_rate,
    check_global_identifiability,
    confusion_score,
    discriminative_score,
    empirical_score,
    score_report,
    source_set,
    support_set,
)
from .dynamics import (
    GLOBAL_RULES,
    LOG_FLOOR,
    BeliefState,
    Hood,
    LogRatioDiagnostic,
    global_update_avg,
    global_update_max,
    global_update_min,
    init_beliefs,
    local_update,
    log_ratio_diagnostics,
    logsumexp,
    neighborhood_csr,
    pool,
    with_global,
)
from .network import (
    AgentGraph,
    complete_graph,
    diameter,
    erdos_renyi_connected,
    is_connected,
    load_graph,
    path_graph,
    save_graph,
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
    run_experiment,
    run_rules,
    summary,
    time_to_identification,
    write_outputs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
