"""Multi-agent deep-Q load restoration laboratory for networked microgrids.

Learns circuit-breaker switching sequences that restore prioritized load after
an outage, enforcing power-flow feasibility through invalid-action masking,
and validates learned policies against a brute-force oracle.
"""

from .agent import (
    AgentPair,
    EpsilonSchedule,
    Hyperparameters,
    QNetwork,
    StackedLearner,
    UnderfilledBuffer,
    load_checkpoint,
    save_checkpoint,
)
from .builtins import BUILTIN_NAMES, builtin_feeder
from .environment import (
    EpisodeExhausted,
    InvalidJointAction,
    RestorationEnv,
    StepResult,
)
from .feeder import (
    Breaker,
    Bus,
    Feeder,
    FeederError,
    FeederParseError,
    FeederReferenceError,
    FeederValidationError,
    Generator,
    Line,
    LoadPoint,
    MicrogridPartition,
    feeder_hash,
    load_feeder,
    serialize_feeder,
    validate_feeder,
)
from .masking import MaskingError, exploit_joint, explore_joint
from .oracle import (
    OracleResult,
    TooManyBreakers,
    brute_force,
    decomposed_optimum,
)
from .powerflow import (
    ConstraintReport,
    Island,
    PowerFlowSolution,
    check_constraints,
    islands,
    restored_power,
    solve,
)
from .training import (
    EpisodeLog,
    RestorationTrace,
    TraceEntry,
    TrainingConfig,
    compare,
    convergence_episode,
    execute,
    load_models,
    save_models,
    train,
    write_comparison_csv,
    write_episodes_csv,
    write_trace_csv,
)

__version__ = "0.1.0"
