"""Stochastic operator-splitting solvers for structured monotone inclusions.

Find x with 0 in V(x) + T(x), where V is a Lipschitz monotone map available
only through a stochastic sampling oracle and T is maximally monotone with
a cheap resolvent. The main solver combines inertial extrapolation,
a forward-backward-forward update with two independent mini-batches, and
relaxation; baselines, merit functions, rate envelopes, built-in problem
families, and a replication harness round out the package.
"""

from .core import (
    BallSet,
    BoxSet,
    NumericFailure,
    UnsupportedOperation,
    operator_norm,
    project_ball,
    project_box,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RunReport,
    compare,
    confidence_interval,
    load_config,
    run_experiment,
)
from .merit import (
    GapRegion,
    dual_gap_affine,
    energy_H,
    residual,
)
from .oracle import (
    BatchSchedule,
    StochasticOracle,
    batch_size,
    empirical_variance,
    minibatch_estimate,
)
from .policy import (
    PolicyViolation,
    RegimePolicy,
    alpha_at,
    lambda_strong,
    schedule,
    schedule_at,
    validate,
)
from .problems import (
    ProblemInstance,
    cap_build,
    cournot_build,
    synthetic_build,
)
from .solvers import (
    METHODS,
    RunResult,
    SolverConfig,
    SolverState,
    Trajectory,
    init_state,
    proxpoint_step,
    risfbf_step,
    run,
    sa_step,
    seg_step,
    sfbf_step,
)
from .theory import (
    contraction_q,
    geometric_constant,
    noise_envelope_B,
    oracle_cost,
    poly_rate_constant,
    tau_eps,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
