"""Adaptive boundary control of a 1-D unstable heat equation.

Simulation of the plant, its boundary-trace observer and the
reciprocal-coefficient update law, plus the stabilizing and tracking
feedback loops built on them, with persistent excitation and spectral
cross-validation tooling and a CSV-emitting command line front end.
"""

__version__ = "0.1.0"

from .analysis import (
    InsufficientDuration,
    LimitSummary,
    PEVerdict,
    UnresolvableMode,
    galerkin_error_system,
    limit_diagnostics,
    pe_check,
    pi_inverse,
    pi_transform,
)
from .control import (
    ServoTerms,
    TruncationInsufficient,
    adaptive_u0,
    servo_boundary,
    servo_eval,
    zeta_step,
)
from .domain import (
    CflViolation,
    ConfigError,
    EstimatorParams,
    Grid,
    GridFunction,
    Params,
    ReferenceSignal,
    SimConfig,
    Trace,
    validate_config,
)
from .fdm import FluxBC, NonFiniteState, l2_norm, step_heat
from .scenarios import (
    BLOWUP_NORM,
    ScenarioState,
    benchmark_initial_state,
    run_error_system,
    run_observer,
    run_open_loop,
    run_stabilization,
    run_tracking,
)

__all__ = [
    "__version__",
    "BLOWUP_NORM",
    "CflViolation",
    "ConfigError",
    "EstimatorParams",
    "FluxBC",
    "Grid",
    "GridFunction",
    "InsufficientDuration",
    "LimitSummary",
    "NonFiniteState",
    "PEVerdict",
    "Params",
    "ReferenceSignal",
    "ScenarioState",
    "ServoTerms",
    "SimConfig",
    "Trace",
    "TruncationInsufficient",
    "UnresolvableMode",
    "adaptive_u0",
    "benchmark_initial_state",
    "galerkin_error_system",
    "l2_norm",
    "limit_diagnostics",
    "pe_check",
    "pi_inverse",
    "pi_transform",
    "run_error_system",
    "run_observer",
    "run_open_loop",
    "run_stabilization",
    "run_tracking",
    "servo_boundary",
    "servo_eval",
    "step_heat",
    "validate_config",
    "zeta_step",
]
