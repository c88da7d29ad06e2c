"""Anchored and accelerated fixed-point schemes for co-coercive and
monotone equations, with a verification layer that numerically
certifies their equivalences, potential decrease, and convergence-rate
bounds."""

from .operators import (
    OperatorSpec,
    ProblemInstance,
    ResolventSpec,
    bilinear_saddle_operator,
    from_nonexpansive,
    huber_saddle_operator,
    identity_operator,
    least_squares_operator,
    resolvent_apply,
    spectral_norm,
)
from .residuals import SplittingSpec, cocoercivity_report, fb_residual, tos_residual, yosida
from .schedules import SCHEDULE_KINDS, ScheduleParams, schedule_stream
from .schemes import (
    COMPATIBLE_SCHEDULES,
    SCHEME_KINDS,
    RunTrace,
    Solver,
    TraceOpts,
    run,
    solver_for,
)

__version__ = "0.1.0"

__all__ = [
    "OperatorSpec", "ProblemInstance", "ResolventSpec", "SplittingSpec",
    "ScheduleParams", "RunTrace", "Solver", "TraceOpts",
    "SCHEME_KINDS", "SCHEDULE_KINDS", "COMPATIBLE_SCHEDULES",
    "bilinear_saddle_operator", "from_nonexpansive", "huber_saddle_operator",
    "identity_operator", "least_squares_operator", "resolvent_apply",
    "spectral_norm", "cocoercivity_report", "fb_residual", "tos_residual",
    "yosida", "schedule_stream", "run", "solver_for",
]
