"""Iteration steps, the trace-producing run driver, and composed solvers.

Every step consumes an :class:`IterateState`, one operator, and one
:class:`~anchored.schedules.ScheduleParams`, mutates the state in place,
and returns a :class:`StepInfo` carrying the operator values it
computed. Operator values are evaluated once per step and cached on the
state where a later step can reuse them, so the per-step evaluation
budget (one for the anchored/corrected/past-extra families, two for the
extra-gradient families) is exact and testable.

A solver instance is single threaded; distinct solvers sharing one
immutable operator may run concurrently, and each trace is owned by its
run.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericError
from .operators import OperatorSpec
from .residuals import SplittingSpec, fb_residual, tos_residual, yosida
from .schedules import ScheduleParams, schedule_stream

DIVERGENCE_LIMIT = 1e30

SCHEME_KINDS = (
    "halpern",
    "nesterov",
    "eag",
    "nag_eag",
    "comono_eag",
    "nag_comono",
    "peag",
    "nag_peag",
)

#: schedule kinds with guarantees for each scheme, used by the CLI
COMPATIBLE_SCHEDULES = {
    "halpern": ("halpern_fast", "halpern_slow", "halpern_omega"),
    "nesterov": ("nesterov_slow", "nesterov_fast", "nesterov_omega"),
    "eag": ("eag_constant", "eag_varying", "nag_eag"),
    "nag_eag": ("nag_eag",),
    "comono_eag": ("comono_eag",),
    "nag_comono": ("nag_comono",),
    "peag": ("peag", "peag_legacy"),
    "nag_peag": ("nag_peag",),
}


@dataclass
class IterateState:
    """Sliding window of iterates shared by all schemes.

    Unused history slots simply keep their initial value y0. ``g_z``
    caches the operator value at the current z iterate and ``g_z_prev``
    the one before it (the past-extra schemes feed on these).
    """

    k: int
    y0: np.ndarray
    x: np.ndarray
    x_prev: np.ndarray
    xhat: np.ndarray
    xhat_prev: np.ndarray
    y: np.ndarray
    y_prev: np.ndarray
    z: np.ndarray
    z_prev: np.ndarray
    z_prev2: np.ndarray
    w: np.ndarray
    g_y: Optional[np.ndarray] = None
    g_z: Optional[np.ndarray] = None
    g_z_prev: Optional[np.ndarray] = None


def init_state(y0):
    y0 = np.asarray(y0, dtype=np.float64).copy()
    return IterateState(k=0, y0=y0, x=y0.copy(), x_prev=y0.copy(),
                        xhat=y0.copy(), xhat_prev=y0.copy(), y=y0.copy(),
                        y_prev=y0.copy(), z=y0.copy(), z_prev=y0.copy(),
                        z_prev2=y0.copy(), w=y0.copy())


@dataclass
class StepInfo:
    """Operator values a step computed, keyed to the pre-step index k."""

    g_y: Optional[np.ndarray] = None      # G at y_k
    g_z: Optional[np.ndarray] = None      # G at z_k
    g_z_next: Optional[np.ndarray] = None  # G at z_{k+1}


def _check(v, k):
    if not np.all(np.isfinite(v)):
        raise NumericError(f"non-finite iterate at step {k}", step=k)
    if np.max(np.abs(v)) > DIVERGENCE_LIMIT:
        raise NumericError(f"iterate magnitude exceeded {DIVERGENCE_LIMIT:g} "
                           f"at step {k}", step=k)


def _need(p: ScheduleParams, *names):
    for name in names:
        if getattr(p, name) is None:
            raise InputError(f"schedule params lack {name!r} at k={p.k}")


def halpern_step(state, op, p):
    """y_{k+1} = beta*y0 + (1-beta)*y_k - eta*G(y_k)."""
    _need(p, "beta", "eta")
    g_y = op(state.y)
    y_next = p.beta * state.y0 + (1.0 - p.beta) * state.y - p.eta * g_y
    _check(y_next, state.k)
    state.y_prev, state.y = state.y, y_next
    state.g_y = g_y
    state.k += 1
    return StepInfo(g_y=g_y)


def nesterov_step_two_corr(state, op, p):
    """Gradient step plus extrapolation and up to two correction terms.

    x_{k+1} = y_k - gamma*G(y_k)
    y_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(y_k-x_{k+1})
                      + kappa*(y_{k-1}-x_k)
    """
    _need(p, "gamma", "theta", "nu")
    kappa = 0.0 if p.kappa is None else p.kappa
    g_y = op(state.y)
    x_next = state.y - p.gamma * g_y
    y_next = (x_next + p.theta * (x_next - state.x)
              + p.nu * (state.y - x_next) + kappa * (state.y_prev - state.x))
    _check(y_next, state.k)
    state.x_prev, state.x = state.x, x_next
    state.y_prev, state.y = state.y, y_next
    state.g_y = g_y
    state.k += 1
    return StepInfo(g_y=g_y)


def eag_step(state, op, p):
    """Anchored extra-gradient: probe z_{k+1}, then correct with G(z_{k+1})."""
    _need(p, "beta", "eta", "eta_hat")
    g_y = op(state.y)
    anchor = p.beta * state.y0 + (1.0 - p.beta) * state.y
    z_next = anchor - p.eta * g_y
    g_z_next = op(z_next)
    y_next = anchor - p.eta_hat * g_z_next
    _check(y_next, state.k)
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.y_prev, state.y = state.y, y_next
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return StepInfo(g_y=g_y, g_z_next=g_z_next)


def nag_eag_step(state, op, p):
    """Corrected form of the anchored extra-gradient scheme.

    x_{k+1} = y_k - gamma*G(y_k)
    z_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(z_k-x_{k+1})
    y_{k+1} = z_{k+1} - eta_hat*G(z_{k+1}) + eta*G(y_k)
    """
    _need(p, "gamma", "theta", "nu", "eta", "eta_hat")
    g_y = op(state.y)
    x_next = state.y - p.gamma * g_y
    z_next = x_next + p.theta * (x_next - state.x) + p.nu * (state.z - x_next)
    g_z_next = op(z_next)
    y_next = z_next - p.eta_hat * g_z_next + p.eta * g_y
    _check(y_next, state.k)
    state.x_prev, state.x = state.x, x_next
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.y_prev, state.y = state.y, y_next
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return StepInfo(g_y=g_y, g_z_next=g_z_next)


def comono_eag_step(state, op, p):
    """Anchored extra-gradient with the co-monotone stepsize split."""
    _need(p, "beta", "eta", "rho")
    if p.L is not None and not -1.0 / (2.0 * p.L) < p.rho <= 1.0 / p.L:
        raise InputError("rho outside the admissible range")
    g_y = op(state.y)
    anchor = p.beta * state.y0 + (1.0 - p.beta) * state.y
    z_next = anchor - (1.0 - p.beta) * (2.0 * p.rho + p.eta) * g_y
    g_z_next = op(z_next)
    y_next = anchor - 2.0 * p.rho * (1.0 - p.beta) * g_y - p.eta * g_z_next
    _check(y_next, state.k)
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.y_prev, state.y = state.y, y_next
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return StepInfo(g_y=g_y, g_z_next=g_z_next)


def nag_comono_step(state, op, p):
    """Corrected form of the co-monotone extra-gradient scheme.

    x_{k+1} = y_k - (eta + 2 rho)*G(y_k)
    z_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(z_k-x_{k+1})
    y_{k+1} = z_{k+1} - eta*(G(z_{k+1}) - (1-beta)*G(y_k))
    """
    _need(p, "beta", "eta", "rho", "theta", "nu")
    if p.L is not None and not -1.0 / (2.0 * p.L) < p.rho <= 1.0 / p.L:
        raise InputError("rho outside the admissible range")
    g_y = op(state.y)
    x_next = state.y - (p.eta + 2.0 * p.rho) * g_y
    z_next = x_next + p.theta * (x_next - state.x) + p.nu * (state.z - x_next)
    g_z_next = op(z_next)
    y_next = z_next - p.eta * (g_z_next - (1.0 - p.beta) * g_y)
    _check(y_next, state.k)
    state.x_prev, state.x = state.x, x_next
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.y_prev, state.y = state.y, y_next
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return StepInfo(g_y=g_y, g_z_next=g_z_next)


def peag_step(state, op, p):
    """Past-extra anchored step: one fresh operator value per iteration.

    z_{k+1} = beta*y0 + (1-beta)*y_k - eta*G(z_k)
    y_{k+1} = beta*y0 + (1-beta)*y_k - eta_hat*G(z_{k+1})

    G(z_k) is reused from the previous step; only the first step pays
    for the warm-up evaluation at z_0 = y_0.
    """
    _need(p, "beta", "eta", "eta_hat")
    if state.g_z is None:
        state.g_z = op(state.z)  # warm-up, z_0 = y_0
    g_z = state.g_z
    anchor = p.beta * state.y0 + (1.0 - p.beta) * state.y
    z_next = anchor - p.eta * g_z
    g_z_next = op(z_next)
    y_next = anchor - p.eta_hat * g_z_next
    _check(y_next, state.k)
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.y_prev, state.y = state.y, y_next
    state.g_z_prev, state.g_z = g_z, g_z_next
    state.k += 1
    return StepInfo(g_z=g_z, g_z_next=g_z_next)


def nag_peag_step(state, op, p):
    """Three-correction form of the past-extra anchored scheme.

    xhat_{k+1} = z_k - gamma_hat*G(z_k)
    z_{k+1}    = xhat_{k+1} + theta*(xhat_{k+1}-xhat_k)
                 + nu*(z_k-xhat_{k+1}) + kappa*(z_{k-1}-xhat_k)
                 - zeta*(z_{k-2}-xhat_{k-1})

    All histories start at y0, which zeroes the difference vectors that
    would otherwise encode G(z_0) at k = 0 and k = 1; those two steps
    apply the equivalent corrections +eta_hat*(1-beta)*G(z_0) and
    -theta*eta_hat*G(z_0) directly, using the cached value, so the
    z-sequence matches the past-extra anchored one from the start.
    """
    _need(p, "gamma_hat", "theta", "nu")
    kappa = 0.0 if p.kappa is None else p.kappa
    zeta = 0.0 if p.zeta is None else p.zeta
    g_z = op(state.z)
    xhat_next = state.z - p.gamma_hat * g_z
    z_next = (xhat_next + p.theta * (xhat_next - state.xhat)
              + p.nu * (state.z - xhat_next)
              + kappa * (state.z_prev - state.xhat)
              - zeta * (state.z_prev2 - state.xhat_prev))
    if state.k == 0:
        _need(p, "beta", "eta_hat")
        z_next = z_next + p.eta_hat * (1.0 - p.beta) * g_z
    elif state.k == 1:
        _need(p, "eta_hat")
        z_next = z_next - p.theta * p.eta_hat * state.g_z_prev
    _check(z_next, state.k)
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.xhat_prev, state.xhat = state.xhat, xhat_next
    state.g_z_prev, state.g_z = g_z, None
    state.k += 1
    return StepInfo(g_z=g_z)


STEPS = {
    "halpern": halpern_step,
    "nesterov": nesterov_step_two_corr,
    "eag": eag_step,
    "nag_eag": nag_eag_step,
    "comono_eag": comono_eag_step,
    "nag_comono": nag_comono_step,
    "peag": peag_step,
    "nag_peag": nag_peag_step,
}

@dataclass
class TracePoint:
    """Full iterate snapshot at index k (all vectors are copies)."""

    k: int
    x: np.ndarray
    xhat: np.ndarray
    y: np.ndarray
    z: np.ndarray
    g_y: Optional[np.ndarray] = None
    g_z: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None


@dataclass
class RunTrace:
    """Per-iteration diagnostics of one run.

    Scalar arrays have one entry per index k = 0..K; quantities a scheme
    does not produce are NaN. ``snapshots`` holds full iterates at the
    configured stride (empty when snapshots are disabled). ``lyapunov``
    and ``bound`` are filled in by the diagnostics layer when requested.
    """

    meta: dict
    k: np.ndarray
    norm_g_y: np.ndarray
    norm_g_x: np.ndarray
    norm_g_z: np.ndarray
    norm_dx: np.ndarray
    norm_yx: np.ndarray
    norm_dy: np.ndarray
    snapshots: list = field(default_factory=list)
    lyapunov: dict = field(default_factory=dict)
    bound: Optional[np.ndarray] = None
    error: Optional[str] = None

    def __len__(self):
        return len(self.k)

    def snapshot_series(self, name):
        if not self.snapshots:
            return []
        return [getattr(s, name) for s in self.snapshots]


@dataclass
class TraceOpts:
    snapshot_stride: int = 1
    track_x_residual: bool = False
    final_residual: bool = True


@dataclass(frozen=True)
class Solver:
    """A scheme step wired to an operator and a schedule factory."""

    scheme: str
    operator: OperatorSpec
    schedule_factory: Callable
    meta: dict = field(default_factory=dict)


def _nan(n):
    return np.full(n, np.nan)


_EXTRA_GRADIENT = ("eag", "nag_eag", "comono_eag", "nag_comono")
_HAS_X = ("nesterov", "nag_eag", "nag_comono")
_HAS_Y = ("halpern", "nesterov", "eag", "nag_eag", "comono_eag",
          "nag_comono", "peag")


def _x_slot(scheme, state):
    if scheme == "nag_peag":
        return state.xhat
    if scheme in _HAS_X:
        return state.x
    return None


def run(solver, y0, K, trace_opts=None):
    """Execute ``K`` steps and collect a :class:`RunTrace`.

    Deterministic given (y0, schedule, operator). On a numeric error the
    trace is truncated at the failing step and carries the error text.
    Iterate arrays are never mutated after creation, so snapshots hold
    references rather than copies.
    """
    if K < 0:
        raise InputError("K must be nonnegative")
    opts = trace_opts or TraceOpts()
    op = solver.operator
    scheme = solver.scheme
    step = STEPS[scheme]
    schedule = solver.schedule_factory()
    state = init_state(y0)
    n = K + 1
    norm_g_y, norm_g_x, norm_g_z = _nan(n), _nan(n), _nan(n)
    norm_dx, norm_yx, norm_dy = _nan(n), _nan(n), _nan(n)
    snapshots = []
    error = None

    def want_snap(idx):
        return opts.snapshot_stride > 0 and idx % opts.snapshot_stride == 0

    done = 0
    for k in range(K):
        x_old = _x_slot(scheme, state)
        y_old, z_old = state.y, state.z
        prev_g_z = state.g_z  # extra-gradient schemes: G at z_k
        try:
            info = step(state, op, next(schedule))
        except NumericError as exc:
            error = str(exc)
            break
        g_at_y = info.g_y
        if scheme in _EXTRA_GRADIENT:
            g_at_z = g_at_y if k == 0 else prev_g_z  # z_0 = y_0
        else:
            g_at_z = info.g_z
        if g_at_y is not None:
            norm_g_y[k] = np.linalg.norm(g_at_y)
        if g_at_z is not None:
            norm_g_z[k] = np.linalg.norm(g_at_z)
        if x_old is not None:
            norm_dx[k] = np.linalg.norm(_x_slot(scheme, state) - x_old)
            if scheme != "nag_peag":
                norm_yx[k] = np.linalg.norm(y_old - x_old)
        if scheme in _HAS_Y:
            norm_dy[k] = np.linalg.norm(state.y - y_old)
        if opts.track_x_residual:
            target = x_old if x_old is not None else y_old
            norm_g_x[k] = np.linalg.norm(op(target))
        if want_snap(k):
            snapshots.append(TracePoint(
                k=k, x=x_old if x_old is not None else y_old,
                xhat=state.xhat_prev, y=y_old, z=z_old,
                g_y=g_at_y, g_z=g_at_z))
        done = k + 1

    kmax = done if error is not None else K
    if error is None:
        g_final_y = None
        if scheme in _HAS_Y and scheme != "peag" and opts.final_residual:
            g_final_y = op(state.y)
            norm_g_y[K] = np.linalg.norm(g_final_y)
        g_final_z = state.g_z
        if g_final_z is None and scheme == "nag_peag" and opts.final_residual:
            g_final_z = op(state.z)
        if g_final_z is not None and scheme not in ("halpern", "nesterov"):
            norm_g_z[K] = np.linalg.norm(g_final_z)
        x_fin = _x_slot(scheme, state)
        if opts.track_x_residual:
            target = x_fin if x_fin is not None else state.y
            norm_g_x[K] = np.linalg.norm(op(target))
        if want_snap(K):
            snapshots.append(TracePoint(
                k=K, x=x_fin if x_fin is not None else state.y,
                xhat=state.xhat, y=state.y, z=state.z,
                g_y=g_final_y, g_z=g_final_z))

    end = kmax + 1
    meta = dict(solver.meta)
    meta.update(scheme=scheme, K=K, dim=len(np.atleast_1d(y0)))
    return RunTrace(meta=meta, k=np.arange(end),
                    norm_g_y=norm_g_y[:end], norm_g_x=norm_g_x[:end],
                    norm_g_z=norm_g_z[:end], norm_dx=norm_dx[:end],
                    norm_yx=norm_yx[:end], norm_dy=norm_dy[:end],
                    snapshots=snapshots, error=error)


def make_solver(problem_case, data, scheme_kind, schedule_factory, meta=None):
    """Wire a residual operator for the given problem case into a scheme.

    problem_case selects the reduction: "cocoercive" uses the operator
    directly, "inclusion_a" the resolvent surrogate, "inclusion_ab" the
    forward-backward residual (single-valued B only), and
    "inclusion_abc" the three-operator residual (C may be absent, which
    is the reflected-splitting case).
    """
    if scheme_kind not in STEPS:
        raise InputError(f"unknown scheme kind {scheme_kind!r}")
    if problem_case == "cocoercive":
        op = data
        if not isinstance(op, OperatorSpec):
            raise InputError("cocoercive case expects an OperatorSpec")
    elif problem_case == "inclusion_a":
        a_kind, lam = data
        op = yosida(a_kind, lam)
    elif problem_case == "inclusion_ab":
        if not isinstance(data, SplittingSpec):
            raise InputError("inclusion cases expect a SplittingSpec")
        op = fb_residual(data)
    elif problem_case == "inclusion_abc":
        if not isinstance(data, SplittingSpec):
            raise InputError("inclusion cases expect a SplittingSpec")
        op = tos_residual(data)
    else:
        raise InputError(f"unknown problem case {problem_case!r}")
    return Solver(scheme=scheme_kind, operator=op,
                  schedule_factory=schedule_factory, meta=meta or {})


def solver_for(op, scheme_kind, schedule_kind, meta=None, **schedule_kw):
    """Convenience: a cocoercive-case solver with a named schedule."""
    lip = schedule_kw.pop("L", op.lipschitz)
    factory = lambda: schedule_stream(schedule_kind, lip, **schedule_kw)
    md = {"schedule": schedule_kind, "L": lip}
    md.update(meta or {})
    return make_solver("cocoercive", op, scheme_kind, factory, md)
