"""Iteration steps, the trace-producing run driver, and composed solvers.

Every step consumes an :class:`IterateState`, one operator, and one
:class:`~anchored.schedules.ScheduleParams`, mutates the state in place,
and returns the operator values ``(G y_k, G z_k)`` at the pre-step
iterates (None where a scheme has none). Operator values are evaluated
once per step and cached on the state where a later step can reuse
them, so the per-step evaluation budget (one for the anchored/corrected/past-extra families, two for the
extra-gradient families) is exact and testable. Tracking the x residual
adds K+1 evaluations for the schemes with an x iterate and for ``peag``,
and none for ``halpern``, ``eag`` and ``comono_eag``, whose x slot is y_k.

A solver instance is single threaded; distinct solvers sharing one
immutable operator may run concurrently, and each trace is owned by its
run.
"""

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericError
from .operators import OperatorSpec
from .residuals import SplittingSpec, fb_residual, tos_residual, yosida
from .schedules import schedule_stream

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
    g_y: Optional[np.ndarray] = None
    g_z: Optional[np.ndarray] = None
    g_z_prev: Optional[np.ndarray] = None


def init_state(y0):
    y0 = np.array(y0, dtype=np.float64, ndmin=1)
    return IterateState(k=0, y0=y0, x=y0.copy(), x_prev=y0.copy(),
                        xhat=y0.copy(), xhat_prev=y0.copy(), y=y0.copy(),
                        y_prev=y0.copy(), z=y0.copy(), z_prev=y0.copy(),
                        z_prev2=y0.copy())


def _check(v, k):
    # one reduction on the common path: NaN fails the comparison, so
    # NaN, inf and oversized iterates all fall through to pick the message
    if np.abs(v).max() <= DIVERGENCE_LIMIT:
        return
    if not np.all(np.isfinite(v)):
        raise NumericError(f"non-finite iterate at step {k}", step=k)
    if np.max(np.abs(v)) > DIVERGENCE_LIMIT:
        raise NumericError(f"iterate magnitude exceeded {DIVERGENCE_LIMIT:g} "
                           f"at step {k}", step=k)


#: schedule fields each scheme reads at every step, two or more each so
#: that ``attrgetter`` returns a tuple (nag_peag also reads beta and
#: eta_hat at k = 0 and eta_hat at k = 1, and checks those itself)
REQUIRED_PARAMS = {
    "halpern": ("beta", "eta"),
    "nesterov": ("gamma", "theta", "nu"),
    "eag": ("beta", "eta", "eta_hat"),
    "nag_eag": ("gamma", "theta", "nu", "eta", "eta_hat"),
    "comono_eag": ("beta", "eta", "rho"),
    "nag_comono": ("beta", "eta", "rho", "theta", "nu"),
    "peag": ("beta", "eta", "eta_hat"),
    "nag_peag": ("gamma_hat", "theta", "nu"),
}


def _require(p, names):
    for name in names:
        if getattr(p, name) is None:
            raise InputError(f"schedule params lack {name!r} at k={p.k}")


def halpern_step(state, op, p):
    """y_{k+1} = beta*y0 + (1-beta)*y_k - eta*G(y_k)."""
    g_y = op(state.y)
    y_next = p.beta * state.y0 + (1.0 - p.beta) * state.y - p.eta * g_y
    _check(y_next, state.k)
    state.y_prev, state.y = state.y, y_next
    state.g_y = g_y
    state.k += 1
    return g_y, None


def nesterov_step_two_corr(state, op, p):
    """Gradient step plus extrapolation and up to two correction terms.

    x_{k+1} = y_k - gamma*G(y_k)
    y_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(y_k-x_{k+1})
                      + kappa*(y_{k-1}-x_k)
    """
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
    return g_y, None


def eag_step(state, op, p):
    """Anchored extra-gradient: probe z_{k+1}, then correct with G(z_{k+1})."""
    g_y = op(state.y)
    anchor = p.beta * state.y0 + (1.0 - p.beta) * state.y
    z_next = anchor - p.eta * g_y
    g_z_next = op(z_next)
    y_next = anchor - p.eta_hat * g_z_next
    _check(y_next, state.k)
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.y_prev, state.y = state.y, y_next
    g_z = g_y if state.g_z is None else state.g_z  # z_0 = y_0
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return g_y, g_z


def nag_eag_step(state, op, p):
    """Corrected form of the anchored extra-gradient scheme.

    x_{k+1} = y_k - gamma*G(y_k)
    z_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(z_k-x_{k+1})
    y_{k+1} = z_{k+1} - eta_hat*G(z_{k+1}) + eta*G(y_k)
    """
    g_y = op(state.y)
    x_next = state.y - p.gamma * g_y
    z_next = x_next + p.theta * (x_next - state.x) + p.nu * (state.z - x_next)
    g_z_next = op(z_next)
    y_next = z_next - p.eta_hat * g_z_next + p.eta * g_y
    _check(y_next, state.k)
    state.x_prev, state.x = state.x, x_next
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.y_prev, state.y = state.y, y_next
    g_z = g_y if state.g_z is None else state.g_z  # z_0 = y_0
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return g_y, g_z


def comono_eag_step(state, op, p):
    """Anchored extra-gradient with the co-monotone stepsize split."""
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
    g_z = g_y if state.g_z is None else state.g_z  # z_0 = y_0
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return g_y, g_z


def nag_comono_step(state, op, p):
    """Corrected form of the co-monotone extra-gradient scheme.

    x_{k+1} = y_k - (eta + 2 rho)*G(y_k)
    z_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(z_k-x_{k+1})
    y_{k+1} = z_{k+1} - eta*(G(z_{k+1}) - (1-beta)*G(y_k))
    """
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
    g_z = g_y if state.g_z is None else state.g_z  # z_0 = y_0
    state.g_y, state.g_z = g_y, g_z_next
    state.k += 1
    return g_y, g_z


def peag_step(state, op, p):
    """Past-extra anchored step: one fresh operator value per iteration.

    z_{k+1} = beta*y0 + (1-beta)*y_k - eta*G(z_k)
    y_{k+1} = beta*y0 + (1-beta)*y_k - eta_hat*G(z_{k+1})

    G(z_k) is reused from the previous step; only the first step pays
    for the warm-up evaluation at z_0 = y_0.
    """
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
    return None, g_z


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
    kappa = 0.0 if p.kappa is None else p.kappa
    zeta = 0.0 if p.zeta is None else p.zeta
    g_z = op(state.z)
    xhat_next = state.z - p.gamma_hat * g_z
    z_next = (xhat_next + p.theta * (xhat_next - state.xhat)
              + p.nu * (state.z - xhat_next)
              + kappa * (state.z_prev - state.xhat)
              - zeta * (state.z_prev2 - state.xhat_prev))
    if state.k == 0:
        _require(p, ("beta", "eta_hat"))
        z_next = z_next + p.eta_hat * (1.0 - p.beta) * g_z
    elif state.k == 1:
        _require(p, ("eta_hat",))
        z_next = z_next - p.theta * p.eta_hat * state.g_z_prev
    _check(z_next, state.k)
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.xhat_prev, state.xhat = state.xhat, xhat_next
    state.g_z_prev, state.g_z = g_z, None
    state.k += 1
    return None, g_z


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
    """Full iterate snapshot at index k (all vectors are copies).

    ``g_x`` is G at ``x`` when the run tracks the x residual; for the
    schemes without an x iterate (``halpern``, ``eag``, ``comono_eag``,
    ``peag``) ``x`` is y_k, so a tracked ``peag`` run exposes G y_k.
    """

    k: int
    x: np.ndarray
    xhat: np.ndarray
    y: np.ndarray
    z: np.ndarray
    g_y: Optional[np.ndarray] = None
    g_z: Optional[np.ndarray] = None
    g_x: Optional[np.ndarray] = None


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


def _norm(v):
    """Euclidean norm of a 1-D real vector, computed as ``np.linalg.norm`` does."""
    return math.sqrt(v.dot(v))


_HAS_X = ("nesterov", "nag_eag", "nag_comono")
_HAS_Y = ("halpern", "nesterov", "eag", "nag_eag", "comono_eag",
          "nag_comono", "peag")


def run(solver, y0, K, trace_opts=None, observers=()):
    """Execute ``K`` steps and collect a :class:`RunTrace`.

    Deterministic given (y0, schedule, operator). On a numeric error the
    trace is truncated at the failing step and carries the error text.
    A schedule step that lacks a field the scheme reads is an
    :class:`InputError`. Iterate arrays are never mutated after
    creation, so snapshots hold references rather than copies.

    Each observer is called with every :class:`TracePoint` a stride-1
    snapshot list would hold, in index order (the diagnostics folds);
    ``snapshot_stride`` only decides which of those points the trace
    keeps. Observers never evaluate the operator, so the evaluation
    budget is the same with or without them. With no observers and
    stride 0 no point is built. ``track_x_residual`` evaluates G at the
    x slot of every index and hands the value to observers as
    ``TracePoint.g_x``; where the x slot is y_k and the run already has
    G(y_k) (every scheme without an x iterate but ``peag``), it reuses
    that value instead.
    """
    if K < 0:
        raise InputError("K must be nonnegative")
    opts = trace_opts or TraceOpts()
    if opts.snapshot_stride < 0:
        raise InputError("snapshot_stride must be nonnegative")
    # iterates are float64 arrays by construction: skip the conversion
    # of OperatorSpec.__call__
    op = solver.operator.eval
    scheme = solver.scheme
    step = STEPS[scheme]
    lacks = attrgetter(*REQUIRED_PARAMS[scheme])
    # the x slot is xhat for nag_peag; schemes without one report at y
    has_x = scheme in _HAS_X or scheme == "nag_peag"
    x_slot = attrgetter("xhat" if scheme == "nag_peag" else "x")
    has_yx = scheme in _HAS_X
    has_y = scheme in _HAS_Y
    schedule = solver.schedule_factory()
    state = init_state(y0)
    n = K + 1
    norm_g_y, norm_g_x, norm_g_z, norm_dx, norm_yx, norm_dy = np.full(
        (6, n), np.nan)
    snapshots = []
    error = None
    stride = opts.snapshot_stride
    observers = tuple(observers)
    every_point = bool(observers)

    def emit(point):
        if stride > 0 and point.k % stride == 0:
            snapshots.append(point)
        for observe in observers:
            observe(point)

    done = 0
    for k in range(K):
        y_old, z_old = state.y, state.z
        x_old = x_slot(state) if has_x else y_old
        try:
            params = next(schedule)
            if None in lacks(params):
                _require(params, REQUIRED_PARAMS[scheme])
            g_at_y, g_at_z = step(state, op, params)
        except NumericError as exc:
            error = str(exc)
            break
        if g_at_y is not None:
            norm_g_y[k] = _norm(g_at_y)
        if g_at_z is not None:
            norm_g_z[k] = _norm(g_at_z)
        if has_x:
            norm_dx[k] = _norm(x_slot(state) - x_old)
            if has_yx:
                norm_yx[k] = _norm(y_old - x_old)
        if has_y:
            norm_dy[k] = _norm(state.y - y_old)
        g_at_x = None
        if opts.track_x_residual:
            # without an x iterate the x slot is y_k, whose G the step made
            g_at_x = op(x_old) if has_x or g_at_y is None else g_at_y
            norm_g_x[k] = _norm(g_at_x)
        if every_point or (stride > 0 and k % stride == 0):
            emit(TracePoint(k=k, x=x_old, xhat=state.xhat_prev, y=y_old,
                            z=z_old, g_y=g_at_y, g_z=g_at_z, g_x=g_at_x))
        done = k + 1

    kmax = done if error is not None else K
    if error is None:
        g_final_y = None
        if has_y and scheme != "peag" and opts.final_residual:
            g_final_y = op(state.y)
            norm_g_y[K] = _norm(g_final_y)
        # only the extra-gradient and past-extra steps cache G(z)
        g_final_z = state.g_z
        if g_final_z is None and scheme == "nag_peag" and opts.final_residual:
            g_final_z = op(state.z)
        if g_final_z is not None:
            norm_g_z[K] = _norm(g_final_z)
        x_at = x_slot(state) if has_x else state.y
        g_at_x = None
        if opts.track_x_residual:
            g_at_x = op(x_at) if has_x or g_final_y is None else g_final_y
            norm_g_x[K] = _norm(g_at_x)
        if every_point or (stride > 0 and K % stride == 0):
            emit(TracePoint(k=K, x=x_at, xhat=state.xhat, y=state.y,
                            z=state.z, g_y=g_final_y, g_z=g_final_z,
                            g_x=g_at_x))

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
