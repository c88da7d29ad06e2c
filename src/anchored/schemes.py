"""Iteration steps, the table that declares each scheme, the run driver.

A step is its update formula and its operator evaluations, nothing
else. It consumes an :class:`IterateState`, one operator, and one
:class:`~anchored.schedules.ScheduleParams`, mutates the state in place,
and returns the operator values ``(G y_k, G z_k)`` at the pre-step
iterates (None where a scheme has none, and at k = 0 of the
extra-gradient steps, which have not evaluated G at z_0). Operator
values are evaluated once per step and cached on the state where a
later step can reuse them, so the per-step evaluation budget (one for
the anchored/corrected/past-extra families, two for the extra-gradient
families) is exact and testable.
:data:`SCHEMES` declares each scheme once, and :func:`run` reads only
that row. :func:`run` owns what every step shares: the step index, the
divergence guard and G(z_0) = G(y_0).

A solver instance is single threaded; distinct solvers sharing one
immutable operator may run concurrently, and each trace is owned by its
run.
"""

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import MAX_ENTRIES, InputError, NumericError, in_range
from .operators import OperatorSpec
from .schedules import ScheduleParams, constants, schedule_stream

DIVERGENCE_LIMIT = 1e30
#: (DIVERGENCE_LIMIT / 10)^2: a computed |v|^2 at or under it puts max |v|
#: a factor 10 inside the limit, far beyond the dot product's rounding, so
#: run() accepts such an iterate without the exact test of :func:`_check`
_SAFE_SQUARED_NORM = 1e58


@dataclass
class IterateState:
    """The iterates and cached operator values some step reads.

    Every slot starts as the one array y0. A step rebinds the slots it
    or :func:`run` reads and never writes into an array. ``g_z`` caches
    G at the current z iterate (extra-gradient and ``peag`` steps; None
    before the first step).
    """

    y0: np.ndarray
    x: np.ndarray
    x_prev: np.ndarray
    y: np.ndarray
    y_prev: np.ndarray
    z: np.ndarray
    z_prev: np.ndarray
    z_prev2: np.ndarray
    g_z: Optional[np.ndarray] = None


def init_state(y0):
    """The state before step 0: one float64 copy of y0 in every slot."""
    y0 = np.array(y0, dtype=np.float64, ndmin=1)
    return IterateState(y0, y0, y0, y0, y0, y0, y0, y0)


def _check(v, k):
    # the exact rule: NaN fails the comparison, so NaN, inf and
    # oversized iterates all fall through to pick the message
    if np.abs(v).max() <= DIVERGENCE_LIMIT:
        return
    if not np.all(np.isfinite(v)):
        raise NumericError(f"non-finite iterate at step {k}", step=k)
    raise NumericError(f"iterate magnitude exceeded {DIVERGENCE_LIMIT:g} "
                       f"at step {k}", step=k)


def _require(p, names):
    for name in names:
        if getattr(p, name) is None:
            raise InputError(f"schedule params lack {name!r} at k={p.k}")


def halpern_step(state, op, p):
    """y_{k+1} = beta*y0 + (1-beta)*y_k - eta*G(y_k)."""
    g_y = op(state.y)
    state.y = p.beta * state.y0 + (1.0 - p.beta) * state.y - p.eta * g_y
    return g_y, None


def nesterov_step_two_corr(state, op, p):
    """Gradient step plus extrapolation and two correction terms.

    x_{k+1} = y_k - gamma*G(y_k)
    y_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(y_k-x_{k+1})
                      + kappa*(y_{k-1}-x_k)
    """
    g_y = op(state.y)
    x_next = state.y - p.gamma * g_y
    y_next = (x_next + p.theta * (x_next - state.x)
              + p.nu * (state.y - x_next) + p.kappa * (state.y_prev - state.x))
    state.x = x_next
    state.y_prev, state.y = state.y, y_next
    return g_y, None


def eag_step(state, op, p):
    """Anchored extra-gradient: probe z_{k+1}, then correct with G(z_{k+1})."""
    g_y = op(state.y)
    anchor = p.beta * state.y0 + (1.0 - p.beta) * state.y
    state.z = anchor - p.eta * g_y
    g_z, state.g_z = state.g_z, op(state.z)
    state.y = anchor - p.eta_hat * state.g_z
    return g_y, g_z


def nag_eag_step(state, op, p):
    """Corrected form of the anchored extra-gradient schemes.

    x_{k+1} = y_k - gamma*G(y_k)
    z_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(z_k-x_{k+1})
    y_{k+1} = z_{k+1} - eta_hat*G(z_{k+1}) + eta*G(y_k)
    """
    g_y = op(state.y)
    x_next = state.y - p.gamma * g_y
    state.z = x_next + p.theta * (x_next - state.x) + p.nu * (state.z - x_next)
    state.x = x_next
    g_z, state.g_z = state.g_z, op(state.z)
    state.y = state.z - p.eta_hat * state.g_z + p.eta * g_y
    return g_y, g_z


def comono_eag_step(state, op, p):
    """Anchored extra-gradient with the co-monotone stepsize split."""
    g_y = op(state.y)
    anchor = p.beta * state.y0 + (1.0 - p.beta) * state.y
    state.z = anchor - (1.0 - p.beta) * (2.0 * p.rho + p.eta) * g_y
    g_z, state.g_z = state.g_z, op(state.z)
    state.y = anchor - 2.0 * p.rho * (1.0 - p.beta) * g_y - p.eta * state.g_z
    return g_y, g_z


def peag_step(state, op, p):
    """Past-extra anchored step: one fresh operator value per iteration.

    z_{k+1} = beta*y0 + (1-beta)*y_k - eta*G(z_k)
    y_{k+1} = beta*y0 + (1-beta)*y_k - eta_hat*G(z_{k+1})

    G(z_k) is reused from the previous step; only the first step pays
    for the warm-up evaluation at z_0.
    """
    g_z = op(state.z) if state.g_z is None else state.g_z
    anchor = p.beta * state.y0 + (1.0 - p.beta) * state.y
    state.z = anchor - p.eta * g_z
    state.g_z = op(state.z)
    state.y = anchor - p.eta_hat * state.g_z
    return None, g_z


def nag_peag_step(state, op, p):
    """Three-correction form of the past-extra anchored scheme.

    x_{k+1} = z_k - gamma_hat*G(z_k)
    z_{k+1} = x_{k+1} + theta*(x_{k+1}-x_k) + nu*(z_k-x_{k+1})
              + kappa*(z_{k-1}-x_k) - zeta*(z_{k-2}-x_{k-1})

    (x is the paper's xhat.) All histories start at y0; the past-extra
    transform starts every correction at 0, so the z sequence is the
    past-extra anchored one from the first step.
    """
    g_z = op(state.z)
    x_next = state.z - p.gamma_hat * g_z
    z_next = (x_next + p.theta * (x_next - state.x)
              + p.nu * (state.z - x_next)
              + p.kappa * (state.z_prev - state.x)
              - p.zeta * (state.z_prev2 - state.x_prev))
    state.z_prev2, state.z_prev, state.z = state.z_prev, state.z, z_next
    state.x_prev, state.x = state.x, x_next
    return None, g_z


class Scheme(NamedTuple):
    """Everything :func:`run` knows about one scheme."""

    step: Callable
    # schedule fields the step reads, two or more so that attrgetter
    # returns a tuple
    params: tuple
    # the iterates among x, y and z that the step advances; run() guards
    # y, or z where the step has no y
    updates: str
    evaluates: str  # the points among y and z where the step evaluates G
    schedules: tuple  # the schedule kinds with guarantees for the scheme
    operator_class: str  # the CLASSES entry its guarantees assume
    potentials: dict  # schedule kind -> its diagnostics.POTENTIALS kind


#: each operator class as the least ``OperatorSpec.comonotone_modulus``
#: it asks for, from L and the schedule constants
CLASSES = {
    "co-coercive": lambda L, constants: 1.0 / L,
    "monotone": lambda L, constants: 0.0,
    "rho-co-monotone": lambda L, constants: constants["rho"],
}

SCHEMES = {
    # the anchored potential's weights p_k = k(k+1), q_k = k+1 make it
    # nonincreasing along the fast rule only
    "halpern": Scheme(halpern_step, ("beta", "eta"), "y", "y",
                      ("halpern_fast", "halpern_slow", "halpern_omega"),
                      "co-coercive", {"halpern_fast": "anchored"}),
    "nesterov": Scheme(nesterov_step_two_corr, ("gamma", "theta", "nu",
                       "kappa"), "xy", "y",
                       ("nesterov_slow", "nesterov_fast", "nesterov_omega"),
                       "co-coercive", {"nesterov_omega": "omega"}),
    "eag": Scheme(eag_step, ("beta", "eta", "eta_hat"), "yz", "yz",
                  ("eag_constant", "eag_varying", "nag_eag"), "monotone", {}),
    "nag_eag": Scheme(nag_eag_step, ("gamma", "theta", "nu", "eta",
                      "eta_hat"), "xyz", "yz", ("nag_eag",), "monotone",
                      {"nag_eag": "eag"}),
    "comono_eag": Scheme(comono_eag_step, ("beta", "eta", "rho"), "yz", "yz",
                         ("comono_eag",), "rho-co-monotone", {}),
    # the corrected co-monotone scheme is the nag_eag step on the
    # nag_comono schedule, whose fields carry the co-monotone split
    "nag_comono": Scheme(nag_eag_step, ("gamma", "theta", "nu", "eta",
                         "eta_hat"), "xyz", "yz", ("nag_comono",),
                         "rho-co-monotone", {}),
    "peag": Scheme(peag_step, ("beta", "eta", "eta_hat"), "yz", "z",
                   ("peag", "peag_legacy"), "monotone", {"peag": "peag"}),
    "nag_peag": Scheme(nag_peag_step, ("gamma_hat", "theta", "nu", "kappa",
                       "zeta"), "xz", "z", ("nag_peag",), "monotone", {}),
}

SCHEME_KINDS = tuple(SCHEMES)
#: schedule kinds with guarantees for each scheme, used by the CLI
COMPATIBLE_SCHEDULES = {name: s.schedules for name, s in SCHEMES.items()}


@dataclass
class TracePoint:
    """The iterates of index k and the operator values the run made there.

    ``run`` hands one point per index to its observers. The vectors are
    the run's own arrays, which it never mutates, not copies. ``x`` is
    the x slot: the x iterate (the paper's xhat for ``nag_peag``), and
    y_k for the schemes without one (``halpern``, ``eag``,
    ``comono_eag``, ``peag``). ``g_x`` is G at ``x`` when the run tracks
    the x residual, so a tracked ``peag`` run exposes G y_k. ``p`` is
    the :class:`~anchored.schedules.ScheduleParams` of the step k -> k+1,
    None at the final index.
    """

    k: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    g_y: Optional[np.ndarray] = None
    g_z: Optional[np.ndarray] = None
    g_x: Optional[np.ndarray] = None
    p: Optional[ScheduleParams] = None


@dataclass
class RunTrace:
    """Per-iteration diagnostics of one run.

    Scalar arrays have one entry per index k = 0..K; quantities a scheme
    does not produce are NaN. ``lyapunov`` and ``bound`` are filled in
    by the diagnostics layer when requested. Iterates are seen through
    ``run``'s observers, not kept here.
    """

    meta: dict
    k: np.ndarray
    norm_g_y: np.ndarray
    norm_g_x: np.ndarray
    norm_g_z: np.ndarray
    norm_dx: np.ndarray
    norm_yx: np.ndarray
    norm_dy: np.ndarray
    # always empty; kept only because bench/probe.py reads it
    snapshots: list = field(default_factory=list)
    lyapunov: Optional[np.ndarray] = None
    bound: Optional[np.ndarray] = None
    error: Optional[str] = None

    def __len__(self):
        return len(self.k)


@dataclass
class TraceOpts:
    # must be 0; kept only because bench/workloads.py passes it and
    # bench/probe.py reads it
    snapshot_stride: int = 0
    track_x_residual: bool = False
    # not a field: every run evaluates its final residual; kept only
    # because bench/probe.py reads it
    final_residual = True

    def __post_init__(self):
        if self.snapshot_stride != 0:
            raise InputError("runs keep no iterates; pass "
                             "observers=[points.append] to see trace points")


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


@np.errstate(all="ignore")  # the divergence guard reports overflow and NaN
def run(solver, y0, K, trace_opts=None, observers=()):
    """Execute ``K`` steps and collect a :class:`RunTrace`.

    Deterministic given (y0, schedule, operator). One loop walks k =
    0..K. A step index k < K runs the scheme's step and the divergence
    guard on the iterate it advances (y, or z where the row has no y);
    a numeric error truncates the trace there, and the trace carries
    its text. A schedule step that lacks a field the scheme reads is an
    :class:`InputError`. The last index K makes G(y_K) where the row
    evaluates at y and takes G(z_K) from the step's cache. Everything
    scheme-specific comes from the scheme's :data:`SCHEMES` row.

    Array identity is point identity: no step or operator writes into
    an array, and :func:`init_state` puts the one array y0 in every
    slot. So every index reuses a G made at the same array: G(z_0) is
    G(y_0), and ``track_x_residual``'s ``TracePoint.g_x`` is G(y_k) or
    G(z_k) where the x slot is that array, else one evaluation.

    Observers are the one way to see the iterates: each is called with
    the :class:`TracePoint` of every index 0..K in order (the
    diagnostics folds; ``observers=[points.append]`` keeps them all).
    A point holds references to the run's arrays, not copies. Observers
    never evaluate the operator, so the evaluation budget is the same
    with or without them, and with no observers no point is built.
    """
    # the residual records are one (6, K + 1) array
    in_range("K", K, 0, MAX_ENTRIES // 6 - 1, "[]", integer=True)
    opts = trace_opts or TraceOpts()
    # iterates are float64 arrays by construction: skip the conversion
    # of OperatorSpec.__call__
    op = solver.operator.eval
    scheme = SCHEMES[solver.scheme]
    step = scheme.step
    lacks = attrgetter(*scheme.params)
    has_x = "x" in scheme.updates
    has_y = "y" in scheme.updates
    at_y = "y" in scheme.evaluates
    at_z = "z" in scheme.evaluates
    guarded = attrgetter("y" if has_y else "z")
    schedule = solver.schedule_factory()
    state = init_state(y0)
    norm_g_y, norm_g_x, norm_g_z, norm_dx, norm_yx, norm_dy = np.full(
        (6, K + 1), np.nan)
    error = None
    observers = tuple(observers)

    for k in range(K + 1):
        y, z = state.y, state.z
        x = state.x if has_x else y
        params = None
        if k < K:
            try:
                params = next(schedule)
                if None in lacks(params):
                    _require(params, scheme.params)
                g_y, g_z = step(state, op, params)
                v = guarded(state)
                # one dot product on the common path; NaN, inf and a dot
                # that overflows fail the comparison and reach the exact
                # test
                if not v.dot(v) <= _SAFE_SQUARED_NORM:
                    _check(v, k)
            except NumericError as exc:
                error = str(exc)
                break
            if has_x:
                norm_dx[k] = _norm(state.x - x)
                if has_y:
                    norm_yx[k] = _norm(y - x)
            if has_y:
                norm_dy[k] = _norm(state.y - y)
        else:
            g_y = op(y) if at_y else None
            g_z = state.g_z
        if g_z is None and at_z:
            g_z = g_y if z is y and g_y is not None else op(z)
        g_x = None
        if opts.track_x_residual:
            g_x = (g_y if x is y and g_y is not None else
                   g_z if x is z and g_z is not None else op(x))
            norm_g_x[k] = _norm(g_x)
        if g_y is not None:
            norm_g_y[k] = _norm(g_y)
        if g_z is not None:
            norm_g_z[k] = _norm(g_z)
        if observers:
            point = TracePoint(k=k, x=x, y=y, z=z, g_y=g_y, g_z=g_z,
                               g_x=g_x, p=params)
            for observe in observers:
                observe(point)

    end = k + 1  # k is K, or the step that failed
    meta = dict(solver.meta)
    meta.update(scheme=solver.scheme, K=K, dim=len(np.atleast_1d(y0)))
    return RunTrace(meta=meta, k=np.arange(end),
                    norm_g_y=norm_g_y[:end], norm_g_x=norm_g_x[:end],
                    norm_g_z=norm_g_z[:end], norm_dx=norm_dx[:end],
                    norm_yx=norm_yx[:end], norm_dy=norm_dy[:end],
                    error=error)


def solver_for(op, scheme_kind, schedule_kind, **schedule_kw):
    """A solver of ``op`` with a named schedule.

    A residual operator (``residuals.yosida``, ``fb_residual`` or
    ``tos_residual``) goes in as ``op`` like any other. The schedule's
    constants are resolved once, here, and kept as ``meta["constants"]``,
    which every trace of the solver carries; the rule checks their ranges
    when ``schedule_factory`` builds a stream.
    """
    if scheme_kind not in SCHEMES:
        raise InputError(f"unknown scheme kind {scheme_kind!r}")
    lip = schedule_kw.pop("L", op.lipschitz)
    resolved = constants(schedule_kind, lip, **schedule_kw)
    factory = lambda: schedule_stream(schedule_kind, lip, **resolved)
    return Solver(scheme=scheme_kind, operator=op, schedule_factory=factory,
                  meta={"schedule": schedule_kind, "L": lip,
                        "constants": resolved})
