"""Verification table: scheme equivalences, potential decrease, bounds.

:data:`CHECKS` is one table of check rows, and :class:`Plan` drives it:
it groups rows by run key, makes each distinct run once at the longest
horizon any row needs, with every row's folds attached, and hands each
row its view of the runs; rows see iterates only through folds. The
CLI renders the results as a pass/fail table and exits nonzero when any
non-skipped check fails. Desk scale keeps every suite in the seconds
range; paper scale reruns the checks at the published dimensions.
"""

import time
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import diagnostics as dg
from .instances import (
    desk_bilinear,
    desk_huber,
    desk_least_squares,
    paper_huber,
    paper_least_squares,
    start_point,
)
from .operators import affine_kind, l1_kind, OperatorSpec, box_kind
from .residuals import (
    SplittingSpec,
    cocoercivity_report,
    default_lambda,
    fb_residual,
    tos_residual,
    yosida,
)
from .rng import SplitMix64
# no row uses it; the benchmark's tracer patches it under this name
from .schedules import transformed_nesterov_stream  # noqa: F401
from .schemes import RunTrace, TraceOpts, _norm, run, solver_for

SUITES = ("equivalence", "lemmas", "bounds", "all")
EQUIV_TOL = 1e-8
EQUIV_STEPS = 500


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False
    seconds: float = 0.0

    @property
    def status(self):
        return "SKIP" if self.skipped else ("PASS" if self.ok else "FAIL")

    def row(self):
        return f"{self.suite:<12} {self.name:<52} {self.status:<5} {self.detail}"


@dataclass(frozen=True)
class Check:
    """One row of the verify table.

    ``runs`` lists "scheme/schedule" runs on ``instance`` (two for the
    equivalence rows), each with the schedule keywords ``KWARGS[kw]``
    and ``K(iters)`` steps. Every run feeds one fold of each
    :data:`FOLDS` name in ``folds``. ``verdict(case, trace, *folds)``
    gets the first run's trace (None without runs) and the folds, run
    by run, and returns ``(ok, detail[, skipped])``.
    """

    suite: str
    name: str
    instance: str
    runs: str
    verdict: Callable
    folds: tuple = ()
    kw: Optional[str] = None
    K: Callable = lambda iters: iters
    x_residual: bool = False


class Case(NamedTuple):
    """An instance as the rows read it."""

    op: OperatorSpec
    y0: np.ndarray
    y_star: np.ndarray
    meta: dict
    L: float
    d0: float


#: schedule keywords by name, from the instance's L
KWARGS = {
    "omega": lambda L: {"gamma": 0.9 / L, "omega": 3.0},
    "comono": lambda L: {"rho": -1.0 / (4.0 * L)},
    "sigma=2": lambda L: {"sigma": 2.0},
    "eta=1/8L": lambda L: {"eta": 1.0 / (8.0 * L)},
    "eta0=0.5/L": lambda L: {"eta0": 0.5 / L},
    "eta0=0.4/L": lambda L: {"eta0": 0.4 / L},
}

#: fold builders by name, from the row's case; rows on one run and
#: horizon that name the same builder share its fold
FOLDS = {
    "record": lambda c: dg.RecordFold(),
    "anchored": lambda c: dg.AnchoredPotentialFold(c.L),
    "omega": lambda c: dg.omega_potential_fold(
        y_star=c.y_star, mu=1.0, **KWARGS["omega"](c.L)),
    "anchor distance": lambda c: dg.MapFold(
        lambda s: _norm(s.x - c.y_star) ** 2),
    "budgets": lambda c: dg.SummabilityFold(L=c.L, mu=1.0,
                                            **KWARGS["omega"](c.L)),
    "coupling": lambda c: dg.CouplingIdentityFold(c.L, c.y_star),
    "eag": lambda c: dg.eag_potential_fold(c.L, c.y_star),
    "|G y|^2": lambda c: dg.MapFold(lambda s: float(s.g_y @ s.g_y)),
    "peag": lambda c: dg.PeagPotentialFold(c.L, 2.0, c.y_star),
    "gaps": lambda c: dg.PeagGapFold(c.L, 2.0),
    "differences": lambda c: dg.ResidualDifferenceFold(c.L, c.d0),
    "peag residual": lambda c: dg.PeagResidualFold(c.L, c.d0, sigma=1.0),
}


def proximal_point_operator(k_mat, L):
    """Yosida residual, lam = 1/L, of the skew operator of a bilinear coupling.

    The paper's proximal-point application: co-coercive with modulus
    1/L and the bilinear instance's zero, where the skew operator itself
    is only monotone.
    """
    m, n = k_mat.shape
    skew = np.block([[np.zeros((n, n)), k_mat.T],
                     [-k_mat, np.zeros((m, m))]])
    return yosida(affine_kind(skew), 1.0 / L)


def _prefix(trace, K):
    """Points 0..K of a run that got past step K.

    The residual columns at K equal the final residuals of a K-step run:
    both evaluate G at the same iterates.
    """
    cut = {f.name: getattr(trace, f.name)[:K + 1] for f in fields(RunTrace)
           if f.name == "k" or f.name.startswith("norm_")}
    return replace(trace, meta=dict(trace.meta, K=K), error=None, **cut)


class Plan:
    """The runs of a set of rows, each distinct run made once.

    Instances and start points are built once, on first use. A run is
    made when the first row that needs it is evaluated, at the longest
    horizon among its rows and with all their folds, so its time is
    charged to that row; a row with a shorter horizon sees points 0..K.
    If a shared run stops with a numeric error at or before a row's
    horizon, the row runs again on its own, so every verdict is the one
    its own run would give. A row whose run ended in an error fails.

    Memory is bounded by the rows in flight, not by the table: each run
    and each fold is dropped once the last row of ``rows`` that reads it
    has its verdict, so the equivalence recordings (the y and z iterates of
    every index) are held one row at a time. The tracemalloc peak of
    ``equivalence_suite("small")`` is 7.9 MB, against 27 MB when every
    recording lived until the table was done.
    """

    def __init__(self, rows, scale="small"):
        self.rows, self.scale = list(rows), scale
        self.iters = 5000 if scale == "paper" else 2000
        self._cases, self._traces, self._folds = {}, {}, {}
        self._users = defaultdict(list)  # run key -> [(row, K)]
        self._last = {}  # run key, or (run key, K, fold) -> its last row
        for row in self.rows:
            K = row.K(self.iters)
            for name in row.runs.split():
                key = (row.instance, name, row.kw)
                self._users[key].append((row, K))
                self._last[key] = row
                for fold in row.folds:
                    self._last[key, K, fold] = row

    def case(self, label):
        if label in self._cases:
            return self._cases[label]
        if label == "prox bilinear":
            bil = self.case("bilinear")
            op = proximal_point_operator(bil.meta["K"], bil.L)
            case = bil._replace(op=op, L=op.lipschitz)
        else:
            paper = self.scale == "paper"
            inst = {"ls": paper_least_squares if paper else desk_least_squares,
                    "huber": paper_huber if paper else desk_huber,
                    "bilinear": desk_bilinear}[label]()
            op, y0 = inst.operator, start_point(inst)
            case = Case(op, y0, inst.solution, inst.meta, op.lipschitz,
                        float(np.linalg.norm(y0 - inst.solution)))
        self._cases[label] = case
        return case

    def _run(self, key, K, x_residual, observers):
        label, name, kw = key
        case = self.case(label)
        scheme, schedule = name.split("/")
        solver = solver_for(case.op, scheme, schedule,
                            **(KWARGS[kw](case.L) if kw else {}))
        opts = TraceOpts(track_x_residual=x_residual)
        return run(solver, case.y0, K, opts, observers=observers)

    def _fed(self, row, key):
        """The row's view of one run: its trace and its folds."""
        K, users = row.K(self.iters), self._users[key]
        shared = (max(k for _, k in users), any(r.x_residual for r, _ in users))
        if key not in self._traces:
            observers = []
            for user, k in users:
                for name in user.folds:
                    if (key, k, name) not in self._folds:
                        fold = FOLDS[name](self.case(row.instance))
                        self._folds[key, k, name] = fold
                        observers.append(fold if k == shared[0] else (
                            lambda p, fold=fold, k=k: p.k <= k and fold(p)))
            self._traces[key] = self._run(key, *shared, observers)
        trace = self._traces[key]
        if len(trace) - 1 > K:
            trace = _prefix(trace, K)
        elif trace.error is not None and shared != (K, row.x_residual):
            folds = [FOLDS[name](self.case(row.instance)) for name in row.folds]
            return self._run(key, K, row.x_residual, folds), folds
        return trace, [self._folds[key, K, name] for name in row.folds]

    def result(self, row):
        t0 = time.perf_counter()
        fed = [self._fed(row, (row.instance, name, row.kw))
               for name in row.runs.split()]
        errors = [trace.error for trace, _ in fed if trace.error is not None]
        if errors:
            verdict = (False, f"run error: {errors[0]}")
        else:
            verdict = row.verdict(self.case(row.instance),
                                  fed[0][0] if fed else None,
                                  *(fold for _, folds in fed for fold in folds))
        for key, last in self._last.items():
            if last is row:
                self._traces.pop(key, None)
                self._folds.pop(key, None)
        return CheckResult(row.suite, row.name, *verdict,
                           seconds=time.perf_counter() - t0)


def run_checks(rows, scale="small"):
    """Results of ``rows`` in order, each distinct run made once."""
    plan = Plan(rows, scale)
    return [plan.result(row) for row in plan.rows]


def _report(rep):
    return rep.ok, rep.to_text(), rep.skipped


def _equivalent(*names):
    """The two runs' recorded iterates agree to EQUIV_TOL in ``names``."""
    def verdict(case, trace, a, b):
        dev = max(dg.equivalence_report(a, b, name) for name in names)
        return dev <= EQUIV_TOL, f"max_dev={dev:.2e}"
    return verdict


def _decrease(name, start=0):
    return lambda case, trace, fold: _report(
        dg.decrease_report(fold.series()[start:], name))


def _bound(kind, kw=None, sigma=None):
    """The trace's residual column against a closed-form bound."""
    return lambda case, trace: _report(dg.bound_check(
        trace, kind, case.L, case.d0, sigma=sigma,
        **(KWARGS[kw](case.L) if kw else {})))


def _slope(column):
    """The fitted slope of a residual column on [K/4, K] is at most -0.9."""
    def verdict(case, trace):
        K = len(trace) - 1
        fit = dg.rate_fit(getattr(trace, column), (K // 4, K))
        return fit.slope <= -0.9, f"slope={fit.slope:.3f}"
    return verdict


def _rate_result(trace, c_star, dist0, denom, note=""):
    """|G y_k|^2 <= c_star dist0^2 / denom_k at every index k."""
    theory = c_star * dist0 * dist0 / denom
    viol = int(np.count_nonzero(trace.norm_g_y ** 2 > theory * (1.0 + 1e-9)))
    return viol == 0, f"violations={viol}{note}"


def _constant_rate(case, trace):
    eta = KWARGS["eta=1/8L"](case.L)["eta"]
    return _rate_result(trace, dg.eag_constant_rate_constant(eta, case.L),
                        case.d0, (trace.k + 1.0) ** 2)


def eag_varying_rate_check(trace, eta0, L, dist0):
    """Varying-step extra-gradient rate |G y_k|^2 <= c* dist0^2/((k+1)(k+2)).

    c* = 4(1 + eta0 eta* L^2)/eta*^2 at the certified lower bound on the
    limit stepsize eta*, which makes it an upper bound on the rate
    constant.
    """
    eta_star = dg.eag_varying_limit_lower_bound(eta0, L)
    c_star = dg.eag_varying_rate_constant(eta0, eta_star, L)
    ks = np.asarray(trace.k, dtype=float)
    denom = (ks + 1.0) * (ks + 2.0)
    ratio = float(np.max(trace.norm_g_y ** 2 * denom
                         / (c_star * dist0 * dist0)))
    return _rate_result(trace, c_star, dist0, denom,
                        f" eta*L>={eta_star * L:.4f} worst_ratio={ratio:.3f}")


def _trend(case, trace):
    ok, early, late = dg.trend_check(trace.norm_g_y)
    return ok, f"early={early:.3e} late={late:.3e}"


def _budget(name):
    """One omega-family budget of the summability fold, bounded by V_0."""
    def verdict(case, trace, potential, budgets):
        return _report(next(rep for rep in budgets.reports(
            potential.series()[0]) if rep.name == name))
    return verdict


def _above_weighted_residual(case, trace, potential, g_sq):
    q = potential.series()
    ks = np.arange(len(q) - 1)
    return (bool(np.all(q[1:] >= (ks + 1.0) ** 2 / (4.0 * case.L * case.L)
                        * g_sq.series()[:-1] - 1e-10)),)


def _cocoercive(residual, seed):
    """Sampled co-coercivity (1000 pairs) of a residual built on the operator."""
    def verdict(case, trace):
        op = residual(case.op, default_lambda(case.L), case.L)
        rep = cocoercivity_report(op, op.cocoercivity_modulus, 1000,
                                  seed=seed, dim=case.op.dim)
        return rep["violations"] == 0, f"worst_margin={rep['worst_margin']:.2e}"
    return verdict


def _change_of_variable(case, trace):
    """Forward-backward and three-operator residuals agree at u = y + lam B y."""
    op, L, lam = case.op, case.L, default_lambda(case.L)
    p_mat = case.meta["P"]
    m_sym = p_mat.T @ p_mat
    ptb = p_mat.T @ case.meta["b"]
    b_aff = OperatorSpec(dim=op.dim, eval=lambda y: m_sym @ y - ptb,
                         lipschitz=L, cocoercivity_modulus=1.0 / L,
                         monotone=True)
    fb2 = fb_residual(SplittingSpec(a=l1_kind(0.1), b=b_aff, lam=lam,
                                    l_of_b_or_c=L))
    tos2 = tos_residual(SplittingSpec(
        a=l1_kind(0.1), b=affine_kind(m_sym, -ptb), lam=lam))
    rng = SplitMix64(17)
    worst = 0.0
    for _ in range(100):
        y = rng.uniform_symmetric(op.dim)
        u = y + lam * b_aff(y)
        g = fb2(y)
        worst = max(worst, float(np.linalg.norm(tos2(u) - g))
                    / (1.0 + float(np.linalg.norm(g))))
    return worst <= 1e-10, f"max_dev={worst:.2e}"


def _twins(name, instance, runs, names, kw=None):
    """An equivalence row: two runs for EQUIV_STEPS, iterates compared."""
    return Check("equivalence", f"{name} [{instance}]", instance, runs,
                 _equivalent(*names), ("record",), kw,
                 lambda iters: EQUIV_STEPS)


#: nesterov_fast streams the two-correction transform of halpern_fast
_ANCHORED = "halpern/halpern_fast nesterov/nesterov_fast"
_EAG = "eag/nag_eag nag_eag/nag_eag"
_PEAG = "peag/peag nag_peag/nag_peag"
_COMONO = "comono_eag/comono_eag nag_comono/nag_comono"
_OMEGA = dict(runs="nesterov/nesterov_omega", kw="omega")
_PEAG_2 = dict(runs="peag/peag", kw="sigma=2", x_residual=True)
_BILINEAR = dict(kw="comono", K=lambda iters: max(iters, 3000))

#: the verify table, in output order. The anchored equivalence rows need
#: a co-coercive operator, so the second runs on the proximal-point
#: operator of the bilinear instance, not on the merely monotone Huber
#: operator (where the fast rule diverges). The extra-gradient potential
#: decreases from k = 1 on: the k = 0 coefficients zero out the
#: compensating terms. The interior-stepsize anchored rule settles on
#: the 1/k envelope at this horizon, so its row asserts the fitted slope
#: rather than a vanishing trend.
CHECKS = (
    _twins("halpern<->two-corr nesterov", "ls", _ANCHORED, "y"),
    _twins("eag<->nag_eag", "ls", _EAG, "yz"),
    _twins("peag<->nag_peag", "ls", _PEAG, "z"),
    _twins("comono_eag<->nag_comono", "ls", _COMONO, "yz", "comono"),
    _twins("halpern<->two-corr nesterov", "prox bilinear", _ANCHORED, "y"),
    _twins("eag<->nag_eag", "huber", _EAG, "yz"),
    _twins("peag<->nag_peag", "huber", _PEAG, "z"),
    _twins("comono_eag<->nag_comono", "huber", _COMONO, "yz", "comono"),

    Check("lemmas", "anchored potential nonincreasing [ls, fast]", "ls",
          "halpern/halpern_fast", _decrease("anchored_potential"),
          ("anchored",)),
    Check("lemmas", "corrected potential nonincreasing [ls, omega]", "ls",
          verdict=_decrease("corrected_potential"), folds=("omega",), **_OMEGA),
    Check("lemmas", "corrected potential above anchor distance", "ls",
          verdict=lambda case, trace, v, dist: (bool(np.all(
              v.series() >= dist.series() - 1e-10)),),
          folds=("omega", "anchor distance"), **_OMEGA),
    *(Check("lemmas", f"budget {name} [ls]", "ls", verdict=_budget(name),
            folds=("omega", "budgets"), **_OMEGA)
      for name in ("anchor_distance_budget", "residual_budget",
                   "residual_difference_budget", "correction_budget")),
    Check("lemmas", "potential coupling identity [ls]", "ls",
          "nesterov/nesterov_slow", lambda case, trace, coupling: (
              coupling.max_deviation() <= 1e-10,
              f"max_dev={coupling.max_deviation():.2e}"),
          ("coupling",), K=lambda iters: min(iters, 500)),
    Check("lemmas", "extra-gradient potential nonincreasing (k>=1) [huber]",
          "huber", "nag_eag/nag_eag", _decrease("eag_potential", start=1),
          ("eag",)),
    Check("lemmas", "extra-gradient potential above weighted residual",
          "huber", "nag_eag/nag_eag", _above_weighted_residual,
          ("eag", "|G y|^2")),
    Check("lemmas", "past-extra potential nonincreasing [huber, sigma=2]",
          "huber", verdict=_decrease("peag_potential"), folds=("peag",),
          **_PEAG_2),
    Check("lemmas", "past-extra weighted gap budget [huber, sigma=2]",
          "huber", verdict=lambda case, trace, e, gaps: _report(
              gaps.report(e.series()[0])), folds=("peag", "gaps"), **_PEAG_2),
    Check("lemmas", "forward-backward residual co-coercive (1000 pairs)", "ls",
          "", _cocoercive(lambda b, lam, L: fb_residual(SplittingSpec(
              a=l1_kind(0.1), b=b, lam=lam, l_of_b_or_c=L)), seed=11)),
    Check("lemmas", "three-operator residual co-coercive (1000 pairs)", "ls",
          "", _cocoercive(lambda c, lam, L: tos_residual(SplittingSpec(
              a=l1_kind(0.1), b=box_kind(-1.0, 1.0), lam=lam, c=c,
              l_of_b_or_c=L)), seed=13)),
    Check("lemmas", "residual change-of-variable agreement", "ls", "",
          _change_of_variable),

    Check("bounds", "anchored fast residual bound [ls]", "ls",
          "halpern/halpern_fast", _bound("halpern_fast")),
    Check("bounds", "anchored slow residual bound [ls]", "ls",
          "halpern/halpern_slow", _bound("halpern_slow")),
    Check("bounds", "residual difference budget [ls, slow]", "ls",
          "halpern/halpern_slow", lambda case, trace, differences: _report(
              differences.report()), ("differences",)),
    Check("bounds", "corrected slow residual bound [ls]", "ls",
          "nesterov/nesterov_slow", _bound("halpern_slow")),
    Check("bounds", "corrected fast residual bound [ls]", "ls",
          "nesterov/nesterov_fast", _bound("halpern_fast")),
    Check("bounds", "omega family vanishing-rate trend [ls]", "ls",
          verdict=_trend, **_OMEGA),
    Check("bounds", "anchored omega residual slope [ls]", "ls",
          "halpern/halpern_omega", _slope("norm_g_y")),
    Check("bounds", "extra-gradient residual bound [huber]", "huber",
          "nag_eag/nag_eag", _bound("eag")),
    Check("bounds", "constant-step extra-gradient rate constant [huber]",
          "huber", "eag/eag_constant", _constant_rate, kw="eta=1/8L"),
    Check("bounds", "varying-step extra-gradient rate constant [huber]",
          "huber", "eag/eag_varying", lambda case, trace:
          eag_varying_rate_check(trace, 0.5 / case.L, case.L, case.d0),
          kw="eta0=0.5/L"),
    Check("bounds", "past-extra residual bound [huber]", "huber", "peag/peag",
          lambda case, trace, residual: _report(residual.report()),
          ("peag residual",), x_residual=True),
    Check("bounds", "past-extra probe bound [huber]", "huber", "peag/peag",
          _bound("peag_probe", sigma=1.0), x_residual=True),
    Check("bounds", "three-correction probe bound [huber]", "huber",
          "nag_peag/nag_peag", _bound("peag_probe", sigma=1.0)),
    Check("bounds", "legacy past-extra residual slope [huber]", "huber",
          "peag/peag_legacy", _slope("norm_g_z"), kw="eta0=0.4/L"),
    Check("bounds", "co-monotone residual bound [bilinear]", "bilinear",
          "comono_eag/comono_eag", _bound("comono", "comono"), **_BILINEAR),
    Check("bounds", "corrected co-monotone residual bound [bilinear]",
          "bilinear", "nag_comono/nag_comono", _bound("comono", "comono"),
          **_BILINEAR),
)


def _suite(name, scale, plan):
    if plan is None:
        plan = Plan([row for row in CHECKS if row.suite == name], scale)
    return [plan.result(row) for row in plan.rows if row.suite == name]


def equivalence_suite(scale="small", plan=None):
    """Iterate identities between anchored schemes and their corrected twins."""
    return _suite("equivalence", scale, plan)


def lemmas_suite(scale="small", plan=None):
    """Potential decrease, lower bounds, the coupling identity, budgets."""
    return _suite("lemmas", scale, plan)


def bounds_suite(scale="small", plan=None):
    """Closed-form residual bounds on matching scheme/schedule pairs."""
    return _suite("bounds", scale, plan)


def run_suites(suite="all", scale="small"):
    """The rows of ``suite`` ("all": every suite) on one plan.

    A run two suites need is made once and charged to the first.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = SUITES[:-1] if suite == "all" else (suite,)
    plan = Plan([row for row in CHECKS if row.suite in names], scale)
    suites = {"equivalence": equivalence_suite, "lemmas": lemmas_suite,
              "bounds": bounds_suite}
    return [result for name in names for result in suites[name](scale, plan)]


def format_table(results):
    lines = [f"{'suite':<12} {'check':<52} {'stat':<5} detail",
             "-" * 100]
    lines += [r.row() for r in results]
    n_fail = sum(1 for r in results if not r.ok and not r.skipped)
    n_skip = sum(1 for r in results if r.skipped)
    lines.append("-" * 100)
    lines.append(f"{len(results)} checks, {n_fail} failed, {n_skip} skipped")
    return "\n".join(lines)
