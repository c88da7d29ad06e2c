"""Verification suites: scheme equivalences, potential decrease, bounds.

Each suite returns a list of :class:`CheckResult`; the CLI renders them
as a pass/fail table and exits nonzero when any non-skipped check
fails. Desk scale keeps every suite in the seconds range; paper scale
reruns the bound checks at the published dimensions.
"""

from dataclasses import dataclass

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
from .schedules import halpern_params, transformed_nesterov_stream
from .schemes import Solver, TraceOpts, run, solver_for

SUITES = ("equivalence", "lemmas", "bounds", "all")
EQUIV_TOL = 1e-8
EQUIV_STEPS = 500
#: runs whose checks are folds or read only the scalar columns
NO_SNAPSHOTS = TraceOpts(snapshot_stride=0)
#: past-extra runs: G at the x slot (y_k for peag) goes to the folds
X_RESIDUAL = TraceOpts(snapshot_stride=0, track_x_residual=True)


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False

    def row(self):
        status = "SKIP" if self.skipped else ("PASS" if self.ok else "FAIL")
        return f"{self.suite:<12} {self.name:<52} {status:<5} {self.detail}"


def _instances(scale):
    if scale == "paper":
        return paper_least_squares(), paper_huber()
    return desk_least_squares(), desk_huber()


def _iters(scale):
    return 5000 if scale == "paper" else 2000


def equivalence_check(name, trace_a, trace_b, fields=("y",)):
    """Largest pointwise deviation of ``fields`` between two runs.

    A run that ended in an error fails the check: a truncated pair can
    agree on every step it has and still certify nothing.
    """
    errors = [t.error for t in (trace_a, trace_b) if t.error is not None]
    if errors:
        return CheckResult("equivalence", name, False,
                           f"run error: {errors[0]}")
    dev = max(dg.equivalence_report(trace_a, trace_b, f) for f in fields)
    return CheckResult("equivalence", name, dev <= EQUIV_TOL,
                       f"max_dev={dev:.2e}")


def anchored_pair(op, y0, K=EQUIV_STEPS):
    """The fast anchored run and its two-correction twin from ``y0``."""
    L = op.lipschitz
    two_corr = Solver("nesterov", op, lambda: transformed_nesterov_stream(
        lambda k: halpern_params(k, L, "fast"), lambda k: 1.0 / L, L))
    return (run(solver_for(op, "halpern", "halpern_fast"), y0, K),
            run(two_corr, y0, K))


def proximal_point_operator(bil):
    """Yosida residual of the skew operator of a bilinear instance, lam = 1/L.

    The paper's proximal-point application: co-coercive with modulus
    1/L and the instance's zero, where the skew operator itself is only
    monotone.
    """
    k_mat = bil.meta["K"]
    m, n = k_mat.shape
    skew = np.block([[np.zeros((n, n)), k_mat.T],
                     [-k_mat, np.zeros((m, m))]])
    return yosida(affine_kind(skew), 1.0 / bil.operator.lipschitz)


def equivalence_suite(scale="small"):
    """Iterate identities between anchored schemes and their corrected twins.

    The anchored rows need a co-coercive operator, so the second one runs
    on the proximal-point operator of the bilinear instance, not on the
    merely monotone Huber operator (where the fast rule diverges).
    """
    results = []
    ls, hub = _instances(scale)
    bil = desk_bilinear()
    prox = ("prox bilinear", proximal_point_operator(bil), start_point(bil))
    for label, inst in (("ls", ls), ("huber", hub)):
        op = inst.operator
        L = op.lipschitz
        y0 = start_point(inst)

        a_label, a_op, a_y0 = (label, op, y0) if label == "ls" else prox
        results.append(equivalence_check(
            f"halpern<->two-corr nesterov [{a_label}]",
            *anchored_pair(a_op, a_y0)))

        a = run(solver_for(op, "eag", "nag_eag"), y0, EQUIV_STEPS)
        b = run(solver_for(op, "nag_eag", "nag_eag"), y0, EQUIV_STEPS)
        results.append(equivalence_check(f"eag<->nag_eag [{label}]", a, b,
                                         ("y", "z")))

        c = run(solver_for(op, "peag", "peag"), y0, EQUIV_STEPS)
        d = run(solver_for(op, "nag_peag", "nag_peag"), y0, EQUIV_STEPS)
        results.append(equivalence_check(f"peag<->nag_peag [{label}]", c, d,
                                         ("z",)))

        rho = -1.0 / (4.0 * L)
        e = run(solver_for(op, "comono_eag", "comono_eag", rho=rho), y0,
                EQUIV_STEPS)
        f = run(solver_for(op, "nag_comono", "nag_comono", rho=rho), y0,
                EQUIV_STEPS)
        results.append(equivalence_check(f"comono_eag<->nag_comono [{label}]",
                                         e, f, ("y", "z")))
    return results


def _bool_result(suite, name, ok, detail="", skipped=False):
    return CheckResult(suite, name, ok, detail, skipped)


def _report_result(suite, name, report):
    return CheckResult(suite, name, report.ok, report.to_text(),
                       skipped=report.skipped)


def lemmas_suite(scale="small"):
    """Potential decrease, lower bounds, the coupling identity, budgets.

    Every check is a fold fed by the run, so no run keeps snapshots.
    The past-extra run tracks its x residual, which is G y_k, for the
    potential fold.
    """
    results = []
    K = _iters(scale)
    ls, hub = _instances(scale)

    # anchored potential along the fast anchored run
    op, y_star = ls.operator, ls.solution
    L = op.lipschitz
    y0 = start_point(ls)
    anchored = dg.AnchoredPotentialFold(L)
    run(solver_for(op, "halpern", "halpern_fast"), y0, K, NO_SNAPSHOTS,
        observers=(anchored,))
    results.append(_report_result(
        "lemmas", "anchored potential nonincreasing [ls, fast]",
        dg.decrease_report(anchored.series(), "anchored_potential")))

    # corrected potential: decrease, lower bound, budgets (omega family)
    gamma, omega, mu = 0.9 / L, 3.0, 1.0
    corrected = dg.omega_potential_fold(gamma, omega, y_star, mu)
    dist = dg.MapFold(lambda s: float(np.linalg.norm(s.x - y_star)) ** 2)
    budgets = dg.SummabilityFold(gamma, omega, L, mu)
    run(solver_for(op, "nesterov", "nesterov_omega", gamma=gamma,
                   omega=omega), y0, K, NO_SNAPSHOTS,
        observers=(corrected, dist, budgets))
    v_series = corrected.series()
    results.append(_report_result(
        "lemmas", "corrected potential nonincreasing [ls, omega]",
        dg.decrease_report(v_series, "corrected_potential")))
    lb_ok = bool(np.all(v_series >= mu * dist.series() - 1e-10))
    results.append(_bool_result("lemmas",
                                "corrected potential above anchor distance",
                                lb_ok))
    for rep in budgets.reports(v_series[0]):
        results.append(_report_result("lemmas", f"budget {rep.name} [ls]", rep))

    # coupling identity between the two potentials, mu = 0
    coupling = dg.CouplingIdentityFold(L, y_star)
    run(solver_for(op, "nesterov", "nesterov_slow"), y0, min(K, 500),
        NO_SNAPSHOTS, observers=(coupling,))
    worst = coupling.max_deviation()
    results.append(_bool_result("lemmas", "potential coupling identity [ls]",
                                worst <= 1e-10, f"max_dev={worst:.2e}"))

    # extra-gradient potential on the saddle instance (decrease holds from
    # k = 1 on; the k = 0 coefficients zero out the compensating terms)
    oph, yh_star = hub.operator, hub.solution
    Lh = oph.lipschitz
    yh0 = start_point(hub)
    eag = dg.eag_potential_fold(Lh, yh_star)
    g_sq = dg.MapFold(lambda s: float(s.g_y @ s.g_y))
    run(solver_for(oph, "nag_eag", "nag_eag"), yh0, K, NO_SNAPSHOTS,
        observers=(eag, g_sq))
    q_series = eag.series()
    results.append(_report_result(
        "lemmas", "extra-gradient potential nonincreasing (k>=1) [huber]",
        dg.decrease_report(q_series[1:], "eag_potential")))
    ks = np.arange(len(q_series) - 1)
    lb_ok = bool(np.all(
        q_series[1:] >= (ks + 1.0) ** 2 / (4.0 * Lh * Lh)
        * g_sq.series()[:-1] - 1e-10))
    results.append(_bool_result(
        "lemmas", "extra-gradient potential above weighted residual", lb_ok))

    # past-extra potential, sigma = 2: decrease plus the weighted gap budget
    potential = dg.PeagPotentialFold(Lh, 2.0, yh_star)
    gaps = dg.PeagGapFold(Lh, 2.0)
    run(solver_for(oph, "peag", "peag", sigma=2.0), yh0, K, X_RESIDUAL,
        observers=(potential, gaps))
    e_series = potential.series()
    results.append(_report_result(
        "lemmas", "past-extra potential nonincreasing [huber, sigma=2]",
        dg.decrease_report(e_series, "peag_potential")))
    results.append(_report_result(
        "lemmas", "past-extra weighted gap budget [huber, sigma=2]",
        gaps.report(e_series[0])))

    # residual-operator properties (forward-backward and three-operator)
    lam = default_lambda(L)
    fb = fb_residual(SplittingSpec(a=l1_kind(0.1), b=op, lam=lam,
                                   l_of_b_or_c=L))
    rep = cocoercivity_report(fb, fb.cocoercivity_modulus, 1000, seed=11,
                              dim=op.dim)
    results.append(_bool_result(
        "lemmas", "forward-backward residual co-coercive (1000 pairs)",
        rep["violations"] == 0, f"worst_margin={rep['worst_margin']:.2e}"))
    tos = tos_residual(SplittingSpec(a=l1_kind(0.1), b=box_kind(-1.0, 1.0),
                                     lam=lam, c=op, l_of_b_or_c=L))
    rep = cocoercivity_report(tos, tos.cocoercivity_modulus, 1000, seed=13,
                              dim=op.dim)
    results.append(_bool_result(
        "lemmas", "three-operator residual co-coercive (1000 pairs)",
        rep["violations"] == 0, f"worst_margin={rep['worst_margin']:.2e}"))

    # change-of-variable agreement between the two residuals
    p_mat = ls.meta["P"]
    m_sym = p_mat.T @ p_mat
    b_aff = OperatorSpec(dim=op.dim, eval=lambda y: m_sym @ y - p_mat.T @ ls.meta["b"],
                         lipschitz=L, cocoercivity_modulus=1.0 / L,
                         monotone=True)
    fb2 = fb_residual(SplittingSpec(a=l1_kind(0.1), b=b_aff, lam=lam,
                                    l_of_b_or_c=L))
    tos2 = tos_residual(SplittingSpec(
        a=l1_kind(0.1), b=affine_kind(m_sym, -p_mat.T @ ls.meta["b"]), lam=lam))
    rng = SplitMix64(17)
    worst = 0.0
    for _ in range(100):
        y = rng.uniform_symmetric(op.dim)
        u = y + lam * b_aff(y)
        g = fb2(y)
        worst = max(worst, float(np.linalg.norm(tos2(u) - g))
                    / (1.0 + float(np.linalg.norm(g))))
    results.append(_bool_result("lemmas",
                                "residual change-of-variable agreement",
                                worst <= 1e-10, f"max_dev={worst:.2e}"))
    return results


def _rate_result(name, trace, c_star, dist0, denom, note=""):
    """|G y_k|^2 <= c_star dist0^2 / denom_k at every index k."""
    theory = c_star * dist0 * dist0 / denom
    viol = int(np.count_nonzero(trace.norm_g_y ** 2 > theory * (1.0 + 1e-9)))
    return _bool_result("bounds", name, viol == 0,
                        f"violations={viol}{note}")


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
    return _rate_result(
        "varying-step extra-gradient rate constant [huber]", trace, c_star,
        dist0, denom, f" eta*L>={eta_star * L:.4f} worst_ratio={ratio:.3f}")


def bounds_suite(scale="small"):
    """Closed-form residual bounds on matching scheme/schedule pairs.

    Every bound reads the trace's scalar columns or a fold, so no run
    keeps snapshots. The past-extra run tracks its x residual, which is
    G y_k, for the residual-bound fold.
    """
    results = []
    K = _iters(scale)
    ls, hub = _instances(scale)
    bil = desk_bilinear()

    op, y_star = ls.operator, ls.solution
    L = op.lipschitz
    y0 = start_point(ls)
    d0 = float(np.linalg.norm(y0 - y_star))

    tr = run(solver_for(op, "halpern", "halpern_fast"), y0, K, NO_SNAPSHOTS)
    results.append(_report_result(
        "bounds", "anchored fast residual bound [ls]",
        dg.bound_check(tr, "halpern_fast", L, d0)))

    differences = dg.ResidualDifferenceFold(L, d0)
    tr = run(solver_for(op, "halpern", "halpern_slow"), y0, K, NO_SNAPSHOTS,
             observers=(differences,))
    results.append(_report_result(
        "bounds", "anchored slow residual bound [ls]",
        dg.bound_check(tr, "halpern_slow", L, d0)))
    results.append(_report_result(
        "bounds", "residual difference budget [ls, slow]",
        differences.report()))

    tr = run(solver_for(op, "nesterov", "nesterov_slow"), y0, K, NO_SNAPSHOTS)
    results.append(_report_result(
        "bounds", "corrected slow residual bound [ls]",
        dg.bound_check(tr, "halpern_slow", L, d0)))
    tr = run(solver_for(op, "nesterov", "nesterov_fast"), y0, K, NO_SNAPSHOTS)
    results.append(_report_result(
        "bounds", "corrected fast residual bound [ls]",
        dg.bound_check(tr, "halpern_fast", L, d0)))

    tr = run(solver_for(op, "nesterov", "nesterov_omega", gamma=0.9 / L,
                        omega=3.0), y0, K, NO_SNAPSHOTS)
    ok, early, late = dg.trend_check(tr.norm_g_y)
    results.append(_bool_result(
        "bounds", "omega family vanishing-rate trend [ls]", ok,
        f"early={early:.3e} late={late:.3e}"))
    # the interior-stepsize anchored rule settles on the 1/k envelope at
    # this horizon; assert the fitted slope rather than a vanishing trend
    tr = run(solver_for(op, "halpern", "halpern_omega"), y0, K, NO_SNAPSHOTS)
    fit = dg.rate_fit(tr.norm_g_y, (K // 4, K))
    results.append(_bool_result(
        "bounds", "anchored omega residual slope [ls]", fit.slope <= -0.9,
        f"slope={fit.slope:.3f}"))

    oph, yh_star = hub.operator, hub.solution
    Lh = oph.lipschitz
    yh0 = start_point(hub)
    dh0 = float(np.linalg.norm(yh0 - yh_star))

    tr = run(solver_for(oph, "nag_eag", "nag_eag"), yh0, K, NO_SNAPSHOTS)
    results.append(_report_result(
        "bounds", "extra-gradient residual bound [huber]",
        dg.bound_check(tr, "eag", Lh, dh0)))

    eta = 1.0 / (8.0 * Lh)
    tr = run(solver_for(oph, "eag", "eag_constant", eta=eta), yh0, K,
             NO_SNAPSHOTS)
    ks = np.asarray(tr.k, dtype=float)
    results.append(_rate_result(
        "constant-step extra-gradient rate constant [huber]", tr,
        dg.eag_constant_rate_constant(eta, Lh), dh0, (ks + 1.0) ** 2))

    tr = run(solver_for(oph, "eag", "eag_varying", eta0=0.5 / Lh), yh0, K,
             NO_SNAPSHOTS)
    results.append(eag_varying_rate_check(tr, 0.5 / Lh, Lh, dh0))

    residual = dg.PeagResidualFold(Lh, dh0, sigma=1.0)
    tr = run(solver_for(oph, "peag", "peag", sigma=1.0), yh0, K, X_RESIDUAL,
             observers=(residual,))
    results.append(_report_result(
        "bounds", "past-extra residual bound [huber]", residual.report()))
    results.append(_report_result(
        "bounds", "past-extra probe bound [huber]",
        dg.bound_check(tr, "peag_probe", Lh, dh0, sigma=1.0)))
    tr = run(solver_for(oph, "nag_peag", "nag_peag"), yh0, K, NO_SNAPSHOTS)
    results.append(_report_result(
        "bounds", "three-correction probe bound [huber]",
        dg.bound_check(tr, "peag_probe", Lh, dh0, sigma=1.0)))

    tr = run(solver_for(oph, "peag", "peag_legacy", eta0=0.4 / Lh), yh0, K,
             NO_SNAPSHOTS)
    fit = dg.rate_fit(tr.norm_g_z, (K // 4, K))
    results.append(_bool_result(
        "bounds", "legacy past-extra residual slope [huber]",
        fit.slope <= -0.9, f"slope={fit.slope:.3f}"))

    opb = bil.operator
    Lb = opb.lipschitz
    rho = -1.0 / (4.0 * Lb)
    yb0 = start_point(bil)
    db0 = float(np.linalg.norm(yb0 - bil.solution))
    tr = run(solver_for(opb, "comono_eag", "comono_eag", rho=rho), yb0,
             max(K, 3000), NO_SNAPSHOTS)
    results.append(_report_result(
        "bounds", "co-monotone residual bound [bilinear]",
        dg.bound_check(tr, "comono", Lb, db0, rho=rho)))
    tr = run(solver_for(opb, "nag_comono", "nag_comono", rho=rho), yb0,
             max(K, 3000), NO_SNAPSHOTS)
    results.append(_report_result(
        "bounds", "corrected co-monotone residual bound [bilinear]",
        dg.bound_check(tr, "comono", Lb, db0, rho=rho)))
    return results


def run_suites(suite="all", scale="small"):
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    if suite in ("equivalence", "all"):
        results += equivalence_suite(scale)
    if suite in ("lemmas", "all"):
        results += lemmas_suite(scale)
    if suite in ("bounds", "all"):
        results += bounds_suite(scale)
    return results


def format_table(results):
    lines = [f"{'suite':<12} {'check':<52} {'stat':<5} detail",
             "-" * 100]
    lines += [r.row() for r in results]
    n_fail = sum(1 for r in results if not r.ok and not r.skipped)
    n_skip = sum(1 for r in results if r.skipped)
    lines.append("-" * 100)
    lines.append(f"{len(results)} checks, {n_fail} failed, {n_skip} skipped")
    return "\n".join(lines)
