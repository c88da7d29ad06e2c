"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (use ``pytest tests/test_acceptance.py -v -s``)."""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from anchored import diagnostics as dg
from anchored.figures import make_figure
from anchored.instances import (
    desk_bilinear,
    desk_huber,
    desk_least_squares,
    gen_scalar_identity,
    start_point,
)
from anchored.operators import counted, identity_operator, l1_kind, box_kind
from anchored.residuals import (
    SplittingSpec,
    cocoercivity_report,
    default_lambda,
    fb_residual,
    tos_residual,
)
from anchored.rng import SplitMix64
from anchored.schedules import (
    ScheduleParams,
    halpern_params,
    transformed_nesterov_stream,
)
from anchored.schemes import Solver, TraceOpts, run, solver_for
from anchored.operators import OperatorSpec, affine_kind


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num:>2} [{desc}]: FAIL")
        raise
    print(f"criterion {num:>2} [{desc}]: PASS")


def recorded(solver, y0, K):
    """The y and z iterates of every index of one run."""
    record = dg.RecordFold()
    run(solver, y0, K, observers=(record,))
    return record


@pytest.fixture(scope="module")
def ls_desk():
    inst = desk_least_squares()
    return inst, start_point(inst)


@pytest.fixture(scope="module")
def huber_desk():
    inst = desk_huber()
    return inst, start_point(inst)


def test_criterion_1_fast_anchored_bound(ls_desk):
    inst, y0 = ls_desk
    op = inst.operator
    d0 = float(np.linalg.norm(y0 - inst.solution))
    with criterion(1, "fast anchored residual bound, K=2000, <10s"):
        t0 = time.time()
        trace = run(solver_for(op, "halpern", "halpern_fast"), y0, 2000)
        report = dg.bound_check(trace, "halpern_fast", op.lipschitz, d0)
        elapsed = time.time() - t0
        assert report.violations == 0
        assert elapsed < 10.0


def test_criterion_2_tightness_witness():
    inst = gen_scalar_identity()
    with criterion(2, "scalar witness attains the bound at k=2"):
        trace = run(solver_for(inst.operator, "halpern", "halpern_fast"),
                    np.array([1.0]), 2)
        bound = 1.0 * 1.0 / 3.0
        assert abs(trace.norm_g_y[2] - bound) <= 1e-15


def test_criterion_3_scheme_equivalences(ls_desk, huber_desk):
    with criterion(3, "anchored<->corrected iterate identities, 500 steps"):
        for inst, y0 in (ls_desk, huber_desk):
            op = inst.operator
            L = op.lipschitz
            h = recorded(solver_for(op, "halpern", "halpern_fast"), y0, 500)
            two = Solver("nesterov", op,
                         lambda L=L: transformed_nesterov_stream(
                             ScheduleParams(k, *halpern_params(k, L, "fast"),
                                            gamma=1.0 / L)
                             for k in itertools.count()))
            n = recorded(two, y0, 500)
            assert dg.equivalence_report(h, n, "y") <= 1e-8

            a = recorded(solver_for(op, "eag", "nag_eag"), y0, 500)
            b = recorded(solver_for(op, "nag_eag", "nag_eag"), y0, 500)
            assert dg.equivalence_report(a, b, "y") <= 1e-8
            assert dg.equivalence_report(a, b, "z") <= 1e-8

            c = recorded(solver_for(op, "peag", "peag"), y0, 500)
            d = recorded(solver_for(op, "nag_peag", "nag_peag"), y0, 500)
            assert dg.equivalence_report(c, d, "z") <= 1e-8


def test_criterion_4_omega_family_suite(ls_desk):
    inst, y0 = ls_desk
    op, y_star = inst.operator, inst.solution
    L = op.lipschitz
    gamma, omega = 0.9 / L, 3.0
    with criterion(4, "omega-family potential, budgets, trend, K=5000"):
        potential = dg.omega_potential_fold(gamma, omega, y_star)
        budgets = dg.SummabilityFold(gamma, omega, L)
        trace = run(solver_for(op, "nesterov", "nesterov_omega", gamma=gamma,
                               omega=omega), y0, 5000,
                    observers=(potential, budgets))
        series = potential.series()
        assert dg.decrease_report(series).violations == 0
        for rep in budgets.reports(series[0]):
            assert rep.ok and not rep.skipped
        ok, early, late = dg.trend_check(trace.norm_g_y)
        assert ok, f"trend: early={early} late={late}"


def test_criterion_5_extra_gradient_suite(huber_desk):
    inst, y0 = huber_desk
    op, y_star = inst.operator, inst.solution
    L = op.lipschitz
    d0 = float(np.linalg.norm(y0 - y_star))
    with criterion(5, "extra-gradient potential and residual bound, K=5000"):
        potential = dg.eag_potential_fold(L, y_star)
        g_y = dg.MapFold(lambda point: point.g_y)
        trace = run(solver_for(op, "nag_eag", "nag_eag"), y0, 5000,
                    observers=(potential, g_y))
        series = potential.series()
        # decrease holds from the first computed step on; the k = 0 gap
        # is structural and equals |G y_0|^2 / (2 L^2) exactly
        assert dg.decrease_report(series[1:]).violations == 0
        g0 = g_y.terms[0]
        assert series[1] - series[0] == pytest.approx(
            float(g0 @ g0) / (2.0 * L * L), rel=1e-9)
        for k in range(5000):
            g = g_y.terms[k]
            assert series[k + 1] >= (k + 1.0) ** 2 / (4.0 * L * L) \
                * float(g @ g) - 1e-10
        report = dg.bound_check(trace, "eag", L, d0)
        assert report.violations == 0


def test_criterion_6_past_extra_suite(huber_desk):
    inst, y0 = huber_desk
    op, y_star = inst.operator, inst.solution
    L = op.lipschitz
    d0 = float(np.linalg.norm(y0 - y_star))
    with criterion(6, "past-extra bounds (sigma=1) and potential (sigma=2)"):
        # the run evaluates G(y_k), which the residual and potential read
        tracked = TraceOpts(track_x_residual=True)
        residual = dg.PeagResidualFold(L, d0, sigma=1.0)
        trace = run(solver_for(op, "peag", "peag", sigma=1.0), y0, 5000,
                    tracked, observers=(residual,))
        rep = residual.report()
        assert rep.violations == 0
        rep = dg.bound_check(trace, "peag_probe", L, d0, sigma=1.0)
        assert rep.violations == 0

        potential = dg.PeagPotentialFold(L, 2.0, y_star)
        gaps = dg.PeagGapFold(L, 2.0)
        run(solver_for(op, "peag", "peag", sigma=2.0), y0, 5000, tracked,
            observers=(potential, gaps))
        series = potential.series()
        assert dg.decrease_report(series).violations == 0
        gap = gaps.report(e0=series[0])
        assert gap.violations == 0 and not gap.skipped


def test_criterion_7_comonotone_bound():
    inst = desk_bilinear()
    op = inst.operator
    L = op.lipschitz
    rho = -1.0 / (4.0 * L)
    y0 = start_point(inst)
    d0 = float(np.linalg.norm(y0 - inst.solution))
    with criterion(7, "co-monotone residual bound on the skew instance"):
        trace = run(solver_for(op, "comono_eag", "comono_eag", rho=rho),
                    y0, 3000)
        report = dg.bound_check(trace, "comono", L, d0, rho=rho)
        assert report.violations == 0


def test_criterion_8_residual_operator_properties(ls_desk):
    inst, _ = ls_desk
    op = inst.operator
    L = op.lipschitz
    lam = default_lambda(L)
    modulus = lam * (4.0 - lam * L) / 4.0
    with criterion(8, "residual co-coercivity and change of variable"):
        fb = fb_residual(SplittingSpec(a=l1_kind(0.1), b=op, lam=lam))
        assert fb.comonotone_modulus == pytest.approx(modulus)
        rep = cocoercivity_report(fb, modulus, 1000, seed=11, dim=op.dim)
        assert rep["violations"] == 0

        tos = tos_residual(SplittingSpec(a=l1_kind(0.1),
                                         b=box_kind(-1.0, 1.0), lam=lam,
                                         c=op))
        rep = cocoercivity_report(tos, modulus, 1000, seed=13, dim=op.dim)
        assert rep["violations"] == 0

        # E(y + lam*B y) = G(y) for single-valued affine B, C absent
        p_mat, b_vec = inst.meta["P"], inst.meta["b"]
        m_sym = p_mat.T @ p_mat
        shift = -p_mat.T @ b_vec
        b_single = OperatorSpec(dim=op.dim, eval=lambda y: m_sym @ y + shift,
                                lipschitz=L, comonotone_modulus=1.0 / L)
        fb2 = fb_residual(SplittingSpec(a=l1_kind(0.1), b=b_single, lam=lam))
        tos2 = tos_residual(SplittingSpec(a=l1_kind(0.1),
                                          b=affine_kind(m_sym, shift), lam=lam))
        rng = SplitMix64(17)
        for _ in range(100):
            y = rng.uniform_symmetric(op.dim)
            u = y + lam * b_single(y)
            g = fb2(y)
            assert np.linalg.norm(tos2(u) - g) <= 1e-10 * (
                1.0 + np.linalg.norm(g))


def test_criterion_9_figure_regeneration(tmp_path):
    with criterion(9, "figure pipelines under 60s with slopes <= -0.9"):
        for which in ("exam1", "exam2"):
            t0 = time.time()
            _, _, slopes = make_figure(which, "small", str(tmp_path))
            elapsed = time.time() - t0
            assert elapsed < 60.0, f"{which} took {elapsed:.1f}s"
            for label, slope in slopes.items():
                assert slope <= -0.9, f"{which}/{label}: slope {slope:.3f}"


def test_criterion_10_evaluation_counts():
    with criterion(10, "exact per-step operator evaluation counts"):
        per_step = {
            ("halpern", "halpern_fast"): 1,
            ("nesterov", "nesterov_slow"): 1,
            ("peag", "peag"): 1,
            ("nag_peag", "nag_peag"): 1,
            ("eag", "eag_constant"): 2,
            ("nag_eag", "nag_eag"): 2,
            ("comono_eag", "comono_eag"): 2,
            ("nag_comono", "nag_comono"): 2,
        }
        from anchored.schemes import SCHEMES, init_state
        from anchored.schedules import schedule_stream
        for (scheme, kind), per in per_step.items():
            op, counter = counted(identity_operator(3))
            kw = {"rho": -0.1} if "comono" in kind else {}
            stream = schedule_stream(kind, 1.0, **kw)
            state = init_state(np.array([1.0, -0.5, 2.0]))
            counts = []
            for _ in range(8):
                before = counter.count
                SCHEMES[scheme].step(state, op, next(stream))
                counts.append(counter.count - before)
            if scheme == "peag":
                assert counts[0] == 2  # warm-up evaluation at z_0
                assert all(c == 1 for c in counts[1:])
            else:
                assert all(c == per for c in counts), (scheme, counts)
            # driver totals: steps plus the single final-residual value
            op2, counter2 = counted(identity_operator(3))
            solver = solver_for(op2, scheme, kind, L=1.0, **kw)
            run(solver, np.array([1.0, -0.5, 2.0]), 10)
            assert counter2.count == (21 if per == 2 else 11), scheme
