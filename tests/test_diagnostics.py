import numpy as np
import pytest

from anchored.diagnostics import (
    AnchoredPotentialFold,
    BoundReport,
    LyapunovCoeffs,
    PeagGapFold,
    PeagPotentialFold,
    PeagResidualFold,
    RecordFold,
    ResidualDifferenceFold,
    SummabilityFold,
    anchor_to_corrected_coeffs,
    bound_check,
    decrease_report,
    eag_constant_rate_constant,
    eag_family_coeffs,
    eag_potential_fold,
    equivalence_report,
    halpern_potential,
    halpern_potential_coeffs,
    nesterov_potential,
    omega_family_coeffs,
    omega_potential_fold,
    peag_potential,
    rate_fit,
    trend_check,
)
from anchored.errors import DataError, InputError
from anchored.operators import identity_operator, least_squares_operator
from anchored.rng import SplitMix64
from anchored.schemes import TraceOpts, run, solver_for

X_RESIDUAL = TraceOpts(track_x_residual=True)


def unit_columns(m):
    return m / np.linalg.norm(m, axis=0)


def ls_fixture(seed=3, n=16, p=8):
    rng = SplitMix64(seed)
    p_mat = unit_columns(rng.normal_matrix(n, p))
    b = p_mat @ rng.normal(p)
    op = least_squares_operator(p_mat, b)
    y_star = np.linalg.lstsq(p_mat, b, rcond=None)[0]
    return op, y_star


def fed(solver, y0, K, *folds, opts=None):
    """Run ``solver`` with ``folds`` as observers; its trace points."""
    points = []
    run(solver, y0, K, opts, observers=(*folds, points.append))
    return points


def saddle_fixture(seed=7, m=10, n=8):
    from anchored.operators import huber_saddle_operator, spectral_norm
    k = unit_columns(SplitMix64(seed).normal_matrix(m, n))
    s = spectral_norm(k)
    return huber_saddle_operator(k, s, s, 0.05, k_norm=s), np.zeros(m + n)


class TestRateFit:
    def test_inverse_k(self):
        series = 1.0 / (np.arange(200) + 1.0)
        assert rate_fit(series).slope == pytest.approx(-1.0, abs=1e-6)

    def test_constant(self):
        assert rate_fit(np.ones(100)).slope == pytest.approx(0.0, abs=1e-9)

    def test_inverse_k_squared(self):
        series = 1.0 / (np.arange(300) + 1.0) ** 2
        assert rate_fit(series).slope == pytest.approx(-2.0, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            rate_fit(np.array([1.0, 0.0, 1.0, 1.0]), window=(0, 3))

    def test_rejects_bad_window(self):
        with pytest.raises(InputError):
            rate_fit(np.ones(10), window=(5, 20))


class TestEquivalenceReport:
    def test_trace_vs_itself(self):
        op = identity_operator()
        t = RecordFold()
        fed(solver_for(op, "halpern", "halpern_fast"), np.array([1.0]), 20, t)
        assert equivalence_report(t, t, "y") == 0.0

    def test_length_mismatch(self):
        op = identity_operator()
        a, b = RecordFold(), RecordFold()
        fed(solver_for(op, "halpern", "halpern_fast"), np.array([1.0]), 5, a)
        fed(solver_for(op, "halpern", "halpern_fast"), np.array([1.0]), 6, b)
        with pytest.raises(InputError):
            equivalence_report(a, b)


class TestHalpernPotential:
    def test_zero_residual_gives_zero(self):
        assert halpern_potential(np.zeros(2), np.ones(2), np.zeros(2),
                                 6.0, 3.0, 1.0) == 0.0

    def test_at_anchor_only_quadratic_term(self):
        g = np.array([2.0, -1.0])
        y0 = np.array([0.3, 0.4])
        val = halpern_potential(g, y0, y0, 6.0, 3.0, 2.0)
        assert val == pytest.approx((6.0 / 2.0) * 5.0)

    def test_scalar_identity_run_matches_direct_formula(self):
        op = identity_operator()
        fold = AnchoredPotentialFold(L=1.0)
        points = fed(solver_for(op, "halpern", "halpern_slow"),
                     np.array([1.0]), 5, fold)
        series = fold.series()
        # independent evaluation from the recorded iterates
        ys = [s.y[0] for s in points]
        for k in range(5):
            p_k, q_k = k * (k + 1.0), k + 1.0
            expect = p_k * ys[k] ** 2 + q_k * ys[k] * (ys[k] - 1.0)
            assert series[k] == pytest.approx(expect, abs=1e-15)

    def test_nonincreasing_along_fast_anchored_run(self):
        # the potential decrease belongs to the fast stepsize, whose
        # update is the anchored iteration on the full-length averaged map
        op, y_star = ls_fixture()
        y0 = SplitMix64(5).normal(op.dim)
        fold = AnchoredPotentialFold(L=op.lipschitz)
        fed(solver_for(op, "halpern", "halpern_fast"), y0, 400, fold)
        assert decrease_report(fold.series()).violations == 0

    def test_slow_run_is_not_the_decreasing_parameterization(self):
        op, y_star = ls_fixture()
        y0 = SplitMix64(5).normal(op.dim)
        fold = AnchoredPotentialFold(L=op.lipschitz)
        fed(solver_for(op, "halpern", "halpern_slow"), y0, 400, fold)
        assert decrease_report(fold.series()).violations > 0


class TestNesterovPotential:
    def test_zero_at_exact_solution(self):
        y_star = np.array([0.5, -0.5])
        c = LyapunovCoeffs(a=1.0, b=2.0, t=3.0, mu=1.0)
        val = nesterov_potential(np.zeros(2), y_star, y_star, c, y_star)
        assert val == 0.0

    def test_initial_value_formula(self):
        op, y_star = ls_fixture(seed=11)
        y0 = SplitMix64(13).normal(op.dim)
        gamma, omega, mu = 0.9 / op.lipschitz, 3.0, 1.0
        fold = omega_potential_fold(gamma, omega, y_star, mu)
        points = fed(solver_for(op, "nesterov", "nesterov_omega",
                                gamma=gamma, omega=omega), y0, 2, fold)
        series = fold.series()
        g0 = points[0].g_y
        a0 = omega_family_coeffs(0, gamma, omega, mu).a
        d0 = np.linalg.norm(y0 - y_star)
        expect = a0 * float(g0 @ g0) + (1.0 + mu) * d0 * d0
        assert series[0] == pytest.approx(expect, rel=1e-12)

    def test_decrease_and_lower_bound_along_omega_run(self):
        op, y_star = ls_fixture(seed=19)
        y0 = SplitMix64(23).normal(op.dim)
        gamma, omega, mu = 0.9 / op.lipschitz, 3.0, 1.0
        fold = omega_potential_fold(gamma, omega, y_star, mu)
        points = fed(solver_for(op, "nesterov", "nesterov_omega",
                                gamma=gamma, omega=omega), y0, 500, fold)
        series = fold.series()
        assert decrease_report(series).violations == 0
        for k, s in enumerate(points):
            d = np.linalg.norm(s.x - y_star)
            assert series[k] >= mu * d * d - 1e-10

    def test_anchor_correspondence_identity(self):
        # corrected potential at k+1 equals the scaled anchored potential
        # at k plus |y0 - y*|^2, checked on an operator with L != 1
        op, y_star = ls_fixture(seed=29)
        L = op.lipschitz
        y0 = SplitMix64(31).normal(op.dim)
        snaps = fed(solver_for(op, "nesterov", "nesterov_slow"), y0, 60)
        d0sq = float(np.linalg.norm(y0 - y_star) ** 2)
        scale = 1.0 + abs(d0sq)
        for k in range(60):
            beta = 1.0 / (k + 2)
            eta = (1.0 - beta) / L
            p_k, q_k = halpern_potential_coeffs(k)
            l_val = halpern_potential(snaps[k].g_y, snaps[k].y, y0, p_k, q_k, L)
            coeffs = anchor_to_corrected_coeffs(k, beta, eta, L)
            v_next = nesterov_potential(snaps[k].g_y, snaps[k + 1].x,
                                        snaps[k + 1].y, coeffs, y_star)
            lhs = v_next - d0sq
            rhs = (4.0 * p_k / (L * q_k * q_k)) * l_val
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs) + scale)


class TestEagPotential:
    def test_initial_value_is_anchor_distance(self):
        y_star = np.array([0.25, 0.0])
        y0 = np.array([1.0, -1.0])
        c = eag_family_coeffs(0, 1.0)
        assert c.a == 0.0 and c.b == 0.0
        val = nesterov_potential(np.ones(2), y0, y0, c, y_star)
        assert val == pytest.approx(float(np.linalg.norm(y0 - y_star) ** 2))

    def test_zero_at_exact_solution(self):
        y_star = np.array([0.5])
        c = eag_family_coeffs(3, 2.0)
        assert nesterov_potential(np.zeros(1), y_star, y_star, c,
                                  y_star) == 0.0

    def test_decrease_and_lower_bound_on_saddle_run(self):
        op, y_star = saddle_fixture()
        L = op.lipschitz
        y0 = SplitMix64(37).normal(op.dim)
        fold = eag_potential_fold(L, y_star)
        points = fed(solver_for(op, "nag_eag", "nag_eag"), y0, 300, fold)
        series = fold.series()
        # decrease holds from k = 1 on; the k = 0 coefficients zero out
        # the terms that would offset the fresh a_1 |G y_0|^2 weight
        assert decrease_report(series[1:]).violations == 0
        assert series[1] - series[0] == pytest.approx(
            float(points[0].g_y @ points[0].g_y)
            / (2.0 * L * L), rel=1e-9)
        # series[k+1] >= ((k+1)^2/(4 L^2)) |G y_k|^2 with b1 = 2/L
        for k in range(300):
            g = points[k].g_y
            assert series[k + 1] >= (k + 1.0) ** 2 / (4.0 * L * L) * float(g @ g) - 1e-10


class TestPeagPotential:
    def test_initial_value_formula(self):
        L, sigma, b0 = 2.0, 1.0, 1.0
        root = np.sqrt(2.0 * L * L * (1.0 + sigma))
        y0 = np.array([1.0, 2.0])
        y_star = np.array([0.0, 0.5])
        g0 = np.array([0.3, -0.4])
        val = peag_potential(g0, y0, y0, 0, L, sigma, y0, y_star, b0)
        d0sq = float(np.linalg.norm(y0 - y_star) ** 2)
        expect = (b0 / (2.0 * root)) * float(g0 @ g0) + b0 * root * d0sq
        assert val == pytest.approx(expect, rel=1e-14)

    def test_zero_when_started_at_solution(self):
        y_star = np.array([0.7])
        val = peag_potential(np.zeros(1), y_star, y_star, 4, 1.0, 1.0,
                             y_star, y_star)
        assert val == 0.0

    def test_decrease_and_gap_budget_sigma_two(self):
        op, y_star = saddle_fixture(seed=43)
        y0 = SplitMix64(47).normal(op.dim)
        potential = PeagPotentialFold(op.lipschitz, 2.0, y_star)
        gaps = PeagGapFold(op.lipschitz, 2.0)
        fed(solver_for(op, "peag", "peag", sigma=2.0), y0, 200, potential,
            gaps, opts=X_RESIDUAL)
        series = potential.series()
        assert decrease_report(series).violations == 0
        report = gaps.report(e0=series[0])
        assert report.violations == 0 and not report.skipped

    def test_gap_budget_skipped_for_sigma_one(self):
        op, y_star = saddle_fixture(seed=43)
        y0 = SplitMix64(47).normal(op.dim)
        gaps = PeagGapFold(op.lipschitz, 1.0)
        fed(solver_for(op, "peag", "peag", sigma=1.0), y0, 20, gaps)
        report = gaps.report(e0=1.0)
        assert report.skipped and report.ok


class TestBoundCheck:
    def test_scalar_identity_attains_fast_bound(self):
        op = identity_operator()
        trace = run(solver_for(op, "halpern", "halpern_fast"), np.array([1.0]), 2)
        report = bound_check(trace, "halpern_fast", 1.0, 1.0)
        assert report.violations == 0
        # equality at k = 2: |G y_2| = 1/3 = bound
        assert trace.norm_g_y[2] == report.theory[2]

    def test_solution_start_trivially_satisfies(self):
        # exact zero of G: the all-zero target makes y* = 0 with G(y*) = 0
        rng = SplitMix64(53)
        p_mat = unit_columns(rng.normal_matrix(16, 8))
        op = least_squares_operator(p_mat, np.zeros(16))
        trace = run(solver_for(op, "halpern", "halpern_fast"), np.zeros(8), 50)
        report = bound_check(trace, "halpern_fast", op.lipschitz, 0.0)
        assert report.violations == 0
        assert np.all(trace.norm_g_y == 0.0)

    def test_unknown_kind_rejected(self):
        op = identity_operator()
        trace = run(solver_for(op, "halpern", "halpern_fast"), np.array([1.0]), 2)
        with pytest.raises(InputError):
            bound_check(trace, "not_a_bound", 1.0, 1.0)

    def test_mismatched_trace_rejected(self):
        op = identity_operator()
        trace = run(solver_for(op, "peag", "peag"), np.array([1.0]), 5)
        with pytest.raises(InputError):
            bound_check(trace, "halpern_fast", 1.0, 1.0)

    def test_comono_needs_rho(self):
        op = identity_operator()
        trace = run(solver_for(op, "halpern", "halpern_fast"), np.array([1.0]), 2)
        with pytest.raises(InputError):
            bound_check(trace, "comono", 1.0, 1.0)

    def test_peag_bounds_on_saddle_run(self):
        op, y_star = saddle_fixture(seed=59)
        y0 = SplitMix64(61).normal(op.dim)
        d0 = float(np.linalg.norm(y0 - y_star))
        residual = PeagResidualFold(op.lipschitz, d0, sigma=1.0)
        trace = run(solver_for(op, "peag", "peag", sigma=1.0), y0, 300,
                    X_RESIDUAL, observers=(residual,))
        assert residual.report().violations == 0
        report = bound_check(trace, "peag_probe", op.lipschitz, d0, sigma=1.0)
        assert report.violations == 0


class TestSummability:
    def test_budgets_hold_scalar_identity(self):
        op = identity_operator()
        gamma, omega, mu = 0.9, 3.0, 1.0
        potential = omega_potential_fold(gamma, omega, np.zeros(1), mu)
        budgets = SummabilityFold(gamma, omega, 1.0, mu)
        fed(solver_for(op, "nesterov", "nesterov_omega", gamma=gamma,
                       omega=omega), np.array([1.0]), 1000, potential, budgets)
        reports = budgets.reports(potential.series()[0])
        assert len(reports) == 4
        for r in reports:
            assert r.ok and not r.skipped

    def test_solution_start_gives_zero_budgets(self):
        rng = SplitMix64(67)
        p_mat = unit_columns(rng.normal_matrix(16, 8))
        op = least_squares_operator(p_mat, np.zeros(16))
        y_star = np.zeros(8)
        gamma, omega = 0.9 / op.lipschitz, 3.0
        potential = omega_potential_fold(gamma, omega, y_star, 1.0)
        budgets = SummabilityFold(gamma, omega, op.lipschitz)
        fed(solver_for(op, "nesterov", "nesterov_omega", gamma=gamma,
                       omega=omega), y_star, 30, potential, budgets)
        series = potential.series()
        assert series[0] == 0.0
        for r in budgets.reports(series[0]):
            assert r.ok

    def test_oversized_gamma_skips_third_budget(self):
        op = identity_operator()
        gamma = 1.5
        budgets = SummabilityFold(gamma, 3.0, 1.0)
        fed(solver_for(op, "nesterov", "nesterov_omega", gamma=gamma),
            np.array([1.0]), 50, budgets)
        reports = budgets.reports(10.0)
        assert reports[2].skipped
        assert "nonpositive" in reports[2].note


class TestHelpers:
    def test_decrease_report_flags_increase(self):
        r = decrease_report(np.array([1.0, 0.5, 0.8]))
        assert r.violations == 1
        assert r.first_violation == 1

    def test_trend_check_on_decaying_series(self):
        k = np.arange(501, dtype=float)
        r = 1.0 / (k + 1.0) ** 1.5
        ok, early, late = trend_check(r)
        assert ok and late <= early

    def test_residual_difference_budget_on_slow_run(self):
        op, y_star = ls_fixture(seed=71)
        y0 = SplitMix64(73).normal(op.dim)
        d0 = float(np.linalg.norm(y0 - y_star))
        budget = ResidualDifferenceFold(op.lipschitz, d0)
        fed(solver_for(op, "halpern", "halpern_slow"), y0, 500, budget)
        report = budget.report()
        assert report.violations == 0

    def test_eag_constant_rate_constant_at_eighth(self):
        # eta = 1/(8L) gives 2336 L^2 / 9, about 260 L^2
        val = eag_constant_rate_constant(1.0 / 8.0, 1.0)
        assert val == pytest.approx(2336.0 / 9.0, rel=1e-12)
        assert round(val) == 260

    def test_report_text_roundtrip(self):
        r = BoundReport(name="x", theory=np.ones(1), observed=np.zeros(1),
                        violations=0, worst_excess=0.0, first_violation=None)
        assert "x: ok" in r.to_text()
