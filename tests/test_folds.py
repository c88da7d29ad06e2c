"""Folds fed by ``run`` equal the same folds fed recorded points afterwards."""

from dataclasses import replace

import numpy as np
import pytest

from anchored import diagnostics as dg
from anchored import verify
from anchored.errors import DataError, InputError
from anchored.instances import desk_huber, desk_least_squares, start_point
from anchored.operators import counted
from anchored.schemes import TraceOpts, run, solver_for

K = 300
K_PEAG = 2000  # the past-extra runs of the small verify suites
X_RESIDUAL = TraceOpts(track_x_residual=True)


@pytest.fixture(scope="module")
def ls():
    return desk_least_squares()


@pytest.fixture(scope="module")
def hub():
    return desk_huber()


def recorded(solver, y0, K, opts=None):
    """Every trace point of one run, in index order."""
    points = []
    run(solver, y0, K, opts, observers=(points.append,))
    return points


def streamed_and_fed(solver, y0, make):
    """(fold fed by one run, fold fed a second run's points after it ended).

    Equal results show that the folds keep no state outside their terms
    and that ``run`` never mutates an array it handed out.
    """
    live = make()
    trace = run(solver, y0, K, observers=(live,))
    assert trace.snapshots == []
    fed = make()
    for point in recorded(solver, y0, K):
        fed(point)
    return live, fed


def assert_same_report(a, b):
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.theory, b.theory)
    assert (a.violations, a.worst_excess, a.first_violation, a.skipped) == \
        (b.violations, b.worst_excess, b.first_violation, b.skipped)


class TestStreamedEqualsFed:
    def test_anchored_potential(self, ls):
        L = ls.operator.lipschitz
        live, fed = streamed_and_fed(
            solver_for(ls.operator, "halpern", "halpern_fast"),
            start_point(ls), lambda: dg.AnchoredPotentialFold(L))
        assert len(live.series()) == K + 1
        assert np.array_equal(live.series(), fed.series())

    def test_corrected_potential_y_and_budgets(self, ls):
        L, y_star = ls.operator.lipschitz, ls.solution
        gamma, omega = 0.9 / L, 3.0
        solver = solver_for(ls.operator, "nesterov", "nesterov_omega",
                            gamma=gamma, omega=omega)
        y0 = start_point(ls)
        live, fed = streamed_and_fed(
            solver, y0, lambda: dg.omega_potential_fold(gamma, omega, y_star))
        v = live.series()
        assert np.array_equal(v, fed.series())
        live, fed = streamed_and_fed(
            solver, y0, lambda: dg.SummabilityFold(gamma, omega, L))
        for a, b in zip(live.reports(v[0]), fed.reports(v[0])):
            assert_same_report(a, b)
        live, fed = streamed_and_fed(solver, y0, lambda: dg.MapFold(
            lambda s: float(np.linalg.norm(s.x - y_star)) ** 2))
        assert np.array_equal(live.series(), fed.series())

    def test_corrected_potential_z(self, hub):
        L, y_star = hub.operator.lipschitz, hub.solution
        live, fed = streamed_and_fed(
            solver_for(hub.operator, "nag_eag", "nag_eag"), start_point(hub),
            lambda: dg.eag_potential_fold(L, y_star))
        assert np.array_equal(live.series(), fed.series())

    def test_residual_difference_budget(self, ls):
        L = ls.operator.lipschitz
        y0 = start_point(ls)
        d0 = float(np.linalg.norm(y0 - ls.solution))
        solver = solver_for(ls.operator, "halpern", "halpern_slow")
        live, fed = streamed_and_fed(
            solver, y0, lambda: dg.ResidualDifferenceFold(L, d0))
        assert_same_report(live.report(), fed.report())

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_peag_gap_budget(self, hub, sigma):
        L = hub.operator.lipschitz
        live, fed = streamed_and_fed(
            solver_for(hub.operator, "peag", "peag", sigma=sigma),
            start_point(hub), lambda: dg.PeagGapFold(L, sigma))
        assert_same_report(live.report(3.0), fed.report(3.0))

    def test_coupling_identity(self, ls):
        L, y_star = ls.operator.lipschitz, ls.solution
        solver = solver_for(ls.operator, "nesterov", "nesterov_slow")
        y0 = start_point(ls)
        live, fed = streamed_and_fed(
            solver, y0, lambda: dg.CouplingIdentityFold(L, y_star))
        assert len(live.terms) == K
        assert np.array_equal(live.series(), fed.series())
        # the step-by-step formula the fold replaces, on recorded points
        snaps = recorded(solver, y0, K)
        d0sq = float(np.linalg.norm(y0 - y_star) ** 2)
        worst = 0.0
        for k in range(K):
            beta = 1.0 / (k + 2)
            eta = (1.0 - beta) / L
            p_k, q_k = dg.halpern_potential_coeffs(k)
            l_val = dg.halpern_potential(snaps[k].g_y, snaps[k].y, y0, p_k,
                                         q_k, L)
            coeffs = dg.anchor_to_corrected_coeffs(k, beta, eta, L)
            v_next = dg.nesterov_potential(snaps[k].g_y, snaps[k + 1].x,
                                           snaps[k + 1].y, coeffs, y_star)
            rhs = (4.0 * p_k / (L * q_k * q_k)) * l_val + d0sq
            worst = max(worst, abs(v_next - rhs) / (1.0 + abs(rhs)))
        assert live.max_deviation() == worst
        assert worst <= 1e-10


class TestPastExtraFolds:
    """The past-extra folds read G y_k from the run's tracked x residual."""

    def test_residual_report_equals_bound_check(self, hub):
        # the tracked run's fold equals the bound checked after an
        # untracked run, with G evaluated at each recorded y_k
        L, y0 = hub.operator.lipschitz, start_point(hub)
        d0 = float(np.linalg.norm(y0 - hub.solution))
        solver = solver_for(hub.operator, "peag", "peag", sigma=1.0)
        live = dg.PeagResidualFold(L, d0, sigma=1.0)
        run(solver, y0, K_PEAG, X_RESIDUAL, observers=(live,))
        after = dg.PeagResidualFold(L, d0, sigma=1.0)
        for point in recorded(solver, y0, K_PEAG):
            after(replace(point, g_x=hub.operator(point.y)))
        expected = after.report()
        assert_same_report(live.report(), expected)
        assert expected.ok and len(expected.observed) == K_PEAG + 1

    def test_residual_bound_check_points_to_the_fold(self, hub):
        # no trace column holds |G y_k| of a peag run
        trace = run(solver_for(hub.operator, "peag", "peag"), start_point(hub),
                    5, X_RESIDUAL)
        with pytest.raises(InputError, match="PeagResidualFold"):
            dg.bound_check(trace, "peag_residual", 1.0, 1.0, sigma=1.0)

    def test_evaluation_budget(self, hub):
        # K steps plus the warm-up, plus G at y_k for k = 0..K; the folds
        # themselves evaluate nothing
        L, y_star, y0 = hub.operator.lipschitz, hub.solution, start_point(hub)
        op, counter = counted(hub.operator)
        folds = (dg.PeagPotentialFold(L, 2.0, y_star), dg.PeagGapFold(L, 2.0),
                 dg.PeagResidualFold(L, 1.0, sigma=2.0))
        run(solver_for(op, "peag", "peag", sigma=2.0), y0, K_PEAG, X_RESIDUAL,
            observers=folds)
        assert counter.count == 2 * K_PEAG + 2
        folds[1].report(folds[0].series()[0])
        folds[2].report()
        assert counter.count == 2 * K_PEAG + 2

    def test_g_x_is_g_at_y(self, hub):
        op, y0 = hub.operator, start_point(hub)
        solver = solver_for(op, "peag", "peag")
        for s in recorded(solver, y0, 5, X_RESIDUAL):
            assert s.x is s.y
            assert np.array_equal(s.g_x, op(s.y))
        assert all(s.g_x is None for s in recorded(solver, y0, 5))

    def test_potential_needs_g_x(self, hub):
        fold = dg.PeagPotentialFold(1.0, 2.0, hub.solution)
        with pytest.raises(DataError):
            run(solver_for(hub.operator, "peag", "peag"), start_point(hub), 5,
                observers=(fold,))


class TestNegativeControls:
    """Each streamed check fails on a deliberately wrong variant."""

    def test_potential_with_wrong_sigma_fails_decrease(self, hub):
        # the run uses sigma = 2; a potential built for sigma = 0.5 is not
        # a Lyapunov function of it
        L, y_star, y0 = hub.operator.lipschitz, hub.solution, start_point(hub)
        right = dg.PeagPotentialFold(L, 2.0, y_star)
        wrong = dg.PeagPotentialFold(L, 0.5, y_star)
        run(solver_for(hub.operator, "peag", "peag", sigma=2.0), y0, K_PEAG,
            X_RESIDUAL, observers=(right, wrong))
        assert dg.decrease_report(right.series()).ok
        assert not dg.decrease_report(wrong.series()).ok

    def test_residual_against_a_quarter_bound_fails(self, hub):
        # the bound scales with dist0^2, so dist0/2 divides it by 4
        L, y0 = hub.operator.lipschitz, start_point(hub)
        d0 = float(np.linalg.norm(y0 - hub.solution))
        right = dg.PeagResidualFold(L, d0, sigma=1.0)
        quarter = dg.PeagResidualFold(L, 0.5 * d0, sigma=1.0)
        run(solver_for(hub.operator, "peag", "peag", sigma=1.0), y0, K_PEAG,
            X_RESIDUAL, observers=(right, quarter))
        assert right.report().ok
        assert np.allclose(quarter.report().theory, right.report().theory / 4)
        assert not quarter.report().ok

    def test_coupling_with_a_perturbed_coefficient_fails(self, ls,
                                                         monkeypatch):
        L, y_star = ls.operator.lipschitz, ls.solution
        coeffs = dg.anchor_to_corrected_coeffs

        def perturbed(*args, **kw):
            c = coeffs(*args, **kw)
            return replace(c, a=c.a * (1.0 + 1e-6))

        monkeypatch.setattr(dg, "anchor_to_corrected_coeffs", perturbed)
        fold = dg.CouplingIdentityFold(L, y_star)
        run(solver_for(ls.operator, "nesterov", "nesterov_slow"),
            start_point(ls), K, observers=(fold,))
        assert fold.max_deviation() > 1e-10

    def test_coupling_keeps_a_nan_deviation(self):
        # a NaN term must fail the <= 1e-10 check, not vanish in the max
        fold = dg.CouplingIdentityFold(1.0, 0.0)
        fold.terms = [1e-14, float("nan"), 1e-14]
        assert not fold.max_deviation() <= 1e-10


def test_lemma_and_bound_suites_keep_no_snapshots(monkeypatch):
    # the two suites see iterates only through folds, as the equivalence
    # suite does, whose rows record iterates through a fold; called
    # apart, the two suites share no run, and neither repeats a run key
    seen = []

    def recording_run(solver, y0, K, trace_opts=None, observers=()):
        seen.append(trace_opts)
        return run(solver, y0, K, trace_opts, observers)

    monkeypatch.setattr(verify, "run", recording_run)
    results = verify.lemmas_suite("small") + verify.bounds_suite("small")
    assert all(r.ok for r in results)
    assert len(seen) == 19  # 5 lemma runs, 14 bound runs
    assert all(opts is not None and opts.snapshot_stride == 0
               for opts in seen)


class TestFoldInput:
    def test_skipped_index_rejected(self, ls):
        points = recorded(solver_for(ls.operator, "halpern", "halpern_fast"),
                          start_point(ls), 10)
        fold = dg.AnchoredPotentialFold(1.0)
        fold(points[0])
        with pytest.raises(DataError):
            fold(points[2])

    def test_missing_field_rejected(self, hub):
        # the past-extra scheme never evaluates G at y_k
        fold = dg.ResidualDifferenceFold(1.0, 1.0)
        with pytest.raises(DataError):
            run(solver_for(hub.operator, "peag", "peag"), start_point(hub),
                5, observers=(fold,))

    def test_probe_bound_reads_the_residual_column(self, hub):
        # runs with and without observers give the same report
        L, y0 = hub.operator.lipschitz, start_point(hub)
        d0 = float(np.linalg.norm(y0 - hub.solution))
        solver = solver_for(hub.operator, "nag_peag", "nag_peag")
        a = dg.bound_check(run(solver, y0, K), "peag_probe", L, d0, sigma=1.0)
        b = dg.bound_check(run(solver, y0, K, observers=(dg.RecordFold(),)),
                           "peag_probe", L, d0, sigma=1.0)
        assert_same_report(a, b)
        assert a.ok and len(a.observed) == K + 1

    def test_probe_bound_on_a_truncated_run(self, hub):
        # a run stopped by a numeric error is compared up to its last
        # finished step, as the prefix of the full run's report
        L, y0 = hub.operator.lipschitz, start_point(hub)
        d0 = float(np.linalg.norm(y0 - hub.solution))
        calls = [0]

        def failing(y):
            calls[0] += 1
            g = hub.operator(y)
            return g if calls[0] <= 40 else np.full_like(g, np.nan)

        bad_op = replace(hub.operator, eval=failing)
        cut = run(solver_for(bad_op, "nag_peag", "nag_peag"), y0, K)
        assert cut.error is not None and len(cut.k) < K + 1
        a = dg.bound_check(cut, "peag_probe", L, d0, sigma=1.0)
        full = dg.bound_check(run(solver_for(hub.operator, "nag_peag",
                                             "nag_peag"), y0, K),
                              "peag_probe", L, d0, sigma=1.0)
        n = len(cut.k) - 1
        assert len(a.observed) == n
        assert np.array_equal(a.observed, full.observed[:n])
        assert np.array_equal(a.theory, full.theory[:n])
