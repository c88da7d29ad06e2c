"""Folds fed by ``run`` equal the same folds fed from stride-1 snapshots."""

from dataclasses import replace

import numpy as np
import pytest

from anchored import diagnostics as dg
from anchored.errors import DataError
from anchored.instances import desk_huber, desk_least_squares, start_point
from anchored.schemes import TraceOpts, run, solver_for

K = 300
NO_SNAPSHOTS = TraceOpts(snapshot_stride=0)


@pytest.fixture(scope="module")
def ls():
    return desk_least_squares()


@pytest.fixture(scope="module")
def hub():
    return desk_huber()


def streamed_and_fed(solver, y0, make):
    """(fold fed by the run at stride 0, fold fed from stride-1 snapshots)."""
    live = make()
    trace = run(solver, y0, K, NO_SNAPSHOTS, observers=(live,))
    assert trace.snapshots == []
    return live, make().feed(run(solver, y0, K))


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
        assert np.array_equal(
            v, dg.nesterov_potential_series(run(solver, y0, K), gamma, omega,
                                            y_star))
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
        assert_same_report(live.report(), dg.residual_difference_budget(
            run(solver, y0, K), L, d0))

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_peag_gap_budget(self, hub, sigma):
        L = hub.operator.lipschitz
        live, fed = streamed_and_fed(
            solver_for(hub.operator, "peag", "peag", sigma=sigma),
            start_point(hub), lambda: dg.PeagGapFold(L, sigma))
        assert_same_report(live.report(3.0), fed.report(3.0))


class TestFoldInput:
    def test_stride_two_snapshots_rejected(self, ls):
        trace = run(solver_for(ls.operator, "halpern", "halpern_fast"),
                    start_point(ls), 10, TraceOpts(snapshot_stride=2))
        with pytest.raises(DataError):
            dg.AnchoredPotentialFold(1.0).feed(trace)

    def test_missing_field_rejected(self, hub):
        # the past-extra scheme never evaluates G at y_k
        fold = dg.ResidualDifferenceFold(1.0, 1.0)
        with pytest.raises(DataError):
            run(solver_for(hub.operator, "peag", "peag"), start_point(hub),
                5, NO_SNAPSHOTS, observers=(fold,))

    def test_probe_bound_reads_the_residual_column(self, hub):
        # stride 0 and stride 1 give the same report; no operator needed
        L, y0 = hub.operator.lipschitz, start_point(hub)
        d0 = float(np.linalg.norm(y0 - hub.solution))
        solver = solver_for(hub.operator, "nag_peag", "nag_peag")
        a = dg.bound_check(run(solver, y0, K, NO_SNAPSHOTS), "peag_probe", L,
                           d0, sigma=1.0)
        b = dg.bound_check(run(solver, y0, K), "peag_probe", L, d0, sigma=1.0)
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
        cut = run(solver_for(bad_op, "nag_peag", "nag_peag"), y0, K,
                  NO_SNAPSHOTS)
        assert cut.error is not None and len(cut.k) < K + 1
        a = dg.bound_check(cut, "peag_probe", L, d0, sigma=1.0)
        full = dg.bound_check(run(solver_for(hub.operator, "nag_peag",
                                             "nag_peag"), y0, K, NO_SNAPSHOTS),
                              "peag_probe", L, d0, sigma=1.0)
        n = len(cut.k) - 1
        assert len(a.observed) == n
        assert np.array_equal(a.observed, full.observed[:n])
        assert np.array_equal(a.theory, full.theory[:n])
