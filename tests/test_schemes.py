from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from anchored import diagnostics
from anchored.errors import InputError
from anchored.instances import desk_huber, start_point
from anchored.operators import (
    OperatorSpec,
    affine_kind,
    counted,
    identity_operator,
    l1_kind,
    least_squares_operator,
    resolvent_apply,
)
from anchored.residuals import SplittingSpec, fb_residual, tos_residual, yosida
from anchored.rng import SplitMix64
from anchored.schemes import (
    CLASSES,
    COMPATIBLE_SCHEDULES,
    SCHEMES,
    Solver,
    TraceOpts,
    comono_eag_step,
    eag_step,
    halpern_step,
    init_state,
    nag_eag_step,
    nag_peag_step,
    peag_step,
    run,
    solver_for,
)
from anchored.schedules import (
    ScheduleParams,
    constants,
    schedule_stream,
    transformed_nesterov_stream,
)

ZERO_OP = OperatorSpec(dim=2, eval=lambda y: np.zeros_like(y), lipschitz=1.0,
                       comonotone_modulus=1.0)


def unit_columns(m):
    return m / np.linalg.norm(m, axis=0)


def small_saddle_operator(seed=7, m=8, n=6):
    """Monotone Lipschitz fixture without co-coercivity."""
    from anchored.operators import huber_saddle_operator, spectral_norm
    k = unit_columns(SplitMix64(seed).normal_matrix(m, n))
    s = spectral_norm(k)
    return huber_saddle_operator(k, s, s, 0.05, k_norm=s)


def points_of(solver, y0, K, opts=None):
    """Every trace point of one run, in index order."""
    points = []
    run(solver, y0, K, opts, observers=(points.append,))
    return points


def column(points, name):
    return [getattr(p, name) for p in points]


def max_rel_dev(seq_a, seq_b):
    worst = 0.0
    for a, b in zip(seq_a, seq_b):
        worst = max(worst, np.linalg.norm(a - b) / (1.0 + np.linalg.norm(a)))
    return worst


class TestStateInit:
    def test_all_slots_start_at_anchor(self):
        # one float64 copy of y0, the same array in every slot
        y0 = np.array([1, -2])
        s = init_state(y0)
        assert s.y0 is not y0 and s.y0.dtype == np.float64
        assert np.array_equal(s.y0, y0)
        slots = [f.name for f in fields(s) if not f.name.startswith("g_")]
        assert len(slots) == 8
        assert all(getattr(s, name) is s.y0 for name in slots)


class TestHalpern:
    def test_hand_iteration_scalar_identity(self):
        solver = solver_for(identity_operator(), "halpern", "halpern_fast")
        trace = run(solver, np.array([1.0]), 2)
        assert trace.norm_g_y.tolist() == pytest.approx([1.0, 0.0, 1.0 / 3.0],
                                                        abs=1e-16)

    def test_first_step_formula(self):
        L = 2.0
        op = OperatorSpec(dim=1, eval=lambda y: L * y, lipschitz=L,
                          comonotone_modulus=1.0 / L)
        state = init_state(np.array([1.0]))
        halpern_step(state, op, ScheduleParams(k=0, beta=0.5, eta=1.0 / (2 * L)))
        # y1 = y0 - (1/(2L)) G(y0)
        assert state.y[0] == pytest.approx(1.0 - (1.0 / (2 * L)) * L * 1.0)

    def test_anchor_is_fixed_point_of_zero_operator(self):
        state = init_state(np.array([2.0, -1.0]))
        for k in range(5):
            halpern_step(state, ZERO_OP, ScheduleParams(k=k, beta=1 / (k + 2),
                                                        eta=0.5))
        assert np.array_equal(state.y, state.y0)


class TestNesterovEquivalence:
    @pytest.mark.parametrize("variant", ["fast", "slow"])
    def test_scalar_identity_matches_halpern(self, variant):
        op = identity_operator()
        y0 = np.array([1.0])
        h = points_of(solver_for(op, "halpern", f"halpern_{variant}"), y0, 100)
        n = points_of(solver_for(op, "nesterov", f"nesterov_{variant}"), y0,
                      100)
        ys_h = column(h, "y")
        ys_n = column(n, "y")
        assert max_rel_dev(ys_h, ys_n) <= 1e-15

    def test_random_schedule_identity_on_catalog_operators(self):
        # the y-sequences agree for any admissible (beta, eta, gamma)
        rng = SplitMix64(99)
        p_mat = unit_columns(SplitMix64(21).normal_matrix(10, 5))
        ops = [identity_operator(3), least_squares_operator(p_mat, np.zeros(10)),
               small_saddle_operator()]
        for op in ops:
            L = op.lipschitz
            beta = 0.01 + 0.98 * rng.uniform(200)
            eta = (0.1 + 1.9 * rng.uniform(200)) / L
            gamma = (0.2 + 1.8 * rng.uniform(200)) / L
            y0 = rng.normal(op.dim)

            def halpern_factory():
                return (ScheduleParams(k=k, beta=beta[k], eta=eta[k])
                        for k in range(200))

            def nesterov_factory():
                return transformed_nesterov_stream(
                    ScheduleParams(k=k, beta=beta[k], eta=eta[k],
                                   gamma=gamma[k]) for k in range(200))

            from anchored.schemes import Solver
            h = points_of(Solver("halpern", op, halpern_factory), y0, 200)
            n = points_of(Solver("nesterov", op, nesterov_factory), y0, 200)
            assert max_rel_dev(column(h, "y"), column(n, "y")) <= 1e-8

    def test_wrong_nu_diverges_from_halpern(self):
        op = identity_operator()
        y0 = np.array([1.0])
        h = points_of(solver_for(op, "halpern", "halpern_fast"), y0, 10)

        def bad_factory():
            def gen():
                good = schedule_stream("nesterov_fast", 1.0)
                for p in good:
                    yield ScheduleParams(k=p.k, gamma=p.gamma, theta=p.theta,
                                         nu=p.nu + 0.1, kappa=p.kappa)
            return gen()

        from anchored.schemes import Solver
        n = points_of(Solver("nesterov", op, bad_factory), y0, 10)
        dev = max_rel_dev(column(h, "y")[:6], column(n, "y")[:6])
        assert dev > 1e-3


class TestEag:
    def test_hand_iteration_two_stepsize_form(self):
        # scalar identity, eta_0 = 1/2, eta_hat_0 = 1
        op = identity_operator()
        state = init_state(np.array([1.0]))
        eag_step(state, op, ScheduleParams(k=0, beta=0.5, eta=0.5, eta_hat=1.0))
        assert state.z[0] == pytest.approx(0.5)
        assert state.y[0] == pytest.approx(0.5)

    def test_constant_mode_first_step(self):
        op = identity_operator()
        state = init_state(np.array([1.0]))
        eag_step(state, op, ScheduleParams(k=0, beta=0.5, eta=0.125,
                                           eta_hat=0.125))
        # anchor equals y0 at k = 0, so z1 = y0 - eta*G(y0)
        assert state.z[0] == pytest.approx(1.0 - 0.125)

    def test_matches_nag_form_scalar_first_step(self):
        op = identity_operator()
        state = init_state(np.array([1.0]))
        nag_eag_step(state, op, ScheduleParams(k=0, gamma=1.0, theta=0.0,
                                               nu=0.5, eta=0.5, eta_hat=1.0))
        assert state.x[0] == pytest.approx(0.0)
        assert state.z[0] == pytest.approx(0.5)
        assert state.y[0] == pytest.approx(0.5)

    def test_nag_form_tracks_eag_on_saddle_instance(self):
        op = small_saddle_operator()
        y0 = SplitMix64(3).normal(op.dim)
        a = points_of(solver_for(op, "eag", "nag_eag"), y0, 300)
        b = points_of(solver_for(op, "nag_eag", "nag_eag"), y0, 300)
        assert max_rel_dev(column(a, "y"), column(b, "y")) <= 1e-8
        assert max_rel_dev(column(a, "z"), column(b, "z")) <= 1e-8

    @pytest.mark.parametrize("kind,kw", [("eag_constant", {}),
                                         ("eag_varying", {"eta0": 0.5})])
    def test_transformed_eag_schedule_tracks_eag(self, kind, kw):
        # the extra-gradient transform of an eag schedule, with gamma_k =
        # eta_k / (1 - beta_k), gives nag_eag_step the iterates of eag_step
        inst = desk_huber()
        op, y0, L = inst.operator, start_point(inst), inst.operator.lipschitz
        kw = {key: value / L for key, value in kw.items()}

        def corrected():
            return transformed_nesterov_stream(
                (p._replace(gamma=p.eta / (1.0 - p.beta))
                 for p in schedule_stream(kind, L, **kw)), "extra-gradient")

        a = points_of(solver_for(op, "eag", kind, **kw), y0, 2000)
        b = points_of(Solver("nag_eag", op, corrected), y0, 2000)
        for name in "yz":
            assert max_rel_dev(column(a, name), column(b, name)) <= 1e-12

    def test_transformed_peag_legacy_schedule_tracks_peag(self):
        # the past-extra transform of the varying peag_legacy steps gives
        # nag_peag_step the z iterates of peag_step
        inst = desk_huber()
        op, y0, L = inst.operator, start_point(inst), inst.operator.lipschitz

        def corrected():
            return transformed_nesterov_stream(
                schedule_stream("peag_legacy", L, eta0=0.4 / L), "past-extra")

        a = points_of(solver_for(op, "peag", "peag_legacy", eta0=0.4 / L),
                      y0, 2000)
        b = points_of(Solver("nag_peag", op, corrected), y0, 2000)
        assert max_rel_dev(column(a, "z"), column(b, "z")) <= 1e-12


class TestComono:
    def _manual_eag_like_stream(self, L):
        # the rho = 0 reduction folds the (1 - beta) factor into the
        # probe stepsize: eta_eag = (1 - beta)/L with the correction 1/L
        def gen():
            k = 0
            while True:
                beta = 1.0 / (k + 1)
                yield ScheduleParams(k=k, beta=beta, eta=(1.0 - beta) / L,
                                     eta_hat=1.0 / L)
                k += 1
        return gen

    def test_zero_rho_step_coincides_with_eag(self):
        op = small_saddle_operator()
        y0 = SplitMix64(5).normal(op.dim)
        from anchored.schemes import Solver
        a = points_of(Solver("comono_eag", op,
                             lambda: schedule_stream("comono_eag",
                                                     op.lipschitz, rho=0.0)),
                      y0, 100)
        b = points_of(Solver("eag", op,
                             self._manual_eag_like_stream(op.lipschitz)),
                      y0, 100)
        assert max_rel_dev(column(a, "y"), column(b, "y")) <= 1e-12

    def test_hand_iteration_fraction_oracle(self):
        # scalar identity, rho = -1/4, eta = 1, beta_k = 1/(k+1)
        y0, rho, eta = Fraction(1), Fraction(-1, 4), Fraction(1)
        y, anchor = y0, y0
        vals = []
        for k in range(2):
            beta = Fraction(1, k + 1)
            z = beta * anchor + (1 - beta) * y - (1 - beta) * (2 * rho + eta) * y
            y = beta * anchor + (1 - beta) * y - 2 * rho * (1 - beta) * y - eta * z
            vals.append((z, y))
        op = identity_operator()
        state = init_state(np.array([1.0]))
        for k in range(2):
            comono_eag_step(state, op, ScheduleParams(k=k, beta=1.0 / (k + 1),
                                                      eta=1.0, rho=-0.25))
            assert state.z[0] == pytest.approx(float(vals[k][0]), abs=1e-15)
            assert state.y[0] == pytest.approx(float(vals[k][1]), abs=1e-15)

    def test_nag_form_tracks_comono(self):
        op = small_saddle_operator(seed=11)
        rho = -1.0 / (4.0 * op.lipschitz)
        y0 = SplitMix64(17).normal(op.dim)
        a = points_of(solver_for(op, "comono_eag", "comono_eag", rho=rho), y0,
                      300)
        b = points_of(solver_for(op, "nag_comono", "nag_comono", rho=rho), y0,
                      300)
        assert max_rel_dev(column(a, "y"), column(b, "y")) <= 1e-8
        assert max_rel_dev(column(a, "z"), column(b, "z")) <= 1e-8

    def test_rejects_out_of_range_rho(self):
        # the stream checks rho once, before the first step evaluates G
        for scheme in ("comono_eag", "nag_comono"):
            op, counter = counted(identity_operator())
            solver = solver_for(op, scheme, scheme, rho=-0.6, L=1.0)
            with pytest.raises(InputError, match="rho"):
                run(solver, np.array([1.0]), 3)
            assert counter.count == 0


class TestPeag:
    def test_hand_iteration(self):
        # sigma = 1, L = 1: eta_hat = 1/2, eta_0 = 1/4
        op = identity_operator()
        state = init_state(np.array([1.0]))
        peag_step(state, op, ScheduleParams(k=0, beta=0.5, eta=0.25,
                                            eta_hat=0.5))
        assert state.z[0] == pytest.approx(0.75)
        assert state.y[0] == pytest.approx(0.625)

    def test_one_evaluation_per_step_after_warmup(self):
        op, counter = counted(identity_operator())
        state = init_state(np.array([1.0]))
        stream = schedule_stream("peag", 1.0)
        peag_step(state, op, next(stream))
        assert counter.count == 2  # warm-up at z_0 plus the probe
        for _ in range(5):
            before = counter.count
            peag_step(state, op, next(stream))
            assert counter.count - before == 1

    def test_nag_form_tracks_peag_z_sequence_scalar(self):
        op = identity_operator()
        y0 = np.array([1.0])
        a = points_of(solver_for(op, "peag", "peag"), y0, 50)
        b = points_of(solver_for(op, "nag_peag", "nag_peag"), y0, 50)
        assert max_rel_dev(column(a, "z"), column(b, "z")) <= 1e-13

    def test_hand_values_of_nag_form(self):
        # must reproduce the past-extra z sequence 3/4, 1/2, 7/16 exactly
        op = identity_operator()
        state = init_state(np.array([1.0]))
        stream = schedule_stream("nag_peag", 1.0)
        expect = [0.75, 0.5, 7.0 / 16.0]
        for i in range(3):
            nag_peag_step(state, op, next(stream))
            assert state.z[0] == pytest.approx(expect[i], abs=1e-15)

    def test_nag_form_tracks_peag_on_saddle_instance(self):
        op = small_saddle_operator(seed=23)
        y0 = SplitMix64(29).normal(op.dim)
        a = points_of(solver_for(op, "peag", "peag"), y0, 300)
        b = points_of(solver_for(op, "nag_peag", "nag_peag"), y0, 300)
        assert max_rel_dev(column(a, "z"), column(b, "z")) <= 1e-8

    def test_xhat_relation_holds_at_every_index(self):
        # z_{k+1} = beta_k y0 + (1 - beta_k) xhat_{k+1}
        #           + kappa_k (z_{k-1} - xhat_k), k = 0 included (z_{-1} = y0)
        inst = desk_huber()
        op, y0 = inst.operator, start_point(inst)
        points = points_of(solver_for(op, "nag_peag", "nag_peag"), y0, 300)
        z_prev = y0
        for point, after in zip(points, points[1:]):
            p = point.p
            want = (p.beta * y0 + (1.0 - p.beta) * after.x
                    + p.kappa * (z_prev - point.x))
            dev = np.linalg.norm(after.z - want) / np.linalg.norm(after.z)
            assert dev <= 1e-13, (point.k, dev)
            z_prev = point.z

    def test_legacy_stepsizes_drive_residual_down(self):
        op = small_saddle_operator(seed=23)
        y0 = SplitMix64(29).normal(op.dim)
        trace = run(solver_for(op, "peag", "peag_legacy",
                               eta0=0.4 / op.lipschitz), y0, 400)
        assert trace.error is None
        assert trace.norm_g_z[-1] < 0.05 * trace.norm_g_z[0]


class TestZeroOperatorInvariance:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_constant_trajectory(self, scheme):
        kind = {"halpern": "halpern_fast", "nesterov": "nesterov_omega",
                "eag": "eag_constant", "nag_eag": "nag_eag",
                "comono_eag": "comono_eag", "nag_comono": "nag_comono",
                "peag": "peag", "nag_peag": "nag_peag"}[scheme]
        kw = {"rho": -0.1} if "comono" in kind else {}
        solver = solver_for(ZERO_OP, scheme, kind, L=1.0, **kw)
        points = points_of(solver, np.array([0.7, -0.4]), 20)
        for name in ("y", "z", "x"):
            for v in column(points, name):
                # anchor mixing beta*y0 + (1-beta)*y0 rounds within an ulp
                assert np.allclose(v, [0.7, -0.4], rtol=1e-14, atol=0.0)


class TestLinearityEquivariance:
    @pytest.mark.parametrize("c", [2.0, -1.0])
    @pytest.mark.parametrize("scheme,kind", [
        ("halpern", "halpern_fast"), ("nesterov", "nesterov_omega"),
        ("eag", "eag_constant"), ("nag_eag", "nag_eag"),
        ("peag", "peag"), ("nag_peag", "nag_peag"),
    ])
    def test_iterates_scale_exactly(self, c, scheme, kind):
        p_mat = unit_columns(SplitMix64(41).normal_matrix(8, 4))
        op = least_squares_operator(p_mat, np.zeros(8))
        y0 = SplitMix64(43).normal(4)
        a = points_of(solver_for(op, scheme, kind), y0, 40)
        b = points_of(solver_for(op, scheme, kind), c * y0, 40)
        for u, v in zip(column(a, "y"), column(b, "y")):
            assert np.allclose(c * u, v, rtol=1e-12, atol=1e-12)
        for u, v in zip(column(a, "z"), column(b, "z")):
            assert np.allclose(c * u, v, rtol=1e-12, atol=1e-12)


class TestEvaluationCounts:
    def test_driver_totals(self):
        expect = {"halpern": ("halpern_fast", 11), "nesterov": ("nesterov_slow", 11),
                  "eag": ("eag_constant", 21), "nag_eag": ("nag_eag", 21),
                  "comono_eag": ("comono_eag", 21), "nag_comono": ("nag_comono", 21),
                  "peag": ("peag", 11), "nag_peag": ("nag_peag", 11)}
        for scheme, (kind, total) in expect.items():
            op, counter = counted(identity_operator(2))
            kw = {"rho": -0.1} if "comono" in kind else {}
            solver = solver_for(op, scheme, kind, L=1.0, **kw)
            run(solver, np.array([1.0, 2.0]), 10)
            assert counter.count == total, scheme

    def test_observers_keep_the_budget_and_no_snapshots(self):
        # observers see every index 0..K but never evaluate the operator,
        # and the trace keeps no iterates
        for scheme, kinds in COMPATIBLE_SCHEDULES.items():
            kind = kinds[0]
            op, counter = counted(identity_operator(2))
            kw = {"rho": -0.1} if "comono" in kind else {}
            solver = solver_for(op, scheme, kind, L=1.0, **kw)
            seen = []
            trace = run(solver, np.array([1.0, 2.0]), 10,
                        observers=(seen.append,))
            per = 2 if scheme in ("eag", "nag_eag", "comono_eag",
                                  "nag_comono") else 1
            assert counter.count == per * 10 + 1, scheme
            assert trace.snapshots == []
            assert [p.k for p in seen] == list(range(11)), scheme

    @pytest.mark.parametrize("scheme,kind,per", [
        ("halpern", "halpern_fast", 1), ("eag", "eag_constant", 2),
        ("comono_eag", "comono_eag", 2),
    ])
    def test_tracked_x_residual_reuses_g_of_y(self, scheme, kind, per):
        # the x slot is y_k, whose G the step and the final residual made
        p_mat = unit_columns(SplitMix64(41).normal_matrix(8, 4))
        op, counter = counted(least_squares_operator(p_mat, np.ones(8)))
        kw = {"rho": -0.1 / op.lipschitz} if scheme == "comono_eag" else {}
        solver = solver_for(op, scheme, kind, **kw)
        seen = []
        trace = run(solver, SplitMix64(43).normal(4), 100,
                    TraceOpts(track_x_residual=True),
                    observers=(seen.append,))
        assert trace.error is None
        assert counter.count == per * 100 + 1
        assert trace.norm_g_x.tobytes() == trace.norm_g_y.tobytes()
        assert all(p.g_x is p.g_y for p in seen)

    @pytest.mark.parametrize("stride", [1, 3, -1])
    def test_snapshot_stride_points_to_observers(self, stride):
        with pytest.raises(InputError, match=r"observers=\[points\.append\]"):
            TraceOpts(snapshot_stride=stride)
        assert TraceOpts().snapshot_stride == 0

    def test_per_step_increments(self):
        one_eval = {"halpern": "halpern_fast", "nesterov": "nesterov_slow",
                    "nag_peag": "nag_peag"}
        two_eval = {"eag": "eag_constant", "nag_eag": "nag_eag",
                    "comono_eag": "comono_eag", "nag_comono": "nag_comono"}
        for schemes, per in ((one_eval, 1), (two_eval, 2)):
            for scheme, kind in schemes.items():
                op, counter = counted(identity_operator(2))
                kw = {"rho": -0.1} if "comono" in kind else {}
                stream = schedule_stream(kind, 1.0, **kw)
                state = init_state(np.array([1.0, 0.5]))
                for _ in range(6):
                    before = counter.count
                    SCHEMES[scheme].step(state, op, next(stream))
                    assert counter.count - before == per, scheme


class TestRunDriver:
    def test_zero_iterations_gives_initial_record(self):
        solver = solver_for(identity_operator(), "halpern", "halpern_fast")
        trace = run(solver, np.array([1.0]), 0)
        assert len(trace) == 1
        assert trace.norm_g_y[0] == 1.0

    def test_bit_identical_reruns(self):
        op = small_saddle_operator()
        y0 = SplitMix64(2).normal(op.dim)
        a = run(solver_for(op, "eag", "eag_constant"), y0, 50)
        b = run(solver_for(op, "eag", "eag_constant"), y0, 50)
        assert np.array_equal(a.norm_g_y, b.norm_g_y, equal_nan=True)
        assert np.array_equal(a.norm_dy, b.norm_dy, equal_nan=True)

    def test_divergence_truncates_trace(self):
        exploding = OperatorSpec(dim=1, eval=lambda y: -1e3 * y, lipschitz=1.0,
                                 comonotone_modulus=1.0)
        solver = solver_for(exploding, "halpern", "halpern_fast", L=1.0)
        trace = run(solver, np.array([1.0]), 200)
        assert trace.error is not None
        assert len(trace) < 201

    @pytest.mark.parametrize("value, message", [
        (np.nan, "non-finite iterate at step 0"),
        (np.inf, "non-finite iterate at step 0"),
        (-np.inf, "non-finite iterate at step 0"),
        (1e31, "iterate magnitude exceeded 1e+30 at step 0"),
        (-1e31, "iterate magnitude exceeded 1e+30 at step 0"),
    ])
    def test_divergence_messages(self, value, message):
        # with L = 1 the first fast anchored step is y_1 = y_0 - G(y_0)
        bad = OperatorSpec(dim=2, eval=lambda y: np.array([0.0, -value]),
                           lipschitz=1.0)
        solver = solver_for(bad, "halpern", "halpern_fast", L=1.0)
        trace = run(solver, np.array([1.0, 2.0]), 5)
        assert trace.error == message
        assert len(trace) == 1

    #: (step at which the guard fires, trace length) when the operator
    #: returns NaN from its 4th, or its 5th, evaluation onwards; the
    #: extra-gradient rows evaluate twice a step, peag once after a
    #: warm-up, and nag_peag advances z only
    NAN_ONSETS = {
        "halpern": ((3, 4), (4, 5)),
        "nesterov": ((3, 4), (4, 5)),
        "eag": ((1, 2), (2, 3)),
        "nag_eag": ((1, 2), (2, 3)),
        "comono_eag": ((1, 2), (2, 3)),
        "nag_comono": ((1, 2), (2, 3)),
        "peag": ((2, 3), (3, 4)),
        "nag_peag": ((3, 4), (4, 5)),
    }

    @pytest.mark.parametrize("onset", [4, 5])
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_every_scheme_stops_at_a_nan_operator_value(self, name, onset):
        calls = []

        def nan_from_onset(y):
            calls.append(None)
            return np.full_like(y, np.nan) if len(calls) >= onset else y.copy()

        op = OperatorSpec(dim=2, eval=nan_from_onset, lipschitz=1.0,
                          comonotone_modulus=1.0)
        solver = _table_solver(name, op)
        trace = run(solver, np.array([1.0, 2.0]), 10)
        step, length = self.NAN_ONSETS[name][onset - 4]
        assert trace.error == f"non-finite iterate at step {step}"
        assert len(trace) == length
        assert set(self.NAN_ONSETS) == set(SCHEMES)

    def test_iterate_at_the_limit_is_kept(self):
        y0 = np.full(4, 1e30)
        solver = solver_for(ZERO_OP, "halpern", "halpern_fast", L=1.0)
        trace = run(solver, y0, 3)
        assert trace.error is None
        assert len(trace) == 4

    BIG = np.nextafter(1e30, np.inf)

    # numpy warns when the guard's dot product overflows (an iterate past
    # 1e154 in one step); the verdict is the exact test's all the same
    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    @pytest.mark.parametrize("dim", [1, 350])
    @pytest.mark.parametrize("value, message", [
        (1e30, None),
        (-1e30, None),
        (BIG, "iterate magnitude exceeded 1e+30 at step 0"),
        (-BIG, "iterate magnitude exceeded 1e+30 at step 0"),
        (1e200, "iterate magnitude exceeded 1e+30 at step 0"),  # dot is inf
        (np.nan, "non-finite iterate at step 0"),
        (-np.inf, "non-finite iterate at step 0"),
    ])
    def test_divergence_guard_at_its_boundary(self, dim, value, message):
        # y_1 = y_0 - G(y_0) = target, whose largest magnitude is |value|;
        # at dim 350 the other components are 1e30 as well, so |y_1|^2
        # is past the guard's dot-product threshold in every case
        target = np.full(dim, 1e30)
        target[dim // 2] = value
        op = OperatorSpec(dim=dim, eval=lambda y: -target, lipschitz=1.0)
        solver = solver_for(op, "halpern", "halpern_fast", L=1.0)
        trace = run(solver, np.zeros(dim), 1)
        assert trace.error == message
        assert len(trace) == (2 if message is None else 1)

    @pytest.mark.parametrize("scheme, kind, name", [
        ("halpern", "halpern_fast", "eta"),
        ("halpern", "halpern_slow", "beta"),
        ("nesterov", "nesterov_slow", "nu"),
        ("eag", "eag_constant", "eta_hat"),
        ("nag_peag", "nag_peag", "gamma_hat"),
        ("nag_peag", "nag_peag", "kappa"),
        ("nag_peag", "nag_peag", "zeta"),
    ])
    @pytest.mark.parametrize("at", [0, 3])
    def test_stream_lacking_a_field_is_an_input_error(self, scheme, kind,
                                                      name, at):
        def factory():
            for p in schedule_stream(kind, 1.0):
                yield p._replace(**{name: None}) if p.k == at else p

        solver = Solver(scheme, identity_operator(2), factory)
        with pytest.raises(InputError, match=f"'{name}' at k={at}"):
            run(solver, np.array([1.0, 2.0]), 5)

    def test_stream_without_kappa_is_an_input_error(self):
        def factory():
            return (ScheduleParams(k=k, gamma=1.0, theta=0.0, nu=0.5)
                    for k in range(5))

        solver = Solver("nesterov", identity_operator(2), factory)
        with pytest.raises(InputError, match="'kappa' at k=0"):
            run(solver, np.array([1.0, 2.0]), 5)

    @pytest.mark.parametrize("scheme,kind", [
        (scheme, kind) for scheme, kinds in COMPATIBLE_SCHEDULES.items()
        for kind in kinds])
    def test_points_carry_their_step_parameters(self, scheme, kind):
        # p of index k is the k-th item of the solver's stream: the
        # parameters of the step k -> k+1; the final index has none
        kw = {"rho": -0.1} if "comono" in kind else \
            {"eta0": 0.4} if kind in ("eag_varying", "peag_legacy") else {}
        solver = solver_for(identity_operator(2), scheme, kind, L=1.0, **kw)
        points = points_of(solver, np.array([1.0, 2.0]), 10)
        fresh = solver.schedule_factory()
        assert [p.p for p in points[:-1]] == [next(fresh) for _ in range(10)]
        assert points[-1].k == 10 and points[-1].p is None

    def test_zero_step_point_has_no_parameters(self):
        solver = solver_for(identity_operator(), "halpern", "halpern_fast")
        [point] = points_of(solver, np.array([1.0]), 0)
        assert point.k == 0 and point.p is None

    def test_run_without_observers_builds_no_point(self, monkeypatch):
        def refuse(**fields):
            raise AssertionError("a trace point was built")

        monkeypatch.setattr("anchored.schemes.TracePoint", refuse)
        solver = solver_for(identity_operator(2), "nesterov", "nesterov_slow")
        trace = run(solver, np.array([1.0, 2.0]), 10)
        assert trace.error is None and len(trace) == 11
        with pytest.raises(AssertionError, match="trace point was built"):
            run(solver, np.array([1.0, 2.0]), 10, observers=(print,))

    def test_rejects_negative_budget(self):
        solver = solver_for(identity_operator(), "halpern", "halpern_fast")
        with pytest.raises(InputError):
            run(solver, np.array([1.0]), -1)


class TestMakeSolver:
    def test_reflected_resolvent_form(self):
        # resolvent-only case driven by the fast anchored rule equals
        # y_{k+1} = beta*y0 + (1-beta)*(2 J - I) y_k
        lam = 0.7
        a = l1_kind(1.0)
        solver = Solver("halpern", yosida(a, lam),
                        lambda: schedule_stream("halpern_fast", 1.0 / lam))
        y0 = np.array([3.0, -2.0, 0.2])
        points = points_of(solver, y0, 30)
        res = a.with_lambda(lam)
        y = y0.copy()
        for k in range(30):
            beta = 1.0 / (k + 2)
            y = beta * y0 + (1 - beta) * (2.0 * resolvent_apply(res, y) - y)
        assert np.allclose(points[-1].y, y, rtol=1e-12, atol=1e-14)

    def test_fbs_midpoint_lambda_form(self):
        # lam = 2/L turns the fast anchored rule into
        # y_{k+1} = beta*y0 + (1-beta) * J(y_k - lam*B y_k)
        p_mat = unit_columns(SplitMix64(51).normal_matrix(9, 4))
        b_op = least_squares_operator(p_mat, np.zeros(9))
        lam = 2.0 / b_op.lipschitz
        g = fb_residual(SplittingSpec(a=l1_kind(0.3), b=b_op, lam=lam))
        solver = Solver("halpern", g,
                        lambda: schedule_stream("halpern_fast",
                                                1.0 / g.comonotone_modulus))
        y0 = SplitMix64(53).normal(4)
        points = points_of(solver, y0, 25)
        res = l1_kind(0.3).with_lambda(lam)
        y = y0.copy()
        for k in range(25):
            beta = 1.0 / (k + 2)
            y = beta * y0 + (1 - beta) * resolvent_apply(res, y - lam * b_op(y))
        assert np.allclose(points[-1].y, y, rtol=1e-10, atol=1e-12)

    def test_three_operator_matches_fb_through_change_of_variable(self):
        rng = SplitMix64(57)
        m = rng.normal_matrix(4, 4)
        m = 0.5 * (m @ m.T) + 0.5 * np.eye(4)
        l_b = np.linalg.norm(m, 2)
        b_single = OperatorSpec(dim=4, eval=lambda y: m @ y, lipschitz=l_b,
                                comonotone_modulus=1.0 / l_b)
        lam = 2.0 / l_b
        ab = SplittingSpec(a=l1_kind(0.2), b=b_single, lam=lam)
        abc = SplittingSpec(a=l1_kind(0.2), b=affine_kind(m), lam=lam)
        fb_solver = Solver("halpern", fb_residual(ab),
                           lambda: schedule_stream("halpern_fast", l_b))
        tos_op = tos_residual(abc)
        y0 = rng.normal(4)
        for point in points_of(fb_solver, y0, 100)[:-1]:
            u = point.y + lam * b_single(point.y)
            dev = np.linalg.norm(tos_op(u) - point.g_y)
            assert dev <= 1e-8 * (1.0 + np.linalg.norm(point.g_y))

    @pytest.mark.parametrize("scheme,kind", [
        (scheme, kind) for scheme, kinds in COMPATIBLE_SCHEDULES.items()
        for kind in kinds])
    def test_solver_and_trace_carry_the_resolved_constants(self, scheme,
                                                           kind):
        # keywords without a default get a value in range; sigma = 2 is
        # a non-default the meta must keep
        kw = {"eag_varying": {"eta0": 0.5}, "peag_legacy": {"eta0": 0.4},
              "comono_eag": {"rho": -0.1}, "nag_comono": {"rho": -0.1},
              "peag": {"sigma": 2.0}}.get(kind, {})
        expect = constants(kind, 1.0, **kw)
        solver = solver_for(identity_operator(2), scheme, kind, L=1.0, **kw)
        assert solver.meta["constants"] == expect
        trace = run(solver, np.array([1.0, 2.0]), 3)
        assert trace.meta["constants"] == expect

    def test_set_valued_b_with_equation_case_rejected(self):
        with pytest.raises(InputError):
            fb_residual(SplittingSpec(a=zero_kind_safe(), b=l1_kind(1.0),
                                      lam=1.0))


def zero_kind_safe():
    from anchored.operators import zero_kind
    return zero_kind()


def _table_solver(name, op):
    kind = SCHEMES[name].schedules[0]
    kw = {"rho": -0.1 / op.lipschitz} if "comono" in kind else {}
    return solver_for(op, name, kind, **kw)


K_COUNT = 10
#: evaluations of a K_COUNT-step run without tracking, and the ones that
#: tracking the x residual adds: G x_k for k >= 1 where the x slot is an x
#: iterate, or y_k where the scheme evaluates G at z only
EVALUATIONS = {
    "halpern": (K_COUNT + 1, 0),
    "nesterov": (K_COUNT + 1, K_COUNT),
    "eag": (2 * K_COUNT + 1, 0),
    "nag_eag": (2 * K_COUNT + 1, K_COUNT),
    "comono_eag": (2 * K_COUNT + 1, 0),
    "nag_comono": (2 * K_COUNT + 1, K_COUNT),
    "peag": (K_COUNT + 1, K_COUNT),
    "nag_peag": (K_COUNT + 1, K_COUNT),
}


def changed_arrays(solver, y0, K):
    """The arrays of a tracked run whose bytes changed after they were seen.

    An observer records the bytes of every point's iterates and operator
    values, and the operator records the bytes of every input. run()
    reads array identity as point identity, which holds only while no
    array is written into.
    """
    seen = []

    def record(what, v):
        seen.append((what, v, v.tobytes()))

    def apply(y, evaluate=solver.operator.eval):
        record("operator input", y)
        return evaluate(y)

    def observe(point):
        for name in ("x", "y", "z", "g_y", "g_z", "g_x"):
            if getattr(point, name) is not None:
                record(f"{name} at k = {point.k}", getattr(point, name))

    watched = replace(solver, operator=replace(solver.operator, eval=apply))
    run(watched, y0, K, TraceOpts(track_x_residual=True),
        observers=(observe,))
    return [what for what, v, before in seen if v.tobytes() != before]


class TestSchemeTable:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_columns_follow_the_declaration(self, name):
        row = SCHEMES[name]
        p_mat = unit_columns(SplitMix64(41).normal_matrix(8, 4))
        op = least_squares_operator(p_mat, np.ones(8))
        solver = _table_solver(name, op)
        y0 = SplitMix64(43).normal(4)
        K = 6
        points = points_of(solver, y0, K)
        trace = run(solver, y0, K)
        steps = np.arange(K + 1) < K
        expect = {
            "norm_g_y": np.full(K + 1, "y" in row.evaluates),
            "norm_g_z": np.full(K + 1, "z" in row.evaluates),
            "norm_dx": steps & ("x" in row.updates),
            "norm_yx": steps & ("x" in row.updates and "y" in row.updates),
            "norm_dy": steps & ("y" in row.updates),
            "norm_g_x": np.zeros(K + 1, bool),
        }
        for column_name, finite in expect.items():
            assert np.isfinite(getattr(trace, column_name)).tolist() \
                == finite.tolist(), column_name
        # the x slot is the state's x iterate, or y_k without one
        state = init_state(y0)
        stream = solver.schedule_factory()
        for k in range(K):
            if "x" in row.updates:
                assert np.array_equal(points[k].x, state.x)
            else:
                assert points[k].x is points[k].y
            row.step(state, op, next(stream))

    def test_rows_name_classes_and_potentials_that_exist(self):
        # every potential kind a row names builds its fold from the
        # schedule's default constants
        for name, row in SCHEMES.items():
            assert row.operator_class in CLASSES, name
            assert set(row.potentials) <= set(row.schedules), name
            for kind, potential in row.potentials.items():
                fold = diagnostics.POTENTIALS[potential](
                    1.0, np.zeros(2), constants(kind, L=1.0))
                assert isinstance(fold, diagnostics.Fold), (name, kind)
        named = {kind for row in SCHEMES.values()
                 for kind in row.potentials.values()}
        assert named == set(diagnostics.POTENTIALS)

    @pytest.mark.parametrize("scheme,kind", [
        (scheme, kind) for scheme, kinds in COMPATIBLE_SCHEDULES.items()
        for kind in kinds])
    def test_potential_fold_is_the_filed_one(self, scheme, kind):
        kw = {"rho": -0.1} if "comono" in kind else \
            {"eta0": 0.4} if kind in ("eag_varying", "peag_legacy") else {}
        solver = solver_for(identity_operator(2), scheme, kind, L=1.0, **kw)
        fold = diagnostics.potential_fold(solver, np.zeros(2))
        filed = SCHEMES[scheme].potentials.get(kind)
        if filed is None:
            assert fold is None
        else:
            expect = diagnostics.POTENTIALS[filed](1.0, np.zeros(2),
                                                   solver.meta["constants"])
            assert type(fold) is type(expect)

    def test_nag_peag_x_is_the_gradient_step_from_z(self):
        # xhat_{k+1} = z_k - gamma_hat G(z_k)
        op = small_saddle_operator(seed=23)
        points = points_of(_table_solver("nag_peag", op),
                           SplitMix64(29).normal(op.dim), 8)
        stream = schedule_stream("nag_peag", op.lipschitz)
        for prev, point in zip(points, points[1:]):
            gamma_hat = next(stream).gamma_hat
            assert np.array_equal(point.x, prev.z - gamma_hat * prev.g_z)

    @pytest.mark.parametrize("tracked", [False, True])
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_evaluation_counts(self, name, tracked):
        assert set(EVALUATIONS) == set(SCHEMES)
        untracked, added = EVALUATIONS[name]
        op, counter = counted(identity_operator(2))
        run(_table_solver(name, op), np.array([1.0, 2.0]), K_COUNT,
            TraceOpts(track_x_residual=tracked))
        assert counter.count == untracked + (added if tracked else 0)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_arrays_keep_their_bytes(self, name):
        op = least_squares_operator(
            unit_columns(SplitMix64(41).normal_matrix(8, 4)), np.ones(8))
        assert changed_arrays(_table_solver(name, op),
                              SplitMix64(43).normal(4), 6) == []

    def test_a_step_that_writes_into_its_iterate_is_caught(self,
                                                           monkeypatch):
        # control: y_k -= eta G(y_k) writes into y_k, which earlier
        # points, operator inputs and (at k = 0) the anchor hold
        def writing_step(state, op, p):
            g_y = op(state.y)
            state.y -= p.eta * g_y
            return g_y, None

        monkeypatch.setitem(SCHEMES, "halpern",
                            SCHEMES["halpern"]._replace(step=writing_step))
        op = least_squares_operator(
            unit_columns(SplitMix64(41).normal_matrix(8, 4)), np.ones(8))
        assert changed_arrays(_table_solver("halpern", op),
                              SplitMix64(43).normal(4), 6) != []

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_zero_steps_make_one_evaluation(self, name):
        # x_0 = y_0 = z_0: one value of G serves every column the scheme
        # has, the tracked x residual included
        row = SCHEMES[name]
        for tracked in (False, True):
            op, counter = counted(identity_operator(2))
            trace = run(_table_solver(name, op), np.array([1.0, 2.0]), 0,
                        TraceOpts(track_x_residual=tracked))
            assert counter.count == 1
            assert np.isfinite(trace.norm_g_y[0]) == ("y" in row.evaluates)
            assert np.isfinite(trace.norm_g_z[0]) == ("z" in row.evaluates)
            assert np.isfinite(trace.norm_g_x[0]) == tracked
