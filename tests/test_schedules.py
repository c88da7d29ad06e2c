from fractions import Fraction

import pytest

from anchored.errors import InputError
from anchored.schedules import (
    SCHEDULE_KINDS,
    comono_schedule,
    eag_schedule,
    halpern_omega_params,
    halpern_params,
    nag_comono_transform,
    nag_eag_schedule,
    nag_peag_schedule,
    nesterov_omega_params,
    peag_schedule,
    schedule_stream,
    transformed_nesterov_stream,
)


def nag_peag_schedule_general(k, L, sigma=1.0):
    """Three-correction coefficients derived from the stepsize ratios directly.

    gamma_hat_k = eta_hat_{k-1} + eta_k / (1 - beta_k),
    kappa_k = eta_{k-1} (1 - beta_k) / gamma_hat_{k-1},
    zeta_k = theta_k eta_{k-2} / gamma_hat_{k-2}, with negative-index
    stepsizes set to the index-0 values. The reference the closed forms
    of :func:`nag_peag_schedule` are checked against.
    """
    def stepsizes(j):
        return peag_schedule(max(j, 0), L, sigma=sigma)

    beta_k, eta_k, eta_hat_k = stepsizes(k)

    def gamma_hat_at(j):
        b, e, _ = stepsizes(j)
        _, _, eh_prev = stepsizes(j - 1)
        return eh_prev + e / (1.0 - b)

    gamma_hat = gamma_hat_at(k)
    if k == 0:
        return gamma_hat, 0.0, 1.0 / 2.0, 0.0, 0.0
    beta_prev = 1.0 / (k + 1)
    theta = beta_k * (1.0 - beta_prev) / beta_prev
    nu = beta_k / beta_prev
    _, eta_prev, _ = stepsizes(k - 1)
    kappa = eta_prev * (1.0 - beta_k) / gamma_hat_at(k - 1)
    if k == 1:
        zeta = 0.0
    else:
        _, eta_pp, _ = stepsizes(k - 2)
        zeta = theta * eta_pp / gamma_hat_at(k - 2)
    return gamma_hat, theta, nu, kappa, zeta


class TestHalpernParams:
    def test_fast_at_zero(self):
        assert halpern_params(0, 2.0, "fast") == (0.5, 0.5)

    def test_slow_at_two(self):
        assert halpern_params(2, 1.0, "slow") == (0.25, 0.75)

    def test_fast_unit_l(self):
        assert halpern_params(0, 1.0, "fast") == (0.5, 1.0)

    def test_rejects_bad_variant(self):
        with pytest.raises(InputError):
            halpern_params(0, 1.0, "medium")


class TestHalpernOmega:
    def test_beta_at_zero(self):
        beta, _ = halpern_omega_params(0, 1.0, 0.9, 3.0)
        assert beta == 0.5

    def test_limit(self):
        beta, eta = halpern_omega_params(10**7, 1.0, 0.9, 3.0)
        assert beta < 1e-6
        assert eta == pytest.approx(0.9, rel=1e-6)

    def test_k6_values(self):
        beta, eta = halpern_omega_params(6, 1.0, 0.9, 3.0)
        assert beta == pytest.approx(2.0 / 7.0)
        assert eta == pytest.approx(0.9 * 5.0 / 7.0)

    def test_gamma_must_be_interior(self):
        with pytest.raises(InputError):
            halpern_omega_params(0, 1.0, 1.0, 3.0)


class TestNesterovOmega:
    def test_values_at_zero(self):
        theta, nu, t = nesterov_omega_params(0, 3.0)
        assert theta == pytest.approx(1.0 / 8.0)
        assert nu == pytest.approx(5.0 / 8.0)
        assert t == pytest.approx(7.0 / 3.0)

    def test_extrapolation_identity(self):
        # theta_k * t_{k+1} = t_k - 1 - mu with mu = 1
        for k in range(101):
            theta, _, t_k = nesterov_omega_params(k, 3.0)
            _, _, t_k1 = nesterov_omega_params(k + 1, 3.0)
            assert abs(theta * t_k1 - (t_k - 2.0)) < 1e-12

    def test_t_increments_by_inverse_omega(self):
        for omega in (3.0, 5.0):
            for k in (0, 7, 1000):
                _, _, t_k = nesterov_omega_params(k, omega)
                _, _, t_k1 = nesterov_omega_params(k + 1, omega)
                assert t_k1 - t_k == pytest.approx(1.0 / omega, abs=1e-12)

    def test_coefficient_conditions_hold_far_out(self):
        # both defining conditions, b_k = 2 gamma t_k (t_k - 1), mu = 1
        gamma, omega, mu = 0.9, 3.0, 1.0
        for k in [0, 1, 2, 10, 100, 1000, 10_000]:
            theta, nu, t_k = nesterov_omega_params(k, omega)
            _, _, t_k1 = nesterov_omega_params(k + 1, omega)
            b_k = 2.0 * gamma * t_k * (t_k - 1.0)
            b_k1 = 2.0 * gamma * t_k1 * (t_k1 - 1.0)
            c1 = t_k - t_k1 * theta - 1.0 - mu
            c2 = b_k1 * theta + 2 * gamma * t_k * (t_k - 1) \
                - 2 * gamma * nu * theta * t_k1 ** 2 - b_k
            assert abs(c1) < 1e-12
            assert abs(c2) < 1e-12 * max(1.0, b_k)


def transform(beta, eta, gamma):
    """(theta, nu, kappa) lists of the transform for finite sequences."""
    stream = transformed_nesterov_stream(
        lambda k: (beta[k], eta[k]), lambda k: gamma[k], 1.0)
    params = [next(stream) for _ in beta]
    return ([p.theta for p in params], [p.nu for p in params],
            [p.kappa for p in params])


class TestTransform:
    def test_matched_gamma_kills_kappa(self):
        ks = range(0, 40)
        beta = [1.0 / (k + 2) for k in ks]
        eta = [1.5 * (1 - b) for b in beta]
        gamma = [e / (1 - b) for e, b in zip(eta, beta)]
        theta, nu, kappa = transform(beta, eta, gamma)
        for k in range(1, 40):
            assert kappa[k] == pytest.approx(0.0, abs=1e-15)
            assert nu[k] == pytest.approx((k + 1) / (k + 2))

    def test_fast_choice_gives_two_corrections(self):
        ks = range(0, 40)
        beta = [1.0 / (k + 2) for k in ks]
        eta = [2.0 * (1 - b) for b in beta]
        gamma = [1.0] * len(beta)
        theta, nu, kappa = transform(beta, eta, gamma)
        for k in range(1, 40):
            assert theta[k] == pytest.approx(k / (k + 2))
            assert nu[k] == pytest.approx(0.0, abs=1e-15)
            assert kappa[k] == pytest.approx(k / (k + 2))

    def test_index_zero_convention(self):
        beta = [0.5, 1.0 / 3.0]
        eta = [0.5, 2.0 / 3.0]
        gamma = [1.0, 1.0]
        _, nu, _ = transform(beta, eta, gamma)
        assert nu[0] == pytest.approx(0.5)

    def test_theta_identity_invariant(self):
        beta = [1.0 / (k + 2) for k in range(200)]
        eta = [0.7 * (1 - b) for b in beta]
        gamma = [0.9] * 200
        theta, _, _ = transform(beta, eta, gamma)
        for k in range(1, 200):
            assert abs(beta[k - 1] * theta[k] - beta[k] * (1 - beta[k - 1])) <= 1e-14

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(InputError):
            transform([1.0], [0.5], [1.0])
        with pytest.raises(InputError):
            transform([0.5, 0.0], [0.5, 0.5], [1.0, 1.0])

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(InputError):
            transform([0.5], [0.5], [0.0])

    def test_carries_previous_step(self):
        # each (beta, eta, gamma) is drawn once, in order
        calls = []

        def beta_eta(k):
            calls.append(k)
            return 1.0 / (k + 2), 0.5

        stream = transformed_nesterov_stream(beta_eta, lambda k: 1.0, 1.0)
        for _ in range(5):
            next(stream)
        assert calls == [0, 1, 2, 3, 4]


class TestEagSchedule:
    def test_constant(self):
        assert eag_schedule(0, 1.0, "constant", eta=0.125) == (0.5, 0.125, 0.125)

    def test_constant_rejects_large_eta(self):
        with pytest.raises(InputError):
            eag_schedule(0, 1.0, "constant", eta=0.2)

    def test_varying_first_update_matches_fraction_oracle(self):
        e0 = Fraction(1, 2)
        expect = (1 - e0 ** 2 / ((1 - e0 ** 2) * 1 * 3)) * e0
        _, eta1, _ = eag_schedule(1, 1.0, "varying", eta0=0.5, eta_prev=0.5)
        assert eta1 == pytest.approx(float(expect), rel=1e-15)
        assert expect == Fraction(4, 9)

    def test_varying_vanishing_eta0_is_fixed_point(self):
        _, eta1, _ = eag_schedule(1, 1.0, "varying", eta0=1e-9, eta_prev=1e-9)
        assert eta1 == pytest.approx(1e-9, rel=1e-12)

    def test_varying_stream_is_decreasing_with_positive_limit(self):
        stream = schedule_stream("eag_varying", 1.0, eta0=0.5)
        etas = [next(stream).eta for _ in range(2000)]
        assert all(e1 >= e2 > 0 for e1, e2 in zip(etas, etas[1:]))


class TestNagEagSchedule:
    def test_values_at_zero(self):
        gamma, eta, eta_hat, theta, nu, t, a, b = nag_eag_schedule(0, 1.0)
        assert (gamma, eta_hat, eta, theta, nu) == (1.0, 1.0, 0.5, 0.0, 0.5)
        assert t == 1.0
        assert a == 0.0 and b == 0.0

    def test_b_recursion_matches_closed_form(self):
        L = 2.5
        b_prev = nag_eag_schedule(1, L)[7]
        for k in range(1, 200):
            b_next = nag_eag_schedule(k + 1, L)[7]
            assert abs(b_next - b_prev * (k + 2) / k) <= 1e-12 * max(1.0, b_next)
            b_prev = b_next

    def test_b2_value(self):
        assert nag_eag_schedule(2, 1.0)[7] == pytest.approx(6.0)


class TestComono:
    def test_zero_rho_reduces_to_unit_tau(self):
        _, _, tau = comono_schedule(3, 1.0, 0.0)
        assert tau == 1.0

    def test_negative_rho_tau(self):
        _, _, tau = comono_schedule(1, 1.0, -0.25)
        assert tau == pytest.approx(2.0)

    def test_beta_starts_at_one(self):
        beta, _, _ = comono_schedule(0, 1.0, -0.1)
        assert beta == 1.0

    def test_rejects_rho_below_threshold(self):
        with pytest.raises(InputError):
            comono_schedule(0, 1.0, -0.5)

    def test_transform_coefficients(self):
        beta, eta, tau, theta, nu = nag_comono_transform(2, 1.0, -0.25)
        assert theta == pytest.approx(1.0 / 3.0)
        assert nu == pytest.approx(2.0 / 3.0)
        # start convention: only nu - theta enters the first step
        _, _, _, th0, nu0 = nag_comono_transform(0, 1.0, -0.25)
        assert nu0 - th0 == pytest.approx(1.0)


class TestPeagSchedule:
    def test_two_step_values(self):
        beta, eta, eta_hat = peag_schedule(0, 1.0, sigma=1.0)
        assert beta == 0.5
        assert eta == pytest.approx(0.25)
        assert eta_hat == pytest.approx(0.5)

    def test_sigma_one_eta_hat_is_half_inverse_l(self):
        for k in (0, 5, 33):
            _, _, eta_hat = peag_schedule(k, 2.0, sigma=1.0)
            assert eta_hat == pytest.approx(1.0 / 4.0)

    def test_legacy_first_update_matches_fraction_oracle(self):
        e0, b0, b1 = Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)
        expect = (1 - b0 ** 2 - 2 * e0 ** 2) * b1 * e0 / ((1 - 2 * e0 ** 2) * (1 - b0) * b0)
        _, eta1, _ = peag_schedule(1, 1.0, mode="legacy", eta0=0.25, eta_prev=0.25)
        assert expect == Fraction(5, 21)
        assert eta1 == pytest.approx(float(expect), rel=1e-14)

    def test_legacy_rejects_large_eta0(self):
        with pytest.raises(InputError):
            peag_schedule(0, 1.0, mode="legacy", eta0=0.6)


class TestNagPeagSchedule:
    def test_k2_sigma1(self):
        gh, theta, nu, kappa, zeta = nag_peag_schedule(2, 1.0, sigma=1.0)
        assert gh == pytest.approx(1.0)
        assert (theta, nu, kappa, zeta) == (0.5, 0.75, 0.25, 0.125)

    def test_zero_index_corrections_vanish(self):
        _, _, _, kappa, zeta = nag_peag_schedule(0, 1.0)
        assert kappa == 0.0 and zeta == 0.0

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 0.19])
    def test_general_formula_agrees_with_closed_form(self, sigma):
        for k in range(51):
            closed = nag_peag_schedule(k, 1.3, sigma=sigma)
            general = nag_peag_schedule_general(k, 1.3, sigma=sigma)
            assert closed == pytest.approx(general, rel=1e-12, abs=1e-14)


class TestStreams:
    def test_all_kinds_yield(self):
        for kind in SCHEDULE_KINDS:
            kw = {}
            if kind in ("comono_eag", "nag_comono"):
                kw["rho"] = -0.1
            if kind in ("eag_varying",):
                kw["eta0"] = 0.5
            if kind == "peag_legacy":
                kw["eta0"] = 0.2
            stream = schedule_stream(kind, 1.0, **kw)
            params = [next(stream) for _ in range(5)]
            assert [p.k for p in params] == list(range(5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            schedule_stream("nope", 1.0)

    def test_transformed_stream_matches_closed_form(self):
        # fast stepsizes with gamma = 1/L reproduce the two-correction rule
        L = 2.0
        stream = transformed_nesterov_stream(
            lambda k: halpern_params(k, L, "fast"), lambda k: 1.0 / L, L)
        closed = schedule_stream("nesterov_fast", L)
        for _ in range(30):
            a, b = next(stream), next(closed)
            assert a.theta == pytest.approx(b.theta, abs=1e-15)
            assert a.nu == pytest.approx(b.nu, abs=1e-15)
            assert a.kappa == pytest.approx(b.kappa, abs=1e-15)

    def test_beta_in_unit_interval_except_comono_start(self):
        for kind in SCHEDULE_KINDS:
            kw = {"rho": -0.1} if "comono" in kind else {}
            if kind == "eag_varying":
                kw["eta0"] = 0.5
            if kind == "peag_legacy":
                kw["eta0"] = 0.2
            stream = schedule_stream(kind, 1.0, **kw)
            for i in range(50):
                p = next(stream)
                if p.beta is None:
                    continue
                if "comono" in kind and i == 0:
                    assert p.beta == 1.0
                else:
                    assert 0.0 < p.beta < 1.0
