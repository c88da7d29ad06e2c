import hashlib
import inspect
import itertools
import math
from fractions import Fraction

import pytest

from anchored.diagnostics import eag_family_coeffs, omega_family_coeffs
from anchored.errors import InputError
from anchored.schedules import (
    SCHEDULE_KINDS,
    SCHEDULES,
    ScheduleParams,
    halpern_params,
    schedule_stream,
    transformed_nesterov_stream,
)


def draws(kind, L, n, **kw):
    """The first ``n`` parameter sets of a schedule stream."""
    return list(itertools.islice(schedule_stream(kind, L, **kw), n))


def nag_peag_schedule_general(k, L, sigma=1.0):
    """Three-correction coefficients derived from the stepsize ratios directly.

    gamma_hat_k = eta_hat_{k-1} + eta_k / (1 - beta_k),
    kappa_k = eta_{k-1} (1 - beta_k) / gamma_hat_{k-1},
    zeta_k = theta_k eta_{k-2} / gamma_hat_{k-2}, with beta_{-1} = 1 and
    every other value before the start 0, and the stepsizes read from the
    ``peag`` stream. The reference the closed forms of ``nag_peag`` are
    checked against.
    """
    peag = draws("peag", L, k + 1, sigma=sigma)

    def stepsizes(j):
        if j < 0:
            return 1.0, 0.0, 0.0
        p = peag[j]
        return p.beta, p.eta, p.eta_hat

    def gamma_hat_at(j):
        b, e, _ = stepsizes(j)
        _, _, eh_prev = stepsizes(j - 1)
        return eh_prev + e / (1.0 - b)

    def correction(j, weight):  # weight eta_j / gamma_hat_j, 0 before k = 0
        return 0.0 if j < 0 else weight * stepsizes(j)[1] / gamma_hat_at(j)

    beta_k = stepsizes(k)[0]
    beta_prev = 1.0 / (k + 1)
    theta = beta_k * (1.0 - beta_prev) / beta_prev
    nu = beta_k / beta_prev
    return (gamma_hat_at(k), theta, nu, correction(k - 1, 1.0 - beta_k),
            correction(k - 2, theta))


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
        p = draws("halpern_omega", 1.0, 1, gamma=0.9, omega=3.0)[0]
        assert p.beta == 0.5

    def test_limit(self):
        # beta_k = 4/(k+8) -> 0 and eta_k -> gamma; k = 10^5 is the last
        # index drawn
        p = draws("halpern_omega", 1.0, 10**5 + 1, gamma=0.9, omega=3.0)[-1]
        assert p.beta < 1e-4
        assert p.eta == pytest.approx(0.9, rel=1e-4)

    def test_k6_values(self):
        p = draws("halpern_omega", 1.0, 7, gamma=0.9, omega=3.0)[6]
        assert p.beta == pytest.approx(2.0 / 7.0)
        assert p.eta == pytest.approx(0.9 * 5.0 / 7.0)

    def test_gamma_must_be_interior(self):
        with pytest.raises(InputError):
            schedule_stream("halpern_omega", 1.0, gamma=1.0, omega=3.0)


class TestNesterovOmega:
    def test_values_at_zero(self):
        p = draws("nesterov_omega", 1.0, 1, omega=3.0)[0]
        assert p.theta == pytest.approx(1.0 / 8.0)
        assert p.nu == pytest.approx(5.0 / 8.0)
        assert omega_family_coeffs(0, 0.9, 3.0).t == pytest.approx(7.0 / 3.0)

    def test_extrapolation_identity(self):
        # theta_k * t_{k+1} = t_k - 1 - mu with mu = 1
        for p in draws("nesterov_omega", 1.0, 101, omega=3.0):
            t_k = omega_family_coeffs(p.k, 0.9, 3.0).t
            t_k1 = omega_family_coeffs(p.k + 1, 0.9, 3.0).t
            assert abs(p.theta * t_k1 - (t_k - 2.0)) < 1e-12

    def test_t_increments_by_inverse_omega(self):
        for omega in (3.0, 5.0):
            for k in (0, 7, 1000):
                t_k = omega_family_coeffs(k, 0.9, omega).t
                t_k1 = omega_family_coeffs(k + 1, 0.9, omega).t
                assert t_k1 - t_k == pytest.approx(1.0 / omega, abs=1e-12)

    def test_coefficient_conditions_hold_far_out(self):
        # both defining conditions, b_k = 2 gamma t_k (t_k - 1), mu = 1
        gamma, omega, mu = 0.9, 3.0, 1.0
        params = draws("nesterov_omega", 1.0, 10_001, gamma=gamma,
                       omega=omega)
        for k in [0, 1, 2, 10, 100, 1000, 10_000]:
            theta, nu = params[k].theta, params[k].nu
            c_k = omega_family_coeffs(k, gamma, omega)
            c_k1 = omega_family_coeffs(k + 1, gamma, omega)
            t_k, t_k1, b_k, b_k1 = c_k.t, c_k1.t, c_k.b, c_k1.b
            c1 = t_k - t_k1 * theta - 1.0 - mu
            c2 = b_k1 * theta + 2 * gamma * t_k * (t_k - 1) \
                - 2 * gamma * nu * theta * t_k1 ** 2 - b_k
            assert abs(c1) < 1e-12
            assert abs(c2) < 1e-12 * max(1.0, b_k)


def transform(beta, eta, gamma):
    """(theta, nu, kappa) lists of the transform for finite sequences."""
    params = list(transformed_nesterov_stream(
        ScheduleParams(k, b, e, gamma=g)
        for k, (b, e, g) in enumerate(zip(beta, eta, gamma))))
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

    def test_rejects_nonpositive_gamma(self):
        # the corrected kinds check their gamma when the stream is built
        for kind in ("nesterov_slow", "nesterov_fast", "nesterov_omega"):
            for gamma in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(InputError, match="gamma"):
                    schedule_stream(kind, 1.0, gamma=gamma)

    def test_carries_previous_step(self):
        # each (beta, eta, gamma) is drawn once, in order
        calls = []

        def anchored():
            for k in itertools.count():
                calls.append(k)
                yield ScheduleParams(k, 1.0 / (k + 2), 0.5, gamma=1.0)

        stream = transformed_nesterov_stream(anchored())
        for _ in range(5):
            next(stream)
        assert calls == [0, 1, 2, 3, 4]

    def test_unknown_family_refused(self):
        # not an endless loop over an anchored stream that yields nothing
        with pytest.raises(InputError, match="family"):
            next(transformed_nesterov_stream(
                (ScheduleParams(k, 0.5, 1.0) for k in itertools.count()),
                "extragradient"))


class TestEagSchedule:
    def test_constant(self):
        p = draws("eag_constant", 1.0, 1, eta=0.125)[0]
        assert (p.beta, p.eta, p.eta_hat) == (0.5, 0.125, 0.125)

    def test_constant_rejects_large_eta(self):
        with pytest.raises(InputError):
            schedule_stream("eag_constant", 1.0, eta=0.2)

    def test_varying_first_update_matches_fraction_oracle(self):
        e0 = Fraction(1, 2)
        expect = (1 - e0 ** 2 / ((1 - e0 ** 2) * 1 * 3)) * e0
        eta1 = draws("eag_varying", 1.0, 2, eta0=0.5)[1].eta
        assert eta1 == pytest.approx(float(expect), rel=1e-15)
        assert expect == Fraction(4, 9)

    def test_varying_vanishing_eta0_is_fixed_point(self):
        eta1 = draws("eag_varying", 1.0, 2, eta0=1e-9)[1].eta
        assert eta1 == pytest.approx(1e-9, rel=1e-12)

    def test_varying_stream_is_decreasing_with_positive_limit(self):
        stream = schedule_stream("eag_varying", 1.0, eta0=0.5)
        etas = [next(stream).eta for _ in range(2000)]
        assert all(e1 >= e2 > 0 for e1, e2 in zip(etas, etas[1:]))


class TestNagEagSchedule:
    def test_values_at_zero(self):
        p = draws("nag_eag", 1.0, 1)[0]
        assert (p.gamma, p.eta_hat, p.eta, p.theta, p.nu) == (1.0, 1.0, 0.5,
                                                              0.0, 0.5)
        c = eag_family_coeffs(0, 1.0)
        assert c.t == 1.0
        assert c.a == 0.0 and c.b == 0.0

    def test_b_recursion_matches_closed_form(self):
        L = 2.5
        b_prev = eag_family_coeffs(1, L).b
        for k in range(1, 200):
            b_next = eag_family_coeffs(k + 1, L).b
            assert abs(b_next - b_prev * (k + 2) / k) <= 1e-12 * max(1.0, b_next)
            b_prev = b_next

    def test_b2_value(self):
        assert eag_family_coeffs(2, 1.0).b == pytest.approx(6.0)


class TestComono:
    def test_beta_starts_at_one(self):
        p = draws("comono_eag", 1.0, 1, rho=-0.1)[0]
        assert p.beta == 1.0

    def test_rejects_rho_below_threshold(self):
        for kind in ("comono_eag", "nag_comono"):
            with pytest.raises(InputError):
                schedule_stream(kind, 1.0, rho=-0.5)

    def test_transform_coefficients(self):
        params = draws("nag_comono", 1.0, 3, rho=-0.25)
        assert params[2].theta == pytest.approx(1.0 / 3.0)
        assert params[2].nu == pytest.approx(2.0 / 3.0)
        # start convention: only nu - theta enters the first step
        assert params[0].nu - params[0].theta == pytest.approx(1.0)


class TestPeagSchedule:
    def test_two_step_values(self):
        p = draws("peag", 1.0, 1, sigma=1.0)[0]
        assert p.beta == 0.5
        assert p.eta == pytest.approx(0.25)
        assert p.eta_hat == pytest.approx(0.5)

    def test_sigma_one_eta_hat_is_half_inverse_l(self):
        params = draws("peag", 2.0, 34, sigma=1.0)
        for k in (0, 5, 33):
            assert params[k].eta_hat == pytest.approx(1.0 / 4.0)

    def test_legacy_first_update_matches_fraction_oracle(self):
        e0, b0, b1 = Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)
        expect = (1 - b0 ** 2 - 2 * e0 ** 2) * b1 * e0 / ((1 - 2 * e0 ** 2) * (1 - b0) * b0)
        eta1 = draws("peag_legacy", 1.0, 2, eta0=0.25)[1].eta
        assert expect == Fraction(5, 21)
        assert eta1 == pytest.approx(float(expect), rel=1e-14)

    def test_legacy_rejects_large_eta0(self):
        with pytest.raises(InputError):
            schedule_stream("peag_legacy", 1.0, eta0=0.6)


def corrections(p):
    return p.gamma_hat, p.theta, p.nu, p.kappa, p.zeta


class TestNagPeagSchedule:
    def test_k2_sigma1(self):
        gh, theta, nu, kappa, zeta = corrections(
            draws("nag_peag", 1.0, 3, sigma=1.0)[2])
        assert gh == pytest.approx(1.0)
        assert (theta, nu, kappa, zeta) == pytest.approx(
            (0.5, 0.75, 0.25, 0.25), rel=0.0, abs=1e-15)

    def test_zero_index_corrections_vanish(self):
        p = draws("nag_peag", 1.0, 1)[0]
        assert p.kappa == 0.0 and p.zeta == 0.0

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 0.19])
    def test_general_formula_agrees_with_closed_form(self, sigma):
        params = draws("nag_peag", 1.3, 51, sigma=sigma)
        for k in range(51):
            closed = corrections(params[k])
            general = nag_peag_schedule_general(k, 1.3, sigma=sigma)
            assert closed == pytest.approx(general, rel=1e-12, abs=1e-14)


#: the ScheduleParams fields, in order
FIELDS = ("k", "beta", "eta", "eta_hat", "gamma", "gamma_hat", "theta", "nu",
          "kappa", "zeta", "rho")

#: sha256 over float.hex of every field (None as "-") of the first 2000
#: parameter sets, for each kind at its default keywords (L = 2.5; the
#: required rho and eta0 at the values verify uses) and at one other set
#: (L = 0.7, and other keywords where the kind reads any)
PINNED = [
    ("halpern_fast", 2.5, {},
     "ec63aa204e86bf7926f3ffc95721a0203c294604afa6519900a1b0af00ddd6b2"),
    ("halpern_fast", 0.7, {},
     "f85062544dbf41b36b5859d25c1e820498bc292b53622beaf3e251237eff334d"),
    ("halpern_slow", 2.5, {},
     "d069fec37b0b8e87c67fa70057bf32b49123133b0531b93a5b1a9be22c2391dd"),
    ("halpern_slow", 0.7, {},
     "a01ffcc2f934f7442ea8ff42bb084656272cee28ea8a3eeab504f6cfecd758ca"),
    ("halpern_omega", 2.5, {},
     "a5f9aa3c1b394d0314ba4a857b017f25e97ad3d469dc5bc2d6942afa332adf1a"),
    ("halpern_omega", 0.7, {"gamma": 0.5 / 0.7, "omega": 4.5},
     "59685b847805cca852adc050d54824715b4268bfd17de00d53ba72a988f0abb1"),
    ("nesterov_slow", 2.5, {},
     "34faf4fa6b938eebb09b4d4f45e5c3926237b2c25795a08c00cd0f100eadcf03"),
    ("nesterov_slow", 0.7, {"gamma": 0.6 / 0.7},
     "619a06f61a165bbf42ecfb084f5352a36e9646199849889d9a92ead6c7b66bd8"),
    ("nesterov_fast", 2.5, {},
     "7217c70d742f61e20738333d4922cada2fd1a1f165e4b86400ecdafe9b68bc1c"),
    ("nesterov_fast", 0.7, {"gamma": 1.3 / 0.7},
     "23584dd064cd852844183f86c2d44453cea511cd48dd67cbe81d5289cdbb547f"),
    ("nesterov_omega", 2.5, {},
     "5b7c3a86e1f6dfbf1779a9a702e6d7e7d0b0b23585c94c388d030b5e0f52dbda"),
    ("nesterov_omega", 0.7, {"gamma": 1.7 / 0.7, "omega": 1.5},
     "3dd29f4bd76beeb5c38b3ed65b50b67341392ba9252c44c165b5b608d7603a58"),
    ("eag_constant", 2.5, {},
     "38cc6b8690b0acb29f92ae5730383f602912132acfe5a1970f4340f63aa1fba0"),
    ("eag_constant", 0.7, {"eta": 0.05 / 0.7},
     "ad35b8ceb0553b4dd92e647a0286e8346abfb9d3816ab7cca063eb0af25317de"),
    ("eag_varying", 2.5, {"eta0": 0.5 / 2.5},
     "a36f466240582f38449a7a56a4ab1c64d953b5a5fadb25483cd6a2747d15edec"),
    ("eag_varying", 0.7, {"eta0": 0.9 / 0.7},
     "e3afc2c37c0f28b634808a41bda54434c81198ce60b7474bd1bf13a0388fc48f"),
    ("comono_eag", 2.5, {"rho": -1.0 / (4.0 * 2.5)},
     "b6ca17ac092d031e386f1a20e531a9d880eda20d88b768bcd4cd1260ccf8f099"),
    ("comono_eag", 0.7, {"rho": 0.8 / 0.7},
     "16180db563467c119ac5633404cb19bd75505471d6e69e1b72c5949b94664e2f"),
    ("peag", 2.5, {},
     "8487b96525a6e0ff73f2859149532919146d5eb70bb37e1af7db59fa88b135eb"),
    ("peag", 0.7, {"sigma": 0.19},
     "1819cb5e480ac3cf69637f70018e8ea7d6ce851f90097aa7b2bd46611852ea4a"),
    ("peag_legacy", 2.5, {"eta0": 0.4 / 2.5},
     "291452bc04c569fd0deb9af329da3e538ec4f0689b2c8f33a445db9e163b7d9d"),
    ("peag_legacy", 0.7, {"eta0": 0.1 / 0.7},
     "8738147648ef7305d164979942305a9d4f0b3a4650d0c2ab2935252bd348b4d3"),
    ("nag_eag", 2.5, {},
     "5c4056d6a4d14f37edf44a6863c1805d2509f1c62b90dfa9bef66dd7a29ad671"),
    ("nag_eag", 0.7, {},
     "9ccda24c8b3653417c40d5160c34f60f295eb2eb0c7fa8582a1f798fd35dae43"),
    ("nag_comono", 2.5, {"rho": -1.0 / (4.0 * 2.5)},
     "c0b971d30e0f6f519be5d4e6bc92bbecb1579a95fea1bc8192c53e48dff88ea4"),
    ("nag_comono", 0.7, {"rho": 0.3 / 0.7},
     "bcc8895682aee5c63582741d06037defa5eea7b7fba7a7c40ba2748e833fb3d9"),
    ("nag_peag", 2.5, {},
     "205db3f8d9de27b762ba5d50ad8da4e185c6728190e924399e47b4aaea605f82"),
    ("nag_peag", 0.7, {"sigma": 2.0},
     "ed9ef8b84ad17ddc3067edd953fba9f764d2ed8f4fd5773fc48abfce185b51ff"),
]

#: a constant out of its range for each kind that reads one, NaN and inf
#: included; each must be refused when the stream is built
BAD_CONSTANTS = [
    ("halpern_omega", {"gamma": math.nan}), ("halpern_omega", {"gamma": 0.0}),
    ("halpern_omega", {"omega": math.nan}), ("halpern_omega", {"omega": 2.0}),
    ("halpern_omega", {"omega": math.inf}),
    ("nesterov_omega", {"omega": math.nan}),
    ("nesterov_omega", {"omega": 0.5}),
    ("nesterov_omega", {"omega": math.inf}),
    ("eag_constant", {"eta": math.nan}), ("eag_constant", {"eta": math.inf}),
    ("eag_varying", {}), ("eag_varying", {"eta0": math.nan}),
    ("eag_varying", {"eta0": 1.0}),
    ("comono_eag", {}), ("comono_eag", {"rho": math.nan}),
    ("nag_comono", {"rho": 2.0}), ("nag_comono", {"rho": math.nan}),
    ("nesterov_fast", {"gamma": math.nan}),
    ("nesterov_fast", {"gamma": math.inf}),
    ("nesterov_slow", {"gamma": 0.0}),
    ("peag", {"sigma": math.nan}), ("peag", {"sigma": math.inf}),
    ("peag", {"sigma": 0.0}), ("nag_peag", {"sigma": -2.0}),
    ("nag_peag", {"sigma": math.nan}),
    ("peag_legacy", {"eta0": math.nan}), ("peag_legacy", {"eta0": 0.5}),
]


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
            ScheduleParams(k, *halpern_params(k, L, "fast"), gamma=1.0 / L)
            for k in itertools.count())
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

    @pytest.mark.parametrize("kind,L,kw,digest", PINNED,
                             ids=[f"{c[0]}-L{c[1]}" for c in PINNED])
    def test_first_2000_params_are_pinned(self, kind, L, kw, digest):
        h = hashlib.sha256()
        for p in draws(kind, L, 2000, **kw):
            for name in FIELDS:
                v = getattr(p, name)
                h.update(b"-," if v is None else float(v).hex().encode() + b",")
        assert h.hexdigest() == digest

    def test_pins_cover_every_kind_twice(self):
        assert sorted(c[0] for c in PINNED) == sorted(SCHEDULE_KINDS * 2)
        assert ScheduleParams._fields == FIELDS

    def test_rows_declare_the_keywords_their_rules_read(self):
        for kind, row in SCHEDULES.items():
            params = tuple(inspect.signature(row.rule).parameters)
            assert params == ("L",) + row.keywords, kind

    @pytest.mark.parametrize("kind,kw", BAD_CONSTANTS,
                             ids=[f"{k}-{v}" for k, v in BAD_CONSTANTS])
    def test_bad_constant_refused_when_built(self, kind, kw):
        with pytest.raises(InputError):
            schedule_stream(kind, 1.0, **kw)

    def test_unread_keyword_names_key_and_kind(self):
        every = ("gamma", "omega", "sigma", "rho", "eta", "eta0")
        for kind, row in SCHEDULES.items():
            for key in every:
                if key in row.keywords:
                    continue
                with pytest.raises(InputError) as err:
                    schedule_stream(kind, 1.0, **{key: 0.1})
                assert key in str(err.value) and kind in str(err.value)

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf, None])
    def test_bad_lipschitz_constant_refused(self, L):
        with pytest.raises(InputError):
            schedule_stream("halpern_fast", L)


def closed_forms(kind, p):
    """The closed forms the corrected rules once wrote out, as a reference:
    (gamma_hat, theta, nu, kappa, zeta) of ``p``, None where unset."""
    k = p.k
    if kind == "nag_comono":
        return (None, (k - 1.0) / (k + 1.0) if k else 0.0,
                k / (k + 1.0) if k else 1.0, None, None)
    theta, nu = k / (k + 2.0), (k + 1.0) / (k + 2.0)
    if kind == "nag_eag":
        return None, theta, nu, None, None
    return ((2.0 if k else 1.0) * p.eta_hat, theta, nu,
            (0.0, 1.0 / 3.0)[k] if k < 2 else k / (2.0 * (k + 2.0)),
            (0.0, 0.0, 0.25)[k] if k < 3 else (k - 1.0) / (2.0 * (k + 2.0)))


#: the pinned constants of each kind that once had closed forms
CLOSED = [c[:3] for c in PINNED if c[0] in ("nag_eag", "nag_comono",
                                            "nag_peag")]


class TestClosedForms:
    @pytest.mark.parametrize("kind,L,kw", CLOSED,
                             ids=[f"{c[0]}-L{c[1]}" for c in CLOSED])
    def test_transform_matches_the_closed_forms(self, kind, L, kw):
        # the transform's values differ from the closed forms in the last
        # bits only: within 4 ulps of the closed form over 2000 steps
        for p in draws(kind, L, 2000, **kw):
            for got, want in zip(corrections(p), closed_forms(kind, p)):
                if want is None:
                    assert got is None
                else:
                    assert abs(got - want) <= 4.0 * math.ulp(want), (p.k, got,
                                                                     want)
