from dataclasses import replace

import numpy as np
import pytest

from anchored.errors import InputError
from anchored.operators import (
    OperatorSpec,
    affine_kind,
    box_kind,
    huber_saddle_operator,
    identity_operator,
    l1_kind,
    least_squares_kind,
    least_squares_operator,
    resolvent_apply,
    spectral_norm,
    zero_kind,
)
from anchored.residuals import (
    SplittingSpec,
    cocoercivity_report,
    default_lambda,
    fb_residual,
    tos_residual,
    yosida,
)
from anchored.rng import SplitMix64


def unit_columns(m):
    return m / np.linalg.norm(m, axis=0)


def desk_ls_operator(seed=3, n=12, p=6):
    p_mat = unit_columns(SplitMix64(seed).normal_matrix(n, p))
    return least_squares_operator(p_mat, np.zeros(n))


class TestYosida:
    def test_zero_operator(self):
        g = yosida(zero_kind(), 0.5, dim=3)
        assert np.all(g(np.array([1.0, -2.0, 4.0])) == 0.0)

    def test_soft_threshold_value(self):
        g = yosida(l1_kind(1.0), 1.0, dim=1)
        assert g(np.array([3.0]))[0] == pytest.approx(1.0)

    def test_affine_solve(self):
        g = yosida(affine_kind(np.eye(2)), 1.0)
        # J solves 2x = y, so (y - y/2)/1 = y/2
        assert np.allclose(g(np.array([2.0, 2.0])), [1.0, 1.0])

    def test_least_squares_dim_from_p(self):
        rng = SplitMix64(4)
        p_mat, b = rng.normal_matrix(3, 5), rng.normal(3)
        g = yosida(least_squares_kind(p_mat, b), 0.5)
        assert g.dim == 5
        # the Yosida value is A at the resolvent point: P^T (P J y - b)
        y = rng.normal(5)
        j = y - 0.5 * g(y)
        assert np.allclose(g(y), p_mat.T @ (p_mat @ j - b), atol=1e-12)

    def test_is_lambda_cocoercive(self):
        g = yosida(l1_kind(0.5), 1.7, dim=4)
        report = cocoercivity_report(g, 1.7, 500, seed=2, dim=4)
        assert report["violations"] == 0


class TestForwardBackwardResidual:
    def test_zero_a_reduces_to_b(self):
        b = desk_ls_operator()
        g = fb_residual(SplittingSpec(a=zero_kind(), b=b, lam=1.0))
        y = SplitMix64(5).normal(b.dim)
        assert np.allclose(g(y), b(y), rtol=1e-13, atol=1e-14)

    def test_zero_b_reduces_to_yosida(self):
        # the zero map is co-coercive with every modulus; it declares one
        zero_b = OperatorSpec(dim=2, eval=lambda y: np.zeros_like(y),
                              comonotone_modulus=1.0)
        spec = SplittingSpec(a=l1_kind(1.0), b=zero_b, lam=0.8)
        g = fb_residual(spec)
        yos = yosida(l1_kind(1.0), 0.8, dim=2)
        y = np.array([2.0, -0.3])
        assert np.allclose(g(y), yos(y))

    def test_scalar_box_hand_value(self):
        b = OperatorSpec(dim=1, eval=lambda y: y - 0.5, lipschitz=1.0,
                         comonotone_modulus=1.0)
        spec = SplittingSpec(a=box_kind(0.0, 1.0), b=b, lam=1.0)
        g = fb_residual(spec)
        assert g(np.array([2.0]))[0] == pytest.approx(1.5)

    def test_refuses_set_valued_b(self):
        with pytest.raises(InputError):
            fb_residual(SplittingSpec(a=zero_kind(), b=l1_kind(1.0), lam=1.0))

    def test_out_of_window_lambda_flags(self):
        b = desk_ls_operator()
        spec = SplittingSpec(a=zero_kind(), b=b, lam=8.0 / b.lipschitz)
        with pytest.raises(InputError, match=r"^lam = .* must lie in \(0\.0, "):
            fb_residual(spec)

    def test_modulus_from_the_forward_operators_own(self):
        b = OperatorSpec(dim=1, eval=lambda y: 4.0 * y, lipschitz=4.0,
                         comonotone_modulus=0.25)
        g = fb_residual(SplittingSpec(a=l1_kind(1.0), b=b, lam=0.5))
        assert g.comonotone_modulus == 0.5 * (4.0 - 0.5 * 4.0) / 4.0
        assert g.lipschitz == 1.0 / g.comonotone_modulus

    def test_matches_the_forward_backward_formula_bitwise(self):
        b = desk_ls_operator()
        lam = default_lambda(b.lipschitz)
        g = fb_residual(SplittingSpec(a=l1_kind(0.1), b=b, lam=lam))
        res = l1_kind(0.1).with_lambda(lam)
        rng = SplitMix64(19)
        for _ in range(200):
            y = rng.uniform_symmetric(b.dim)
            expect = (y - resolvent_apply(res, y - lam * b(y))) / lam
            assert np.array_equal(g(y), expect)

    def test_transported_cocoercivity_inequality_sampled(self):
        # <Gx-Gy, x-y+lam(Bx-By)> >= lam|Gx-Gy|^2 + <Bx-By, x-y>
        b = desk_ls_operator()
        lam = default_lambda(b.lipschitz)
        g = fb_residual(SplittingSpec(a=l1_kind(0.1), b=b, lam=lam))
        rng = SplitMix64(17)
        for _ in range(1000):
            x = rng.uniform_symmetric(b.dim)
            y = rng.uniform_symmetric(b.dim)
            dg = g(x) - g(y)
            db = b(x) - b(y)
            lhs = float(dg @ (x - y + lam * db))
            rhs = lam * float(dg @ dg) + float(db @ (x - y))
            assert lhs >= rhs - 1e-10

    def test_modulus_sampled(self):
        b = desk_ls_operator()
        lam = default_lambda(b.lipschitz)
        g = fb_residual(SplittingSpec(a=l1_kind(0.1), b=b, lam=lam))
        report = cocoercivity_report(g, g.comonotone_modulus, 1000, seed=23, dim=b.dim)
        assert report["violations"] == 0

    def test_zero_at_solution(self):
        # solve 0 in A y + B y with A = l1 weight w, B y = y - t:
        # y* = t - w for t > w (subgradient is +1 there)
        b = OperatorSpec(dim=1, eval=lambda y: y - 3.0, lipschitz=1.0,
                         comonotone_modulus=1.0)
        spec = SplittingSpec(a=l1_kind(1.0), b=b, lam=1.0)
        g = fb_residual(spec)
        assert abs(g(np.array([2.0]))[0]) <= 1e-8


class TestThreeOperatorResidual:
    def test_zero_b_reduces_to_yosida(self):
        spec = SplittingSpec(a=l1_kind(1.0), b=zero_kind(), lam=1.0)
        g = tos_residual(spec)
        yos = yosida(l1_kind(1.0), 1.0, dim=2)
        u = np.array([3.0, -0.2])
        assert np.allclose(g(u), yos(u))

    def test_change_of_variable_matches_fb(self):
        # with C absent and single-valued affine B, E(y + lam*By) = G(y)
        rng = SplitMix64(31)
        m = rng.normal_matrix(4, 4)
        m = 0.5 * (m @ m.T) + 0.5 * np.eye(4)
        b_single = OperatorSpec(dim=4, eval=lambda y: m @ y,
                                lipschitz=np.linalg.norm(m, 2),
                                comonotone_modulus=1.0 / np.linalg.norm(m, 2))
        lam = 0.4
        fb = fb_residual(SplittingSpec(a=l1_kind(0.2), b=b_single, lam=lam))
        tos = tos_residual(SplittingSpec(a=l1_kind(0.2), b=affine_kind(m), lam=lam))
        for _ in range(100):
            y = rng.uniform_symmetric(4, 2.0)
            u = y + lam * (m @ y)
            dev = np.linalg.norm(tos(u) - fb(y))
            assert dev <= 1e-10 * (1.0 + np.linalg.norm(fb(y)))

    def test_least_squares_b_matches_fb_and_gives_dim(self):
        # B = P^T (P y - b) forward in fb, through its resolvent in tos
        rng = SplitMix64(32)
        p_mat = unit_columns(rng.normal_matrix(5, 8))
        b = rng.normal(5)
        b_op = least_squares_operator(p_mat, b)
        lam = default_lambda(b_op.lipschitz)
        fb = fb_residual(SplittingSpec(a=l1_kind(0.2), b=b_op, lam=lam))
        tos = tos_residual(SplittingSpec(
            a=l1_kind(0.2), b=least_squares_kind(p_mat, b), lam=lam))
        assert tos.dim == 8
        for _ in range(50):
            y = rng.uniform_symmetric(8, 2.0)
            dev = np.linalg.norm(tos(y + lam * b_op(y)) - fb(y))
            assert dev <= 1e-10 * (1.0 + np.linalg.norm(fb(y)))

    def test_composition_matches_step_by_step_oracle(self):
        c_op = OperatorSpec(dim=3, eval=lambda z: 0.1 * z, lipschitz=0.1,
                            comonotone_modulus=10.0)
        spec = SplittingSpec(a=l1_kind(1.0), b=affine_kind(np.eye(3)),
                             lam=1.0, c=c_op)
        g = tos_residual(spec)
        u = np.array([1.5, -2.5, 0.25])
        # oracle: apply the three maps independently
        z = resolvent_apply(affine_kind(np.eye(3)).with_lambda(1.0), u)
        w = resolvent_apply(l1_kind(1.0).with_lambda(1.0), 2.0 * z - u - 0.1 * z)
        assert np.allclose(g(u), z - w)

    def test_modulus_sampled_with_c(self):
        c_op = desk_ls_operator(seed=41)
        lam = default_lambda(c_op.lipschitz)
        spec = SplittingSpec(a=l1_kind(0.1), b=box_kind(-1.0, 1.0), lam=lam,
                             c=c_op)
        g = tos_residual(spec)
        report = cocoercivity_report(g, g.comonotone_modulus, 1000, seed=3,
                                     dim=c_op.dim)
        assert report["violations"] == 0

    def test_c_out_of_its_declared_window_is_refused(self):
        # C = 100 I is 0.01-co-coercive: lam = 1 is outside (0, 0.04)
        c_op = OperatorSpec(dim=2, eval=lambda z: 100.0 * z, lipschitz=100.0,
                            comonotone_modulus=0.01)
        spec = SplittingSpec(a=l1_kind(0.1), b=box_kind(-1.0, 1.0), lam=1.0,
                             c=c_op)
        with pytest.raises(InputError,
                           match=r"^lam = 1\.0 must lie in \(0\.0, 0\.04\)$"):
            tos_residual(spec)
        assert tos_residual(replace(spec, lam=0.02)).comonotone_modulus == \
            0.02 * (4.0 - 0.02 * 100.0) / 4.0

    def test_without_c_the_modulus_is_lam(self):
        g = tos_residual(SplittingSpec(a=l1_kind(1.0), b=box_kind(-1.0, 1.0),
                                       lam=0.7))
        assert g.comonotone_modulus == 0.7

    def test_zero_at_shifted_solution(self):
        # B y = y - 3 single valued, A = l1(1): y* = 2, anchor u* = y* + lam*B y*
        m = np.eye(1)
        shift = np.array([-3.0])
        lam = 1.0
        tos = tos_residual(SplittingSpec(a=l1_kind(1.0),
                                         b=affine_kind(m, shift), lam=lam))
        u_star = np.array([2.0 + lam * (2.0 - 3.0)])
        assert abs(tos(u_star)[0]) <= 1e-8


@pytest.mark.parametrize("modulus", [None, 0.0, -0.5, float("nan"),
                                     float("inf")])
@pytest.mark.parametrize("build", [
    lambda op: fb_residual(SplittingSpec(a=l1_kind(0.1), b=op, lam=0.5)),
    lambda op: tos_residual(SplittingSpec(a=l1_kind(0.1), b=zero_kind(),
                                          lam=0.5, c=op)),
], ids=["fb", "tos"])
def test_forward_part_without_a_positive_modulus_is_refused(build, modulus):
    # monotone (0), co-monotone (-0.5), no claim, NaN or 1/L = 0: no
    # window exists
    op = OperatorSpec(dim=2, eval=lambda y: y.copy(), lipschitz=1.0,
                      comonotone_modulus=modulus)
    with pytest.raises(InputError,
                       match=r"^forward rho = .* must lie in \(0\.0, inf\)$"):
        build(op)


NAN, INF = float("nan"), float("inf")
#: each scalar a constructor needs positive and finite
SCALAR_BUILDERS = {
    "with_lambda": lambda v: l1_kind(0.1).with_lambda(v),
    "l1_weight": lambda v: l1_kind(v),
    "splitting_lam": lambda v: SplittingSpec(a=l1_kind(0.1), b=zero_kind(),
                                             lam=v),
    "default_lambda": lambda v: default_lambda(v),
    "yosida": lambda v: yosida(l1_kind(0.1), v, dim=2),
    "huber_lam": lambda v: huber_saddle_operator(np.eye(2), v, 1.0, 0.05),
    "huber_rho_w": lambda v: huber_saddle_operator(np.eye(2), 1.0, v, 0.05),
    "huber_eps": lambda v: huber_saddle_operator(np.eye(2), 1.0, 1.0, v),
    "spectral_norm_tol": lambda v: spectral_norm(np.eye(2), tol=v),
}


@pytest.mark.parametrize("value", [NAN, INF, -INF, 0.0, -1.0, None])
@pytest.mark.parametrize("name", sorted(SCALAR_BUILDERS))
def test_constructors_refuse_a_scalar_that_is_not_positive_and_finite(
        name, value):
    with pytest.raises(InputError, match=r" must lie in \(0\.0, inf\)$"):
        SCALAR_BUILDERS[name](value)
    SCALAR_BUILDERS[name](0.5)  # control: a valid value builds


@pytest.mark.parametrize("lo,hi", [(1.0, -1.0), (NAN, 1.0), (0.0, NAN),
                                   (None, 1.0), (0.0, None)])
def test_box_refuses_lo_above_hi_or_nan(lo, hi):
    with pytest.raises(InputError, match=r"^(lo|hi) = .* must lie in \[-inf, "):
        box_kind(lo, hi)
    box_kind(-INF, INF)  # control: the box may be unbounded


class TestCocoercivityReport:
    def test_identity_with_true_modulus(self):
        report = cocoercivity_report(identity_operator(2), 1.0, 100, seed=0)
        assert report["violations"] == 0

    def test_identity_with_inflated_modulus(self):
        report = cocoercivity_report(identity_operator(2), 2.0, 100, seed=0)
        assert report["violations"] > 0
        assert report["worst_margin"] < 0.0

    def test_requires_pairs(self):
        with pytest.raises(InputError):
            cocoercivity_report(identity_operator(1), 1.0, 0)

    def test_declared_lipschitz_constant_is_checked(self):
        # control: the identity has L = 1, and L = 0.5 fails every pair
        op = identity_operator(2)
        assert cocoercivity_report(op, 1.0, 100, seed=0)["lipschitz"] == 0
        report = cocoercivity_report(replace(op, lipschitz=0.5), 1.0, 100,
                                     seed=0)
        assert report["lipschitz"] == 100
        assert report["violations"] == 0
        no_claim = replace(op, lipschitz=None)
        assert cocoercivity_report(no_claim, 1.0, 50, seed=0)["lipschitz"] == 0

    def test_nan_values_fail_every_pair(self):
        op = OperatorSpec(dim=2, eval=lambda y: np.full(2, np.nan),
                          lipschitz=1.0, comonotone_modulus=1.0)
        report = cocoercivity_report(op, 1.0, 50, seed=0)
        assert report["violations"] == 50
        assert report["lipschitz"] == 50
        assert np.isnan(report["worst_margin"])

    def test_one_nan_pair_makes_the_worst_margin_nan(self):
        calls = [0]

        def eval_(y):
            calls[0] += 1
            return np.full_like(y, np.nan) if calls[0] == 7 else y.copy()

        op = OperatorSpec(dim=2, eval=eval_, lipschitz=1.0)
        report = cocoercivity_report(op, 1.0, 20, seed=0)
        assert report["violations"] == 1 and report["lipschitz"] == 1
        assert np.isnan(report["worst_margin"])

    @pytest.mark.parametrize("modulus", [None, np.nan])
    def test_modulus_must_be_a_number(self, modulus):
        with pytest.raises(InputError, match="modulus"):
            cocoercivity_report(identity_operator(2), modulus, 10)

    def test_declared_lipschitz_constant_must_be_a_number(self):
        op = replace(identity_operator(2), lipschitz=np.nan)
        with pytest.raises(InputError, match="Lipschitz"):
            cocoercivity_report(op, 1.0, 10)
