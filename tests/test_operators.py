from dataclasses import replace

import numpy as np
import pytest

from anchored import operators
from anchored.errors import InputError, NumericError
from anchored.operators import (
    OperatorSpec,
    ResolventSpec,
    affine_kind,
    bilinear_saddle_operator,
    box_kind,
    counted,
    from_nonexpansive,
    huber_saddle_operator,
    identity_operator,
    l1_kind,
    least_squares_kind,
    least_squares_operator,
    resolvent_apply,
    spectral_norm,
    zero_kind,
)
from anchored.residuals import cocoercivity_report
from anchored.rng import SplitMix64


def unit_columns(m):
    return m / np.linalg.norm(m, axis=0)


def jacobi_sigma_max(a, sweeps=100):
    """One-sided Jacobi SVD oracle: rotate column pairs until orthogonal."""
    a = np.array(a, dtype=float)
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci, cj = a[:, i].copy(), a[:, j].copy()
                alpha, beta, g = ci @ ci, cj @ cj, ci @ cj
                if alpha * beta > 0:
                    off = max(off, abs(g) / np.sqrt(alpha * beta))
                if g == 0.0:
                    continue
                zeta = (beta - alpha) / (2.0 * g)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                a[:, i] = c * ci - s * cj
                a[:, j] = s * ci + c * cj
        if off < 1e-15:
            break
    return float(np.sqrt(np.max(np.sum(a * a, axis=0))))


def oracle(m):
    """jacobi_sigma_max on the tall one of m and m^T, which share it."""
    return jacobi_sigma_max(m if m.shape[0] >= m.shape[1] else m.T)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)

    def test_gaussian_matches_jacobi_oracle(self):
        m = SplitMix64(20).normal_matrix(20, 10)
        got = spectral_norm(m)
        assert got == pytest.approx(jacobi_sigma_max(m), rel=1e-8)

    def test_rejects_zero_matrix(self):
        with pytest.raises(InputError):
            spectral_norm(np.zeros((2, 2)))

    def test_nonconvergence_carries_estimate(self):
        m = np.diag([2.0, 2.0 - 1e-13])
        with pytest.raises(NumericError) as err:
            spectral_norm(m, tol=1e-16, max_iter=3)
        assert err.value.estimate is not None

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("shape", [(20, 10), (10, 20), (12, 12)],
                             ids=["tall", "wide", "square"])
    def test_power_of_the_jacobi_oracle(self, shape, power):
        # a tall m sweeps M^T M, a wide one M M^T
        m = SplitMix64(21).normal_matrix(*shape)
        got = spectral_norm(m, power=power)
        assert got == pytest.approx(oracle(m) ** power, rel=1e-8)

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("shape", [(6, 3), (2, 5)], ids=["tall", "wide"])
    def test_start_in_the_null_space_restarts(self, monkeypatch, shape,
                                              power):
        # the stream of seed 0 starts at e_0, which m's zero first
        # column sends to 0: the first sweep restarts from seed 1
        seeds = []

        class NullStart:
            def __init__(self, seed):
                seeds.append(seed)
                self.seed = seed

            def normal(self, n):
                if self.seed == 0:
                    return np.eye(n)[0]
                return SplitMix64(self.seed).normal(n)

        m = SplitMix64(22).normal_matrix(*shape)
        m[:, 0] = 0.0
        monkeypatch.setattr(operators, "SplitMix64", NullStart)
        got = spectral_norm(m, power=power, seed=0)
        assert seeds == [0, 1]
        assert got == pytest.approx(oracle(m) ** power, rel=1e-8)

    @pytest.mark.parametrize("power", [0, -1, 1.5, 2.0])
    def test_rejects_a_power_that_is_no_positive_integer(self, power):
        with pytest.raises(InputError):
            spectral_norm(np.eye(2), power=power)


class TestLeastSquares:
    def test_identity_design(self):
        op = least_squares_operator(np.eye(2), np.zeros(2))
        assert np.allclose(op(np.array([1.0, 1.0])), [1.0, 1.0])
        assert op.lipschitz == pytest.approx(1.0, rel=1e-10)

    def test_exact_solution_gives_zero(self):
        op = least_squares_operator(np.eye(2), np.array([2.0, 3.0]))
        assert np.allclose(op(np.array([2.0, 3.0])), 0.0)

    def test_matches_explicit_matmul_oracle(self):
        p = unit_columns(SplitMix64(11).normal_matrix(3, 2))
        b = np.array([0.3, -0.1, 0.7])
        y = np.array([1.0, -1.0])
        # oracle: index-by-index dense multiplication
        py = np.array([sum(p[i, j] * y[j] for j in range(2)) for i in range(3)])
        expect = np.array([sum(p[i, j] * (py[i] - b[i]) for i in range(3)) for j in range(2)])
        got = least_squares_operator(p, b)(y)
        assert np.allclose(got, expect, rtol=1e-14, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            least_squares_operator(np.eye(2), np.zeros(3))

    def test_sampled_cocoercivity_modulus(self):
        p = unit_columns(SplitMix64(3).normal_matrix(12, 6))
        op = least_squares_operator(p, np.zeros(12))
        report = cocoercivity_report(op, op.comonotone_modulus, 1000, seed=9)
        assert report["violations"] == 0
        assert report["lipschitz"] == 0


class TestHuberSaddle:
    def test_zero_maps_to_zero_exactly(self):
        op = huber_saddle_operator(SplitMix64(1).normal_matrix(4, 3), 1.3, 0.8, 0.05)
        g = op(np.zeros(7))
        assert np.all(g == 0.0)

    def test_scalar_hand_evaluation(self):
        op = huber_saddle_operator(np.array([[1.0]]), 1.0, 1.0, 0.05)
        g = op(np.array([1.0, 1.0]))
        assert g == pytest.approx([1.05, -0.95])

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InputError):
            huber_saddle_operator(np.eye(2), 1.0, 1.0, 0.0)

    def test_sampled_lipschitz_and_monotone(self):
        k = unit_columns(SplitMix64(4).normal_matrix(8, 6))
        op = huber_saddle_operator(k, 0.9, 1.1, 0.05)
        report = cocoercivity_report(op, op.comonotone_modulus, 1000, seed=2)
        assert report["lipschitz"] == 0
        assert report["violations"] == 0


class TestResolvents:
    def test_zero_kind_is_identity(self):
        y = np.array([0.4, -2.0])
        assert np.array_equal(resolvent_apply(zero_kind().with_lambda(2.0), y), y)

    def test_soft_threshold(self):
        got = resolvent_apply(l1_kind(1.0).with_lambda(1.0), np.array([3.0]))
        assert got[0] == 2.0
        # subgradient inclusion: (y - x) / lam must lie in weight * sign(x)
        assert (3.0 - got[0]) / 1.0 == pytest.approx(np.sign(got[0]))

    def test_box_projection(self):
        got = resolvent_apply(box_kind(0.0, 1.0).with_lambda(1.0),
                              np.array([-0.5, 0.3, 2.0]))
        assert got.tolist() == [0.0, 0.3, 1.0]

    def test_affine_inclusion_holds(self):
        rng = SplitMix64(6)
        m = rng.normal_matrix(4, 4)
        m = m @ m.T + np.eye(4)  # monotone affine map
        c = rng.normal(4)
        res = affine_kind(m, c).with_lambda(0.7)
        y = rng.normal(4)
        x = resolvent_apply(res, y)
        lhs = x + 0.7 * (m @ x + c)
        assert np.linalg.norm(lhs - y) <= 1e-10 * (1.0 + np.linalg.norm(y))

    def test_singular_affine_raises(self):
        m = np.array([[-1.0, 0.0], [0.0, 1.0]])  # I + lam*M singular at lam=1
        with pytest.raises(NumericError):
            resolvent_apply(affine_kind(m).with_lambda(1.0), np.ones(2))

    def test_affine_inverse_cached_once_and_dropped_by_replace(self):
        m = np.array([[1.0, 0.3], [0.3, 2.0]])
        res = affine_kind(m).with_lambda(0.5)
        assert res.inverse is None
        resolvent_apply(res, np.ones(2))
        cached = res.inverse
        assert cached is not None
        resolvent_apply(res, np.zeros(2))
        assert res.inverse is cached
        assert replace(res, lam=2.0).inverse is None
        with pytest.raises(TypeError):
            ResolventSpec("affine", matrix=m, inverse=np.eye(2))

    def test_factored_affine_matches_dense_solve(self):
        rng = SplitMix64(10)
        a = rng.normal_matrix(60, 40)
        m = a.T @ a / 60.0 + 0.1 * rng.normal_matrix(40, 40)
        c = rng.normal(40)
        for lam in (0.05, 0.7, 3.0):
            res = affine_kind(m, c).with_lambda(lam)
            for _ in range(3):
                y = rng.normal(40)
                want = np.linalg.solve(np.eye(40) + lam * m, y - lam * c)
                got = resolvent_apply(res, y)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m,n", [(30, 50), (50, 30)], ids=["wide", "tall"])
    def test_least_squares_matches_dense_solve(self, m, n):
        # unit columns, as the instances have: the Woodbury form loses
        # about (1 + lam |P|^2) ulps, here at most ~21 (lam = 3, wide)
        rng = SplitMix64(12)
        p_mat = unit_columns(rng.normal_matrix(m, n))
        b = rng.normal(m)
        for lam in (0.05, 0.7, 3.0):
            res = least_squares_kind(p_mat, b).with_lambda(lam)
            for _ in range(3):
                u = rng.normal(n)
                want = np.linalg.solve(np.eye(n) + lam * p_mat.T @ p_mat,
                                       u + lam * p_mat.T @ b)
                got = resolvent_apply(res, u)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert res.inverse.shape == (m, m)

    def test_least_squares_inverse_dropped_by_with_lambda_and_replace(self):
        res = least_squares_kind(np.ones((3, 2)), np.ones(3)).with_lambda(0.5)
        resolvent_apply(res, np.ones(2))
        cached = res.inverse
        assert cached is not None
        resolvent_apply(res, np.zeros(2))
        assert res.inverse is cached
        assert res.with_lambda(2.0).inverse is None
        assert replace(res, lam=0.5).inverse is None

    def test_least_squares_dimension_mismatch(self):
        with pytest.raises(InputError):
            least_squares_kind(np.ones((3, 2)), np.ones(2))
        with pytest.raises(InputError):
            least_squares_kind(np.ones(3), np.ones(3))
        res = least_squares_kind(np.ones((3, 2)), np.ones(3))
        with pytest.raises(InputError):
            resolvent_apply(res, np.ones(3))

    def test_firm_nonexpansiveness_sampled(self):
        rng = SplitMix64(8)
        specs = [
            l1_kind(0.7).with_lambda(1.3),
            box_kind(-0.2, 0.4).with_lambda(2.0),
            affine_kind(np.array([[1.0, 0.3], [0.3, 2.0]])).with_lambda(0.5),
            least_squares_kind(np.array([[1.0, -0.4], [0.2, 0.9], [0.5, 0.3]]),
                               np.array([0.3, -1.0, 0.6])).with_lambda(1.5),
        ]
        for res in specs:
            for _ in range(200):
                u = rng.uniform_symmetric(2, 2.0)
                v = rng.uniform_symmetric(2, 2.0)
                ju = resolvent_apply(res, u)
                jv = resolvent_apply(res, v)
                d = ju - jv
                assert float(d @ (u - v)) >= float(d @ d) - 1e-10

    def test_bad_lambda_rejected(self):
        with pytest.raises(InputError):
            zero_kind().with_lambda(0.0)


class TestFromNonexpansive:
    def test_identity_map_gives_zero_operator(self):
        op = from_nonexpansive(lambda y: y, 3)
        assert np.all(op(np.array([1.0, -2.0, 0.5])) == 0.0)

    def test_reflection_gives_two_y(self):
        op = from_nonexpansive(lambda y: -y, 2)
        assert np.allclose(op(np.array([1.0, -3.0])), [2.0, -6.0])

    def test_rotation_sampled_cocoercivity(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        op = from_nonexpansive(lambda y: rot @ y, 2)
        report = cocoercivity_report(op, op.comonotone_modulus, 100, seed=5)
        assert report["violations"] == 0


class TestBilinearSaddle:
    def test_skew_and_zero_comonotone(self):
        k = unit_columns(SplitMix64(13).normal_matrix(5, 3))
        op = bilinear_saddle_operator(k)
        report = cocoercivity_report(op, op.comonotone_modulus, 1000, seed=1)
        assert report["violations"] == 0
        assert report["lipschitz"] == 0
        # skew structure: <Gy, y> = 0
        y = SplitMix64(14).normal(8)
        assert abs(float(op(y) @ y)) < 1e-12


class TestCountingWrapper:
    def test_counts_evaluations(self):
        op, counter = counted(identity_operator(2))
        y = np.ones(2)
        op(y)
        op(y)
        assert counter.count == 2


def test_modulus_too_large_is_detected():
    op = identity_operator(2)
    too_strong = OperatorSpec(dim=2, eval=op.eval, comonotone_modulus=2.0)
    report = cocoercivity_report(too_strong, too_strong.comonotone_modulus,
                                 100, seed=0)
    assert report["violations"] > 0
