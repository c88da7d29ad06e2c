"""The catalog operators and ``schemes._norm`` against plain numpy
reference expressions, compared byte for byte (``tobytes``), NaN payloads
and signed zeros included; the instances' L against the power iteration
on M^T M, swept with m itself."""

import numpy as np
import pytest

from anchored import instances, operators
from anchored.instances import (
    DESK_BILINEAR,
    DESK_HUBER,
    DESK_LS,
    PAPER_HUBER,
    PAPER_LS,
    unit_columns,
)
from anchored.operators import (
    bilinear_saddle_operator,
    huber_saddle_operator,
    least_squares_operator,
)
from anchored.rng import SplitMix64
from anchored.schemes import _norm

EPS = 0.05


def huber_gradient(t, eps):
    """Derivative of the Huber loss: t inside (-eps, eps), else eps*sign(t).

    The same bits as ``np.clip(t, -eps, eps)`` (NaN, +-inf and -0.0
    included).
    """
    return np.minimum(np.maximum(t, -eps), eps)


def huber_reference(k_mat, lam, rho_w, eps, y):
    n = k_mat.shape[1]
    u, v = y[:n], y[n:]
    gu = lam * huber_gradient(u, eps) + k_mat.T @ v
    gv = rho_w * huber_gradient(v, eps) - k_mat @ u
    return np.concatenate([gu, gv])


def bilinear_reference(k_mat, y):
    n = k_mat.shape[1]
    u, v = y[:n], y[n:]
    return np.concatenate([k_mat.T @ v, -(k_mat @ u)])


def least_squares_reference(p_mat, b, y):
    return p_mat.T @ (p_mat @ y - b)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def matrix(m, n, seed):
    return unit_columns(SplitMix64(seed).normal_matrix(m, n))


def specials(eps):
    """Values at and around the clip points, signed zeros, inf, NaN, huge."""
    up, down = np.nextafter(eps, np.inf), np.nextafter(eps, -np.inf)
    vals = [0.0, -0.0, eps, -eps, up, -up, down, -down, np.inf, -np.inf,
            np.nan, -np.nan, 1e300, -1e300, 2.0 * eps, 0.5 * eps]
    return np.array(vals)


def test_huber_gradient_inner_branch():
    assert huber_gradient(np.array([0.01]), 0.05)[0] == 0.01


def test_huber_gradient_boundary_assigns_eps_sign():
    assert huber_gradient(np.array([0.05, -0.05]), 0.05).tolist() \
        == [0.05, -0.05]


def test_huber_gradient_has_the_bits_of_clip():
    t = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -0.07,
                  0.049999999999999996, 1e300])
    t = np.concatenate([t, SplitMix64(3).normal(64) * 0.1])
    got = huber_gradient(t, 0.05)
    assert got.view(np.uint64).tolist() \
        == np.clip(t, -0.05, 0.05).view(np.uint64).tolist()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lam,rho_w", [(3.0, 0.5), (0.25, 1e10), (1e10, 2.0)])
@pytest.mark.parametrize("half", ["u", "v"])
def test_huber_at_the_clip_points(lam, rho_w, half):
    # the 16 special values fill the u half (K is 9x16) or the v half
    # (K is 16x9) and the other half is finite, so the clipped half of
    # the output is not swamped by the inf/NaN of the products
    m, n = (9, 16) if half == "u" else (16, 9)
    k_mat = matrix(m, n, seed=3)
    op = huber_saddle_operator(k_mat, lam, rho_w, EPS, k_norm=1.0)
    rng = SplitMix64(4)
    for _ in range(20):
        y = rng.uniform_symmetric(n + m, 0.2)
        shuffled = specials(EPS)[rng.uniform_symmetric(16, 1.0).argsort()]
        if half == "u":
            y[:n] = shuffled
        else:
            y[n:] = shuffled
        assert same_bytes(op.eval(y), huber_reference(k_mat, lam, rho_w,
                                                      EPS, y))


@pytest.mark.parametrize("shape", [DESK_HUBER, PAPER_HUBER, (5, 8)])
def test_huber_on_random_inputs(shape):
    m, n = shape
    k_mat = matrix(m, n, seed=7)
    lam, rho_w = 1.9, 2.3
    op = huber_saddle_operator(k_mat, lam, rho_w, EPS, k_norm=1.0)
    rng = SplitMix64(8)
    for scale in (0.01, 0.05, 0.1, 1.0, 1e3):
        y = rng.uniform_symmetric(n + m, scale)
        assert same_bytes(op.eval(y), huber_reference(k_mat, lam, rho_w,
                                                      EPS, y))


@pytest.mark.parametrize("shape", [DESK_BILINEAR, PAPER_HUBER, (5, 8)])
def test_bilinear_on_random_inputs(shape):
    m, n = shape
    k_mat = matrix(m, n, seed=9)
    op = bilinear_saddle_operator(k_mat, k_norm=1.0)
    rng = SplitMix64(10)
    for scale in (1e-3, 1.0, 1e3):
        y = rng.uniform_symmetric(n + m, scale)
        assert same_bytes(op.eval(y), bilinear_reference(k_mat, y))


@pytest.mark.parametrize("shape", [DESK_LS, PAPER_LS, (3, 5)])
def test_least_squares_on_random_inputs(shape, monkeypatch):
    # the Lipschitz estimate plays no part here; skip its power iteration
    monkeypatch.setattr(operators, "spectral_norm", lambda *a, **kw: 1.0)
    rows, cols = shape
    p_mat = matrix(rows, cols, seed=11)
    rng = SplitMix64(12)
    b = rng.normal(rows)
    op = least_squares_operator(p_mat, b)
    for scale in (1e-3, 1.0, 1e3):
        y = rng.uniform_symmetric(cols, scale)
        assert same_bytes(op.eval(y), least_squares_reference(p_mat, b, y))


def test_norm_is_linalg_norm():
    rng = SplitMix64(13)
    for n in range(1, 2001):
        v = rng.normal(n) * (10.0 ** (n % 7 - 3))
        assert same_bytes(np.float64(_norm(v)), np.linalg.norm(v))


def power_iteration_reference(m, seed, tol=1e-10):
    """sigma_max(m) by power iteration on M^T M, two products with m a sweep.

    The sweep ``spectral_norm`` ran before it swept the smaller Gram,
    kept as the reference for its iterates and its stopping sweep.
    """
    v = SplitMix64(seed).normal(m.shape[1])
    v /= np.linalg.norm(v)
    lam, stable = 0.0, 0
    for _ in range(10_000):
        w = m.T @ (m @ v)
        lam_new = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam_new - lam) <= tol * lam_new:
            stable += 1
            if stable >= 2:
                return float(np.sqrt(lam_new))
        else:
            stable = 0
        lam = lam_new
    raise AssertionError("the reference sweep did not converge")


def instance_norms(inst):
    """(L from the instance, L from the reference sweep)."""
    seed = inst.meta["seed"]
    if inst.meta["generator"] == "least_squares":
        p_mat = inst.meta["P"]
        return (inst.operator.lipschitz,
                power_iteration_reference(p_mat.T @ p_mat, seed))
    k_norm = inst.meta.get("k_norm", inst.operator.lipschitz)
    return k_norm, power_iteration_reference(inst.meta["K"], seed)


@pytest.mark.parametrize("build", [instances.desk_least_squares,
                                   instances.desk_huber,
                                   instances.desk_bilinear])
def test_desk_norms_match_the_reference_sweep(build):
    # a different stopping sweep would move L by about 1e-10
    for seed in range(64):
        got, want = instance_norms(build(seed))
        assert abs(got - want) <= 1e-15 * want, seed


@pytest.mark.parametrize("build", [instances.paper_least_squares,
                                   instances.paper_huber])
def test_paper_norms_match_the_reference_sweep(build):
    got, want = instance_norms(build(7))
    assert abs(got - want) <= 1e-15 * want
