"""Reproducible problem instances for runs, verification, and figures.

All randomness flows through :class:`~anchored.rng.SplitMix64`, so a
(generator, dims, seed) triple pins an instance bit-for-bit. Start
points are drawn from an offset stream, keeping instance data and
initial iterates independent but jointly reproducible.
"""

from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError
from .operators import (
    ProblemInstance,
    bilinear_saddle_operator,
    huber_saddle_operator,
    identity_operator,
    least_squares_operator,
    spectral_norm,
)
from .rng import SplitMix64

DESK_SEED = 7
#: verification defaults: desk scale keeps runtimes in seconds
DESK_LS = (200, 100)
DESK_HUBER = (200, 150)
DESK_BILINEAR = (150, 100)
PAPER_LS = (500, 1000)
PAPER_HUBER = (1000, 750)

HUBER_EPS = 0.05


def unit_columns(m):
    """Divide each column of ``m`` by its norm, in place, and return ``m``.

    The bits are those of ``m / norms``. Callers pass a fresh draw that
    nothing else holds, so an instance never keeps a second copy.
    """
    norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0.0):
        raise InputError("matrix has a zero column")
    m /= norms
    return m


def least_squares_solution(p_mat, b):
    """The minimum-norm least-squares solution of P y = b, from the smaller Gram.

    The Gram is the one :func:`~anchored.operators.spectral_norm` sweeps:
    y = P^T (P P^T)^-1 b when P is wide, y = (P^T P)^-1 P^T b when it is
    tall or square. One step of iterative refinement against P follows
    (seminormal equations; Bjorck 1996, Numerical Methods for Least
    Squares Problems): y += the same formula applied to r = b - P y.
    With it y is within a small multiple of cond(P) eps of the SVD
    solution, relative, as long as cond(P)^2 eps stays well below 1;
    without it the error grows as cond(P)^2 eps. A singular Gram (P
    without full rank in its shorter dimension) is an :class:`InputError`.
    """
    wide = p_mat.shape[0] < p_mat.shape[1]
    gram = p_mat @ p_mat.T if wide else p_mat.T @ p_mat

    def solve(r):
        if wide:
            return p_mat.T @ np.linalg.solve(gram, r)
        return np.linalg.solve(gram, p_mat.T @ r)

    try:
        y = solve(b)
        y += solve(b - p_mat @ y)
    except np.linalg.LinAlgError:
        raise InputError("least-squares design lacks full rank: its Gram "
                         "is singular") from None
    return y


def gen_least_squares(n, p, seed, noise_var=0.1):
    """Regression design with unit Gaussian columns and noisy targets.

    b = P y_nat + noise, noise ~ N(0, noise_var). The reference solution
    is the minimum-norm least-squares point, from
    :func:`least_squares_solution` (a direct solve, independent of any
    iterative scheme).
    """
    if n < 1 or p < 1:
        raise InputError("dimensions must be positive")
    if not noise_var >= 0:
        raise InputError("noise_var must be nonnegative")
    rng = SplitMix64(seed)
    p_mat = unit_columns(rng.normal_matrix(n, p))
    y_nat = rng.normal(p)
    b = p_mat @ y_nat
    if noise_var > 0:
        b = b + np.sqrt(noise_var) * rng.normal(n)
    op = least_squares_operator(p_mat, b, seed=seed)
    solution = least_squares_solution(p_mat, b)
    return ProblemInstance(operator=op, solution=solution,
                           meta={"generator": "least_squares", "seed": seed,
                                 "dims": (n, p), "noise_var": noise_var,
                                 "P": p_mat, "b": b})


def gen_minimax_huber(m, n, seed):
    """Smoothed bilinear game with Huber penalties on both players.

    The coupling matrix has unit Gaussian columns; both penalty weights
    equal its norm |K| = sigma_max(K) (``meta["k_norm"]``, from
    :func:`spectral_norm` sweeping the smaller of K^T K and K K^T) and
    the smoothing width is 0.05. The origin is a
    zero of the saddle operator (both penalty gradients vanish there
    and the bilinear terms are linear), so it serves as the reference
    solution.
    """
    if m < 1 or n < 1:
        raise InputError("dimensions must be positive")
    rng = SplitMix64(seed)
    k_mat = unit_columns(rng.normal_matrix(m, n))
    k_norm = spectral_norm(k_mat, seed=seed)
    op = huber_saddle_operator(k_mat, k_norm, k_norm, HUBER_EPS,
                               k_norm=k_norm, seed=seed)
    return ProblemInstance(operator=op, solution=np.zeros(n + m),
                           meta={"generator": "minimax_huber", "seed": seed,
                                 "dims": (m, n), "K": k_mat,
                                 "k_norm": k_norm})


def gen_bilinear(m, n, seed):
    """Pure bilinear saddle: skew, monotone, never co-coercive."""
    if m < 1 or n < 1:
        raise InputError("dimensions must be positive")
    rng = SplitMix64(seed)
    k_mat = unit_columns(rng.normal_matrix(m, n))
    op = bilinear_saddle_operator(k_mat, seed=seed)
    return ProblemInstance(operator=op, solution=np.zeros(n + m),
                           meta={"generator": "bilinear", "seed": seed,
                                 "dims": (m, n), "K": k_mat})


def gen_scalar_identity():
    """G(y) = y on the line; the worst-case witness instance."""
    return ProblemInstance(operator=identity_operator(1),
                           solution=np.zeros(1),
                           meta={"generator": "scalar_identity", "seed": 0,
                                 "dims": (1,)})


class Generator(NamedTuple):
    """A generator and the ``[instance]`` keys it reads, with defaults."""

    build: Callable  # build(**keys) -> ProblemInstance
    keys: dict


GENERATORS = {
    "least_squares": Generator(gen_least_squares, {
        "n": 200, "p": 100, "noise_var": 0.1, "seed": DESK_SEED}),
    "minimax_huber": Generator(gen_minimax_huber,
                               {"m": 200, "n": 150, "seed": DESK_SEED}),
    "bilinear": Generator(gen_bilinear,
                          {"m": 200, "n": 150, "seed": DESK_SEED}),
    "scalar_identity": Generator(gen_scalar_identity, {}),
}


def start_point(instance):
    """Deterministic initial iterate for an instance.

    The scalar witness starts at 1; everything else draws a standard
    Gaussian from the instance seed shifted by one, so instance data
    and start point come from distinct streams.
    """
    if instance.meta.get("generator") == "scalar_identity":
        return np.array([1.0])
    seed = instance.meta.get("seed", 0)
    return SplitMix64(seed + 1).normal(instance.operator.dim)


def desk_least_squares(seed=DESK_SEED):
    return gen_least_squares(*DESK_LS, seed=seed, noise_var=0.1)


def desk_huber(seed=DESK_SEED):
    return gen_minimax_huber(*DESK_HUBER, seed=seed)


def desk_bilinear(seed=DESK_SEED):
    return gen_bilinear(*DESK_BILINEAR, seed=seed)


def paper_least_squares(seed=DESK_SEED):
    return gen_least_squares(*PAPER_LS, seed=seed, noise_var=0.1)


def paper_huber(seed=DESK_SEED):
    return gen_minimax_huber(*PAPER_HUBER, seed=seed)
