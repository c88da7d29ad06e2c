"""Operator and resolvent abstractions plus the concrete operator catalog.

An :class:`OperatorSpec` is a single-valued map ``y -> Gy`` with declared
regularity metadata: a Lipschitz constant and one co-monotonicity
modulus. Metadata is declarative: nothing is inferred at construction.
The one sampled check of both inequalities is
:func:`anchored.residuals.cocoercivity_report`, a separate verification
call, so that schemes never pay the sampling cost.

Specs are immutable after construction and safe for concurrent
read-only evaluation.
"""

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericError
from .rng import SplitMix64


@dataclass(frozen=True)
class OperatorSpec:
    """A map G with its declared regularity.

    ``comonotone_modulus`` is the rho for which G declares itself
    rho-co-monotone, <Gx - Gy, x - y> >= rho |Gx - Gy|^2: 1/L for a
    1/L-co-coercive G, 0 for a monotone one, negative for a co-monotone
    one, and None for no claim. One number orders the three classes.
    """

    dim: Optional[int]
    eval: Callable[[np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None
    comonotone_modulus: Optional[float] = None

    def __call__(self, y):
        return self.eval(np.asarray(y, dtype=np.float64))


@dataclass(frozen=True)
class ResolventSpec:
    """Resolvent (I + lam*A)^-1 of a maximally monotone A.

    ``kind`` selects A: "zero", "l1" (weight * subdifferential of the l1
    norm), "box" (normal cone of [lo, hi]), "affine" (A = My + c), or
    "least_squares" (A y = P^T (P y - b), with P in ``matrix`` and b in
    ``shift``). For the affine kind the first :func:`resolvent_apply`
    inverts I + lam*M and caches it in ``inverse``, so that each later
    application is one matrix-vector product. For the least-squares kind,
    with P of shape (m, n), the cache is the m x m (I + lam*P P^T)^-1,
    and each application is three matrix-vector products with P (the
    Woodbury identity); no n x n matrix is formed. The cache is not a
    constructor argument, and ``replace()`` drops it.
    """

    kind: str
    lam: float = 1.0
    weight: float = 1.0
    lo: float = 0.0
    hi: float = 1.0
    matrix: Optional[np.ndarray] = None
    shift: Optional[np.ndarray] = None
    inverse: Optional[np.ndarray] = field(init=False, default=None,
                                          repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.lam < np.inf and 0.0 < self.weight < np.inf
                and self.lo <= self.hi):  # so that a NaN fails
            raise InputError("a resolvent needs lam and weight positive and "
                             "finite, and lo <= hi")

    def with_lambda(self, lam):
        return replace(self, lam=float(lam))


def _affine_inverse(matrix, lam):
    """(I + lam*M)^-1; a singular system is a numeric error."""
    try:
        a = lam * matrix
        a.flat[::matrix.shape[0] + 1] += 1.0
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular resolvent system: {exc}") from exc


def zero_kind():
    return ResolventSpec("zero")


def l1_kind(weight=1.0):
    return ResolventSpec("l1", weight=float(weight))


def box_kind(lo, hi):
    return ResolventSpec("box", lo=float(lo), hi=float(hi))


def affine_kind(matrix, shift=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError("affine resolvent needs a square matrix")
    if shift is None:
        shift = np.zeros(matrix.shape[0])
    return ResolventSpec("affine", matrix=matrix, shift=np.asarray(shift, dtype=np.float64))


def _least_squares_data(p_mat, b):
    p_mat = np.asarray(p_mat, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if p_mat.ndim != 2:
        raise InputError("P must be a matrix")
    if b.shape != (p_mat.shape[0],):
        raise InputError("P and b have mismatched dimensions")
    return p_mat, b


def least_squares_kind(p_mat, b):
    """A y = P^T (P y - b), the gradient of |P y - b|^2 / 2; y has P's columns."""
    p_mat, b = _least_squares_data(p_mat, b)
    return ResolventSpec("least_squares", matrix=p_mat, shift=b)


def resolvent_apply(res: ResolventSpec, y):
    """Evaluate J_{lam A} y for the resolvent kinds of the catalog."""
    y = np.asarray(y, dtype=np.float64)
    if res.kind == "zero":
        return y.copy()
    if res.kind == "l1":
        t = res.lam * res.weight
        return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)
    if res.kind == "box":
        return np.clip(y, res.lo, res.hi)
    if res.kind == "affine":
        if res.matrix.shape[0] != y.shape[0]:
            raise InputError("dimension mismatch in affine resolvent")
        if res.inverse is None:
            object.__setattr__(res, "inverse",
                               _affine_inverse(res.matrix, res.lam))
        return res.inverse @ (y - res.lam * res.shift)
    if res.kind == "least_squares":
        p_mat, lam = res.matrix, res.lam
        if p_mat.shape[1] != y.shape[0]:
            raise InputError("dimension mismatch in least-squares resolvent")
        if res.inverse is None:
            object.__setattr__(res, "inverse",
                               _affine_inverse(p_mat @ p_mat.T, lam))
        # (I + lam P^T P)^-1 v = v - lam P^T (I + lam P P^T)^-1 P v
        v = y + lam * (p_mat.T @ res.shift)
        return v - lam * (p_mat.T @ (res.inverse @ (p_mat @ v)))
    raise InputError(f"unknown resolvent kind {res.kind!r}")


@dataclass(frozen=True)
class ProblemInstance:
    operator: OperatorSpec
    solution: Optional[np.ndarray]
    meta: dict = field(default_factory=dict)


def spectral_norm(m, power=1, tol=1e-10, max_iter=10_000, seed=0):
    """sigma_max(m)**power by power iteration on (M^T M)**power.

    The start vector is a deterministic unit Gaussian in R^cols drawn
    from ``seed``. A sweep multiplies the iterate v by (M^T M)**power
    and stops once the Rayleigh quotient, sigma_max**(2 power) in the
    limit, has changed by at most ``tol`` relative in two sweeps in a
    row. A start in the null space of m restarts from ``seed + 1``.

    Each sweep is ``power`` products with the smaller Gram, formed once:
    M^T M when m is tall or square, M M^T when m is wide. A wide m
    carries s = M v in place of v, with the same iterates in exact
    arithmetic: (M^T M)^p v = M^T (M M^T)^(p-1) s, so the Rayleigh
    quotient is <s, (M M^T)^(p-1) s>, the new iterate's norm squared is
    <(M M^T)^(p-1) s, (M M^T)^p s>, and M maps the new v to
    (M M^T)^p s over that norm. For P of shape (m, n),
    ``spectral_norm(P, power=2)`` is therefore the iteration on
    (P^T P)^2 that ``spectral_norm(P.T @ P)`` runs, without the n x n
    matrix when m < n.

    Raises :class:`NumericError` carrying the last estimate if the
    Rayleigh quotient has not stabilized within ``max_iter`` sweeps.
    """
    m = np.asarray(m, dtype=np.float64)
    if not 0.0 < tol < np.inf:
        raise InputError("tol must be positive and finite")
    if not isinstance(power, Integral) or power < 1:
        raise InputError("power must be a positive integer")
    if not np.any(m):
        raise InputError("matrix must be nonzero")
    wide = m.shape[0] < m.shape[1]
    gram = m @ m.T if wide else m.T @ m

    def start(s):
        v = SplitMix64(s).normal(m.shape[1])
        v /= np.linalg.norm(v)
        return m @ v if wide else v

    x = start(seed)  # v, or s = M v when m is wide
    lam = 0.0
    stable = 0
    for _ in range(max_iter):
        t = x
        for _ in range(power - 1):
            t = gram @ t
        w = gram @ t
        if wide:
            lam_new, nw2 = float(x @ t), float(t @ w)
        else:
            lam_new, nw2 = float(x @ w), float(w @ w)
        if nw2 <= 0.0:
            # start vector fell in the null space; restart deterministically
            x = start(seed + 1)
            continue
        x = w / np.sqrt(nw2)
        if abs(lam_new - lam) <= tol * max(lam_new, np.finfo(float).tiny):
            stable += 1
            if stable >= 2:
                return float(np.sqrt(lam_new))
        else:
            stable = 0
        lam = lam_new
    raise NumericError("power iteration did not converge",
                       estimate=float(np.sqrt(max(lam, 0.0))))


def least_squares_operator(p_mat, b, seed=0):
    """Normal-equation residual map G(y) = P^T (P y - b).

    G is 1/L-co-coercive with L = |P^T P| = sigma_max(P)**2, estimated
    by :func:`spectral_norm` at ``power=2``: the power iteration on
    (P^T P)^2, swept with the smaller of P^T P and P P^T.
    """
    p_mat, b = _least_squares_data(p_mat, b)
    p_t = p_mat.T
    lip = spectral_norm(p_mat, power=2, seed=seed)

    def apply(y):
        r = p_mat.dot(y)
        r -= b
        return p_t.dot(r)

    return OperatorSpec(dim=p_mat.shape[1], eval=apply, lipschitz=lip,
                        comonotone_modulus=1.0 / lip)


def huber_saddle_operator(k_mat, lam, rho_w, eps, k_norm=None, seed=0):
    """Saddle operator of the smoothed bilinear game with Huber penalties.

    For K of shape (m, n) the variable is y = (u, v) with u in R^n and
    v in R^m, and

        G(u, v) = (lam * h(u) + K^T v,  rho_w * h(v) - K u)

    where h clips componentwise to [-eps, eps]. G is monotone and
    Lipschitz with constant sqrt(2) * sqrt(max(lam^2, rho_w^2) + |K|^2);
    it is not co-coercive.

    An evaluation scales y by the weights w = (lam, ..., rho_w, ...) and
    clips w*y to [w*-eps, w*eps] in place. That has the bits of
    ``w * huber_gradient(y, eps)``, the reference definition of the
    Huber derivative in ``tests/test_kernels.py``: rounding is monotone
    and the weights are positive, so fl(w*clip(t)) = clip(fl(w*t))
    against the rounded bounds, for +-0, +-inf, NaN and an overflowing
    w*t alike. (Only if
    w*eps rounds to zero, below 5e-324, can the sign of a zero differ.)
    """
    k_mat = np.asarray(k_mat, dtype=np.float64)
    if not all(0.0 < v < np.inf for v in (lam, rho_w, eps)):
        raise InputError("lam, rho_w and eps must be positive and finite")
    m, n = k_mat.shape
    if k_norm is None:
        k_norm = spectral_norm(k_mat, seed=seed)
    lip = np.sqrt(2.0) * np.sqrt(max(lam * lam, rho_w * rho_w) + k_norm * k_norm)

    k_t = k_mat.T
    w = np.concatenate([np.full(n, float(lam)), np.full(m, float(rho_w))])
    lo, hi = w * -eps, w * eps

    def apply(y):
        out = w * y
        np.maximum(out, lo, out=out)
        np.minimum(out, hi, out=out)
        out[:n] += k_t.dot(y[n:])
        out[n:] -= k_mat.dot(y[:n])
        return out

    return OperatorSpec(dim=n + m, eval=apply, lipschitz=lip,
                        comonotone_modulus=0.0)


def bilinear_saddle_operator(k_mat, k_norm=None, seed=0):
    """Skew saddle operator G(u, v) = (K^T v, -K u).

    Monotone with zero co-monotonicity modulus, hence rho-co-monotone
    for every rho <= 0; Lipschitz with constant |K|.
    """
    k_mat = np.asarray(k_mat, dtype=np.float64)
    m, n = k_mat.shape
    if k_norm is None:
        k_norm = spectral_norm(k_mat, seed=seed)

    k_t = k_mat.T

    def apply(y):
        out = np.empty(n + m)
        np.dot(k_t, y[n:], out=out[:n])
        lower = out[n:]
        np.dot(k_mat, y[:n], out=lower)
        np.negative(lower, out=lower)
        return out

    return OperatorSpec(dim=n + m, eval=apply, lipschitz=k_norm,
                        comonotone_modulus=0.0)


def from_nonexpansive(t_map, dim):
    """Wrap a nonexpansive map T as the residual G = I - T.

    G is 1/2-co-coercive and 2-Lipschitz whenever T is nonexpansive;
    violations surface in the sampled check, not here.
    """
    def apply(y):
        return y - np.asarray(t_map(y), dtype=np.float64)

    return OperatorSpec(dim=dim, eval=apply, lipschitz=2.0,
                        comonotone_modulus=0.5)


def identity_operator(dim=1):
    """G(y) = y; 1-co-coercive with L = 1. The smallest test fixture."""
    return OperatorSpec(dim=dim, eval=lambda y: y.copy(), lipschitz=1.0,
                        comonotone_modulus=1.0)


def counted(op: OperatorSpec):
    """Wrap ``op`` so every evaluation bumps a counter.

    Returns ``(wrapped, counter)`` where ``counter.count`` is the number
    of evaluations so far. Used to assert per-step evaluation budgets.
    """
    class _Counter:
        count = 0

    counter = _Counter()

    def apply(y):
        counter.count += 1
        return op.eval(y)

    return replace(op, eval=apply), counter
