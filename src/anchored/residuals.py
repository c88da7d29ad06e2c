"""Residual operators reducing monotone inclusions to a single equation.

Each builder returns an :class:`OperatorSpec` whose zero set coincides
with the solution set of the underlying inclusion, so the anchored
schemes apply unchanged. A residual's co-coercivity modulus is
lam (4 - lam L) / 4, with L = 1/rho read from the declared
``comonotone_modulus`` rho of its single-valued forward part. A
forward part that declares no positive rho, or a lam outside the window
(0, 4/L), is an :class:`InputError`: no residual is built without its
modulus. :func:`cocoercivity_report` is the package's one sampled check
of an operator's declared inequalities.
"""

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import MAX_ENTRIES, InputError, in_range
from .operators import OperatorSpec, ResolventSpec, resolvent_apply
from .rng import SplitMix64


@dataclass(frozen=True)
class SplittingSpec:
    """Data of the inclusion 0 in A y + B y + C y.

    ``a`` and set-valued ``b`` are resolvent kinds (their lam field is
    ignored; ``lam`` here is attached when the residual is built). The
    single-valued forward part (B for the two-operator residual, C for
    the three-operator one) declares its own co-coercivity as its
    ``comonotone_modulus``.
    """

    a: ResolventSpec
    b: Union[OperatorSpec, ResolventSpec, None]
    lam: float
    c: Optional[OperatorSpec] = None

    def __post_init__(self):
        in_range("lam", self.lam, 0.0, np.inf)


def default_lambda(l_const):
    """Midpoint 2/L of the admissible window, maximizing lam*(4-lam*L)/4."""
    return 2.0 / in_range("L", l_const, 0.0, np.inf)


def _modulus(lam, forward):
    """lam (4 - lam L) / 4, L = 1/rho of the forward part; lam without one.

    With no forward part (L = 0) the modulus follows from the firm
    nonexpansiveness of the two resolvents.
    """
    if forward is None:
        return lam
    rho = in_range("forward rho", forward.comonotone_modulus, 0.0, np.inf)
    l_const = 1.0 / rho
    in_range("lam", lam, 0.0, 4.0 / l_const)
    return lam * (4.0 - lam * l_const) / 4.0


def _kind_dim(res: ResolventSpec):
    if res.kind == "affine":
        return res.matrix.shape[0]
    if res.kind == "least_squares":
        return res.matrix.shape[1]
    return None


def yosida(a_kind: ResolventSpec, lam, dim=None) -> OperatorSpec:
    """Single-valued surrogate (y - J_{lam A} y) / lam; lam-co-coercive."""
    res = a_kind.with_lambda(lam)
    if dim is None:
        dim = _kind_dim(a_kind)

    def apply(y):
        return (y - resolvent_apply(res, y)) / lam

    return OperatorSpec(dim=dim, eval=apply, lipschitz=1.0 / lam,
                        comonotone_modulus=float(lam))


def fb_residual(spec: SplittingSpec) -> OperatorSpec:
    """Forward-backward residual (y - J_{lam A}(y - lam B y)) / lam.

    The three-operator residual with a zero set-valued part and B as its
    forward part. Requires a single-valued B; a set-valued kind must go
    through :func:`tos_residual` instead.
    """
    if not isinstance(spec.b, OperatorSpec):
        raise InputError("forward-backward residual needs a single-valued B")
    return tos_residual(replace(spec, b=None, c=spec.b))


def tos_residual(spec: SplittingSpec) -> OperatorSpec:
    """Three-operator residual (J_{lam B}u - J_{lam A}(2 J_{lam B}u - u - lam C J_{lam B}u)) / lam.

    Handles set-valued B (given as a resolvent kind) and an optional
    co-coercive C. With C absent the modulus is lam itself.
    """
    lam = spec.lam
    res_a = spec.a.with_lambda(lam)
    if isinstance(spec.b, OperatorSpec):
        raise InputError("single-valued B belongs to fb_residual; pass its "
                         "resolvent kind here")
    res_b = (spec.b if spec.b is not None else ResolventSpec("zero")).with_lambda(lam)
    c_op = spec.c
    modulus = _modulus(lam, c_op)

    def apply(u):
        z = resolvent_apply(res_b, u)
        inner = 2.0 * z - u
        if c_op is not None:
            inner = inner - lam * c_op(z)
        return (z - resolvent_apply(res_a, inner)) / lam

    dim = c_op.dim if c_op is not None else (
        _kind_dim(spec.a) or _kind_dim(res_b))
    return OperatorSpec(dim=dim, eval=apply, lipschitz=1.0 / modulus,
                        comonotone_modulus=modulus)


def cocoercivity_report(op, modulus, n_pairs, seed=0, dim=None):
    """Sampled check of an operator's inequalities on [-1, 1]^dim.

    The one pair sampler of the package: x and y are drawn in turn from
    one SplitMix64 stream, and Gx is evaluated before Gy. Over
    ``n_pairs`` pairs it counts ``violations`` of
    <Gx - Gy, x - y> >= modulus * |Gx - Gy|^2 below the slack
    -1e-10 * (1 + |Gx - Gy|^2), and ``lipschitz`` violations of
    |Gx - Gy| <= L (1 + 1e-12) |x - y| for the operator's declared L (0
    when it declares none). ``worst_margin`` is the least slack-adjusted
    gap. A NaN margin or norm is a violation, and a NaN margin makes
    ``worst_margin`` NaN. ``dim`` defaults to ``op.dim``.
    """
    in_range("n_pairs", n_pairs, 1, MAX_ENTRIES // 3, "[]", integer=True)
    in_range("co-coercivity modulus", modulus, -np.inf, np.inf, "[]")
    lip = op.lipschitz
    if lip is not None:
        in_range("declared Lipschitz constant", lip, -np.inf, np.inf, "[]")
    dim = in_range("dim", op.dim if dim is None else dim, 1, MAX_ENTRIES,
                   "[]", integer=True)
    rng = SplitMix64(seed)
    sums = np.empty((n_pairs, 3))
    for row in sums:
        x = rng.uniform_symmetric(dim)
        y = rng.uniform_symmetric(dim)
        dx, dg = x - y, op(x) - op(y)
        row[:] = dg @ dx, dg @ dg, dx @ dx
    inner, ng2, nx2 = sums.T
    margin = inner - modulus * ng2 + 1e-10 * (1.0 + ng2)
    too_long = 0 if lip is None else np.count_nonzero(
        ~(ng2 <= (lip * (1.0 + 1e-12)) ** 2 * nx2))
    return {"violations": int(np.count_nonzero(~(margin >= 0.0))),
            "worst_margin": float(np.min(margin)),
            "lipschitz": int(too_long)}
