"""Residual operators reducing monotone inclusions to a single equation.

Each builder returns an :class:`OperatorSpec` whose zero set coincides
with the solution set of the underlying inclusion, so the anchored
schemes apply unchanged. A residual's co-coercivity modulus is
lam (4 - lam L) / 4, with L = 1/rho read from the declared
``comonotone_modulus`` rho of its single-valued forward part. A
forward part that declares no positive rho, or a lam outside the window
(0, 4/L), is an :class:`InputError`: no residual is built without its
modulus.
"""

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import InputError
from .operators import (
    OperatorSpec,
    ResolventSpec,
    resolvent_apply,
    sampled_differences,
)


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
        if self.lam <= 0:
            raise InputError("lam must be positive")


def default_lambda(l_const):
    """Midpoint 2/L of the admissible window, maximizing lam*(4-lam*L)/4."""
    if l_const <= 0:
        raise InputError("L must be positive")
    return 2.0 / l_const


def _modulus(lam, forward):
    """lam (4 - lam L) / 4, L = 1/rho of the forward part; lam without one.

    With no forward part (L = 0) the modulus follows from the firm
    nonexpansiveness of the two resolvents.
    """
    if forward is None:
        return lam
    rho = forward.comonotone_modulus
    if rho is None or not rho > 0.0:
        raise InputError(f"the forward operator declares co-monotone modulus "
                         f"{rho}; a residual needs a positive one")
    l_const = 1.0 / rho
    if not lam < 4.0 / l_const:
        raise InputError(f"lam = {lam} outside the window (0, 4/L) = "
                         f"(0, {4.0 / l_const:.6g})")
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


def cocoercivity_report(op, modulus, n_pairs, seed=0, dim=None, scale=1.0):
    """Sampled check of <Gx - Gy, x - y> >= modulus * |Gx - Gy|^2.

    Draws ``n_pairs`` pairs uniform on [-scale, scale]^dim and counts
    values below the slack -1e-10 * (1 + |Gx - Gy|^2). Returns
    ``{"violations": int, "worst_margin": float}`` where the margin is
    the most negative slack-adjusted gap observed.
    """
    if n_pairs < 1:
        raise InputError("n_pairs must be at least 1")
    if dim is None:
        dim = op.dim
    if dim is None or dim <= 0:
        raise InputError("operator dimension unknown; pass dim explicitly")
    violations = 0
    worst = np.inf
    for dx, dg in sampled_differences(op, n_pairs, seed, scale, dim):
        ng2 = float(dg @ dg)
        gap = float(dg @ dx) - modulus * ng2
        margin = gap + 1e-10 * (1.0 + ng2)
        worst = min(worst, margin)
        if margin < 0.0:
            violations += 1
    return {"violations": violations, "worst_margin": float(worst)}
