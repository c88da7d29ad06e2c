"""Residual operators reducing monotone inclusions to a single equation.

Each builder returns an :class:`OperatorSpec` whose zero set coincides
with the solution set of the underlying inclusion, so the anchored
schemes apply unchanged. Co-coercivity moduli are attached only when
the stepsize window 0 < lam < 4/L makes them valid; otherwise the
operator is built without a modulus and a warning is emitted.
"""

import warnings
from dataclasses import dataclass
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
    ignored; ``lam`` here is attached when the residual is built).
    ``l_of_b_or_c`` is the co-coercivity constant of the single-valued
    forward part (B for the two-operator residual, C for the
    three-operator one); it bounds the admissible lam from above by 4/L.
    """

    a: ResolventSpec
    b: Union[OperatorSpec, ResolventSpec, None]
    lam: float
    c: Optional[OperatorSpec] = None
    l_of_b_or_c: float = 0.0

    def __post_init__(self):
        if self.lam <= 0:
            raise InputError("lam must be positive")


def default_lambda(l_const):
    """Midpoint 2/L of the admissible window, maximizing lam*(4-lam*L)/4."""
    if l_const <= 0:
        raise InputError("L must be positive")
    return 2.0 / l_const


def _modulus(lam, l_const):
    return lam * (4.0 - lam * l_const) / 4.0


def _kind_dim(res: ResolventSpec):
    return res.matrix.shape[0] if res.kind == "affine" else None


def yosida(a_kind: ResolventSpec, lam, dim=None) -> OperatorSpec:
    """Single-valued surrogate (y - J_{lam A} y) / lam; lam-co-coercive."""
    res = a_kind.with_lambda(lam)
    if dim is None:
        dim = _kind_dim(a_kind)

    def apply(y):
        return (y - resolvent_apply(res, y)) / lam

    return OperatorSpec(dim=dim, eval=apply, lipschitz=1.0 / lam,
                        cocoercivity_modulus=float(lam), monotone=True)


def fb_residual(spec: SplittingSpec) -> OperatorSpec:
    """Forward-backward residual (y - J_{lam A}(y - lam B y)) / lam.

    Requires a single-valued B; a set-valued kind must go through
    :func:`tos_residual` instead.
    """
    if not isinstance(spec.b, OperatorSpec):
        raise InputError("forward-backward residual needs a single-valued B")
    lam, b_op = spec.lam, spec.b
    res_a = spec.a.with_lambda(lam)
    l_const = spec.l_of_b_or_c

    modulus = None
    if l_const > 0 and 0.0 < lam < 4.0 / l_const:
        modulus = _modulus(lam, l_const)
    elif l_const > 0:
        warnings.warn("lam outside (0, 4/L): residual built without a "
                      "co-coercivity modulus")

    def apply(y):
        return (y - resolvent_apply(res_a, y - lam * b_op(y))) / lam

    return OperatorSpec(dim=b_op.dim, eval=apply,
                        lipschitz=None if modulus is None else 1.0 / modulus,
                        cocoercivity_modulus=modulus, monotone=True)


def tos_residual(spec: SplittingSpec) -> OperatorSpec:
    """Three-operator residual (J_{lam B}u - J_{lam A}(2 J_{lam B}u - u - lam C J_{lam B}u)) / lam.

    Handles set-valued B (given as a resolvent kind) and an optional
    co-coercive C. With C absent the modulus reduces to lam itself,
    which follows from firm nonexpansiveness of the two resolvents
    rather than from a stated constant. The returned spec exposes the
    intermediates through ``parts(u) -> (Eu, z_u, w_u)`` for tracing.
    """
    lam = spec.lam
    res_a = spec.a.with_lambda(lam)
    if isinstance(spec.b, OperatorSpec):
        raise InputError("single-valued B belongs to fb_residual; pass its "
                         "resolvent kind here")
    res_b = (spec.b if spec.b is not None else ResolventSpec("zero")).with_lambda(lam)
    c_op = spec.c
    l_const = spec.l_of_b_or_c if c_op is not None else 0.0

    modulus = None
    if 0.0 < lam and (l_const == 0.0 or lam < 4.0 / l_const):
        modulus = _modulus(lam, l_const)
    else:
        warnings.warn("lam outside (0, 4/L): residual built without a "
                      "co-coercivity modulus")

    def parts(u):
        z = resolvent_apply(res_b, u)
        inner = 2.0 * z - u
        if c_op is not None:
            inner = inner - lam * c_op(z)
        w = resolvent_apply(res_a, inner)
        return (z - w) / lam, z, w

    def apply(u):
        return parts(u)[0]

    dim = spec.c.dim if spec.c is not None else (
        _kind_dim(spec.a) or (_kind_dim(res_b) if spec.b is not None else None))
    return OperatorSpec(dim=dim, eval=apply,
                        lipschitz=None if modulus is None else 1.0 / modulus,
                        cocoercivity_modulus=modulus, monotone=True,
                        parts=parts)


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
