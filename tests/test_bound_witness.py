"""Normal-eigenvalue witnesses for the co-monotone rate bound.

A block-diagonal operator of 2x2 blocks ``[[a, -b], [b, a]]`` is normal,
with eigenvalues a +- ib. It is L-Lipschitz and rho-co-monotone when
every eigenvalue has |lam| <= L and Re lam >= rho |lam|^2. The blocks do
not interact, so one run gives one curve per block. Each block starts at
(1, 0) and its solution is 0, so d0 = 1 per block. The eigenvalues sweep
the class on a polar grid that includes its boundary, where the worst
cases sit. Normal operators are a subset of the class: a worst ratio at
most 1 is evidence for the bound, and a ratio above 1 is a
counterexample.
"""

import numpy as np
import pytest

from anchored import diagnostics as dg
from anchored.operators import OperatorSpec
from anchored.schemes import run, solver_for

L = 2.0
K = 200
GRID = 30
RHO_L = (-0.25, -0.45, 0.0, 0.5, 1.0)  # rho in units of 1/L


def normal_blocks(rho):
    """The blocks of a polar grid of the class in the upper half plane."""
    r = np.repeat(np.linspace(L / GRID, L, GRID), GRID)
    widest = np.arccos(np.clip(rho * r, -1.0, 1.0))  # Re lam = rho |lam|^2
    phi = widest * np.tile(np.linspace(0.0, 1.0, GRID), GRID)
    a, b = r * np.cos(phi), r * np.sin(phi)

    def evaluate(y):
        g = np.empty_like(y)
        g[0::2] = a * y[0::2] - b * y[1::2]
        g[1::2] = b * y[0::2] + a * y[1::2]
        return g

    return OperatorSpec(dim=2 * len(a), eval=evaluate, lipschitz=L,
                        comonotone_modulus=rho)


def worst_ratio(scheme, rho):
    """max over blocks and 1 <= k <= K of |G y_k|^2 over the comono bound."""
    op = normal_blocks(rho)
    y0 = np.zeros(op.dim)
    y0[0::2] = 1.0
    blocks = dg.MapFold(lambda p: p.g_y[0::2] ** 2 + p.g_y[1::2] ** 2)
    run(solver_for(op, scheme, scheme, rho=rho), y0, K, observers=(blocks,))
    theory = dg.bound_series("comono", np.arange(1, K + 1), L, 1.0, rho=rho)
    return float(np.max(blocks.series()[1:] / theory[:, None]))


@pytest.mark.parametrize("scheme", ["comono_eag", "nag_comono"])
@pytest.mark.parametrize("rho_l", RHO_L)
def test_comono_bound_holds_on_normal_blocks(scheme, rho_l):
    assert worst_ratio(scheme, rho_l / L) <= 1.0 + dg.BOUND_SLACK


@pytest.mark.parametrize("scheme", ["comono_eag", "nag_comono"])
def test_witness_breaks_the_unsquared_constant(scheme):
    # the row's former constant, 4 L^2 d0^2 / ((1 + 2 rho L) k^2), is the
    # bound times 1 + 2 rho L = 1/2 here; the witness exceeds it
    rho = -0.25 / L
    assert worst_ratio(scheme, rho) / (1.0 + 2.0 * rho * L) > 1.5
