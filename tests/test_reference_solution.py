"""The least-squares reference solution y* against the SVD solution.

``instances.least_squares_solution`` solves with the smaller Gram and
one refinement step; ``np.linalg.lstsq`` (an SVD) is the reference here
only. y* feeds d0, the bound column and the potentials.
"""

import numpy as np
import pytest

from anchored.errors import InputError
from anchored.instances import (
    DESK_LS,
    PAPER_LS,
    gen_least_squares,
    least_squares_solution,
)
from anchored.rng import SplitMix64


def _rel(y, ref):
    return np.linalg.norm(y - ref) / np.linalg.norm(ref)


def _svd_solution(inst):
    return np.linalg.lstsq(inst.meta["P"], inst.meta["b"], rcond=None)[0]


@pytest.mark.parametrize("dims", [DESK_LS, PAPER_LS, (30, 12)],
                         ids=["desk", "paper", "cli"])
def test_matches_the_svd_solution(dims):
    inst = gen_least_squares(*dims, seed=7)
    assert _rel(inst.solution, _svd_solution(inst)) <= 1e-13


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_square_design_matches_the_svd_solution(seed):
    # cond(P) reaches 7.9e4 at seed 1, where cond(P)^2 eps is 1.4e-6
    inst = gen_least_squares(300, 300, seed=seed)
    assert _rel(inst.solution, _svd_solution(inst)) <= 1e-10


def test_without_refinement_the_square_design_fails():
    # control: the same Gram solve without its refinement step is off by
    # about cond(P)^2 eps (1.6e-8), so the 1e-10 test above can fail
    inst = gen_least_squares(300, 300, seed=1)
    p_mat, b = inst.meta["P"], inst.meta["b"]
    once = np.linalg.solve(p_mat.T @ p_mat, p_mat.T @ b)
    assert _rel(once, _svd_solution(inst)) > 1e-10


@pytest.mark.parametrize("n, p", [(30, 12), (12, 30)])
def test_singular_gram_is_an_input_error(n, p):
    # two equal columns of a tall P, or two equal rows of a wide one
    rng = SplitMix64(7)
    p_mat, b = rng.normal_matrix(n, p), rng.normal(n)
    if n >= p:
        p_mat[:, 1] = p_mat[:, 0]
    else:
        p_mat[1] = p_mat[0]
    with pytest.raises(InputError, match="singular"):
        least_squares_solution(p_mat, b)
