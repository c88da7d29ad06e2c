"""Checks the vectorized generator against a sequential pure-Python oracle."""

import math

import numpy as np

from anchored import rng as rng_module
from anchored.rng import SplitMix64

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


class OracleSplitMix:
    """Straight-line sequential reference implementation."""

    def __init__(self, seed):
        self.state = seed & MASK
        self.spare = None

    def next_u64(self):
        self.state = (self.state + GAMMA) & MASK
        return _mix(self.state)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self):
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        while True:
            x = 2.0 * self.uniform() - 1.0
            y = 2.0 * self.uniform() - 1.0
            s = x * x + y * y
            if 0.0 < s < 1.0:
                f = math.sqrt(-2.0 * math.log(s) / s)
                self.spare = y * f
                return x * f


def test_raw_outputs_match_reference_vector():
    # first output from seed 0 is the published SplitMix64 value
    assert _mix(GAMMA) == 0xE220A8397B1DCDAF
    got = SplitMix64(0).next_u64(3)
    oracle = OracleSplitMix(0)
    expect = [oracle.next_u64() for _ in range(3)]
    assert [int(v) for v in got] == expect


def test_raw_outputs_match_oracle_for_odd_seed():
    rng = SplitMix64(0xDEADBEEFCAFE)
    oracle = OracleSplitMix(0xDEADBEEFCAFE)
    got = rng.next_u64(1000)
    expect = [oracle.next_u64() for _ in range(1000)]
    assert [int(v) for v in got] == expect


def test_uniform_matches_oracle_and_range():
    rng = SplitMix64(42)
    oracle = OracleSplitMix(42)
    u = rng.uniform(500)
    expect = np.array([oracle.uniform() for _ in range(500)])
    assert np.array_equal(u, expect)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normal_matches_sequential_oracle_to_one_ulp():
    # libm log and numpy's vectorized log may disagree in the last ulp
    rng = SplitMix64(7)
    oracle = OracleSplitMix(7)
    got = rng.normal(1001)
    expect = np.array([oracle.normal() for _ in range(1001)])
    assert np.all(np.abs(got - expect) <= np.spacing(np.abs(expect)))
    assert np.mean(got == expect) > 0.99


def test_normal_split_calls_equal_one_call():
    a = SplitMix64(123)
    b = SplitMix64(123)
    whole = a.normal(101)
    parts = np.concatenate([b.normal(1), b.normal(50), b.normal(50)])
    assert np.array_equal(whole, parts)


def test_normal_in_capped_batches_matches_sequential_oracle(monkeypatch):
    # a cap of 3 pairs makes every call below cross several batches, and
    # the odd sizes hand the cached spare value from call to call
    whole = SplitMix64(99).normal(400)
    monkeypatch.setattr(rng_module, "_MAX_PAIRS", 3)
    rng = SplitMix64(99)
    oracle = OracleSplitMix(99)
    got = np.concatenate([rng.normal(n) for n in (1, 2, 7, 64, 125, 201)])
    expect = np.array([oracle.normal() for _ in range(got.size)])
    assert np.all(np.abs(got - expect) <= np.spacing(np.abs(expect)))
    assert got.tobytes() == whole.tobytes()
    assert int(rng._state) == oracle.state


def test_normal_moments_are_sane():
    z = SplitMix64(2024).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_matrix_fill_is_row_major():
    m = SplitMix64(5).normal_matrix(3, 4)
    flat = SplitMix64(5).normal(12)
    assert np.array_equal(m.reshape(-1), flat)
