"""Seedable 64-bit random generator for reproducible problem instances.

The generator is SplitMix64 (Steele, Lea, Flood 2014): the state advances
by the golden-gamma constant 0x9E3779B97F4A7C15 and each output is the
mixed state

    z  = state + (i+1) * 0x9E3779B97F4A7C15   (mod 2**64)
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9     (mod 2**64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB     (mod 2**64)
    z ^= z >> 31

Uniform doubles take the top 53 bits, u = (z >> 11) * 2**-53. Gaussians
use the Marsaglia polar method: draw (x, y) uniform on [-1, 1)^2, accept
when 0 < s = x^2 + y^2 < 1, and emit the pair (x*f, y*f) with
f = sqrt(-2 ln(s) / s); the second element of the last accepted pair is
cached for the next call. The raw 64-bit outputs and the uniforms
reproduce bit-for-bit in any language; Gaussians reproduce up to the
platform's rounding of log (at most one ulp in practice).
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53
#: uniform pairs drawn at most per Gaussian batch, which bounds the
#: temporaries of a large draw; the output does not depend on it
_MAX_PAIRS = 2 ** 15


class SplitMix64:
    """SplitMix64 stream with vectorized uniform and Gaussian sampling."""

    def __init__(self, seed):
        self._state = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._spare = None

    def next_u64(self, n):
        """Return the next ``n`` raw 64-bit outputs as a uint64 array."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = self._state + idx * _GAMMA
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z = z ^ (z >> np.uint64(31))
            self._state = self._state + np.uint64(n) * _GAMMA
        return z

    def uniform(self, n):
        """``n`` doubles uniform on [0, 1)."""
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _U53

    def uniform_symmetric(self, n, scale=1.0):
        """``n`` doubles uniform on [-scale, scale)."""
        return scale * (2.0 * self.uniform(n) - 1.0)

    def normal(self, n):
        """``n`` standard Gaussians via the polar method."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            filled = 1
        while filled < n:
            need_pairs = (n - filled + 1) // 2
            batch = min(_MAX_PAIRS, max(64, need_pairs + need_pairs // 4))
            state_before = self._state
            u = self.uniform_symmetric(2 * batch)
            x, y = u[0::2], u[1::2]
            s = x * x + y * y
            ok = (s > 0.0) & (s < 1.0)
            cum = np.cumsum(ok)
            if cum[-1] >= need_pairs:
                # rewind: a sequential generator stops at the accepting pair
                stop = int(np.searchsorted(cum, need_pairs))
                with np.errstate(over="ignore"):
                    self._state = state_before + np.uint64(2 * (stop + 1)) * _GAMMA
                keep = slice(0, stop + 1)
            else:
                keep = slice(0, batch)
            is_ok = ok[keep]
            sk = s[keep][is_ok]
            f = np.sqrt(-2.0 * np.log(sk) / sk)
            pair = np.empty(2 * f.size)
            pair[0::2] = x[keep][is_ok] * f
            pair[1::2] = y[keep][is_ok] * f
            take = min(pair.size, n - filled)
            out[filled:filled + take] = pair[:take]
            filled += take
            if take < pair.size:
                # at most one value left over: the second of the final pair
                self._spare = float(pair[take])
        return out

    def normal_matrix(self, rows, cols):
        """Gaussian matrix filled row-major from the stream."""
        return self.normal(rows * cols).reshape(rows, cols)
