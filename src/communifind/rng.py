"""Pinned, portable, counter-based pseudo-random number generation.

Every stochastic routine in this package draws from one generator:
splitmix64 evaluated at counters.  Draw ``i`` (1-based) of seed ``s`` is
``mix64(s + i * 0x9E3779B97F4A7C15)`` with the published splitmix64 mixer
constants, so the scalar stream is exactly the reference splitmix64 stream
of that seed.  Because a draw depends only on its counter, a block of draws
is one numpy expression and yields the same values as the same number of
scalar draws.  Pinning the algorithm (rather than delegating to a library
generator whose stream may change between releases) makes every seed
reproduce bit-identically across reruns, worker counts, versions and
platforms; only the geometric gaps (:func:`geometric_gaps`, the one gap
expression of gap-skipping) go through the platform's ``log``, whose last
ulp may differ between math libraries.  The draws of several seeds at the
same counters are one 2-D expression as well (:func:`stacked_uniforms`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["SeededRng", "derive_seed", "geometric_gaps", "stacked_uniforms", "GENERATOR"]

GENERATOR = "splitmix64-counter"  # named in reports, so streams can be told apart

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """splitmix64 output mixer (Steele, Lea & Flood reference constants)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` applied in place to a uint64 array of counters; returns it."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def _to_unit(z: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of raw outputs, as :meth:`SeededRng.random`."""
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def stacked_uniforms(seeds: Sequence[int], count: int) -> np.ndarray:
    """The first ``count`` uniforms of each seed, one row per seed.

    Row ``j`` equals ``SeededRng(seeds[j]).uniforms(count)`` bit for bit:
    the counters 1..count of every seed, mixed in one 2-D pass.
    """
    if count < 0:
        raise ValueError(f"draw count must be nonnegative, got {count}")
    bases = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    return _to_unit(_mix_array(bases[:, None] + z))  # wraps modulo 2**64 like the scalar path


def geometric_gaps(u: np.ndarray, p: float) -> np.ndarray:
    """Failures before the first success of Bernoulli(p) processes, one per uniform.

    The inverse-CDF draw ``int(log(1 - u) / log(1 - p))`` for uniforms ``u``
    in [0, 1), elementwise over an array of any shape, capped at 2**62 so
    that a tiny ``p`` cannot overflow int64.  Requires 0 < p < 1.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"geometric skips need 0 < p < 1, got {p}")
    skips = np.log(1.0 - u) / math.log1p(-p)
    return np.minimum(skips, 2.0**62).astype(np.int64)


def derive_seed(seed: int, *salts: int) -> int:
    """Derive a child seed from ``seed`` and a tuple of integer salts.

    The derivation is a pinned splitmix64-style absorption: each salt is
    multiplied by the golden-ratio increment, xor-ed into the state and
    mixed.  Distinct salt tuples give statistically independent streams.
    """
    state = seed & _MASK64
    for salt in salts:
        state = _mix64(state ^ ((salt & _MASK64) * _GOLDEN & _MASK64))
    return state


class SeededRng:
    """Counter-based splitmix64 stream with the draws used in this package.

    The state is the seed and the number of draws taken so far.  Scalar
    draws (:meth:`next_u64` and the helpers built on it) and block draws
    (:meth:`u64s`, :meth:`uniforms`) advance the same counter, so any mix of
    the two reads one stream.  Any 64-bit integer is a valid seed.
    """

    __slots__ = ("_seed", "_count")

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK64
        self._count = 0

    def next_u64(self) -> int:
        """Next raw 64-bit output: the mixer applied to the next counter."""
        self._count += 1
        return _mix64(self._seed + self._count * _GOLDEN)

    def u64s(self, count: int) -> np.ndarray:
        """The next ``count`` raw outputs as a uint64 array, equal to that many scalar draws."""
        if count < 0:
            raise ValueError(f"draw count must be nonnegative, got {count}")
        # counters wrap modulo 2**64 exactly as the scalar path masks them
        z = np.arange(1, count + 1, dtype=np.uint64)
        z += np.uint64(self._count & _MASK64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._seed)
        self._count += count
        return _mix_array(z)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms in [0, 1), equal to that many :meth:`random` calls."""
        return _to_unit(self.u64s(count))

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via unbiased bitmask rejection."""
        if bound <= 0:
            raise ValueError(f"randrange bound must be positive, got {bound}")
        if bound == 1:
            return 0
        mask = (1 << (bound - 1).bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < bound:
                return r

    def sample(self, n: int, k: int) -> list[int]:
        """Draw ``k`` distinct integers from [0, n) uniformly, in draw order.

        Partial Fisher-Yates over a sparse (dict-backed) permutation, so the
        cost is O(k) regardless of n.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} distinct values from range({n})")
        swaps: dict[int, int] = {}
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            out.append(swaps.get(j, j))
            swaps[j] = swaps.get(i, i)
        return out
