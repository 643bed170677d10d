"""Counter-based deterministic randomness.

Every randomized routine in the package draws from one explicit 64-bit seed
through SplitMix64, so runs are reproducible across platforms and do not
depend on Python's global random state.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit counter generator: output k is a pure function of (seed, k)."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return _mix((self.seed + self.counter * 0x9E3779B97F4A7C15) & _MASK)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError("empty range")
        # rejection sampling keeps the distribution exactly uniform
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def nonzero_coeff(self) -> int:
        """Small nonzero integer in {-9..9}\\{0}, the package-wide coefficient pool."""
        v = self.randint(1, 18)
        return v - 10 if v <= 9 else v - 9
