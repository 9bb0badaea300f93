"""Deterministic pseudo-random numbers (splitmix64).

Corpus generation and randomized searches must reproduce byte-identically
across platforms and Python versions, so we avoid random.Random and implement
the tiny splitmix64 generator instead.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """Seeded 64-bit generator with a handful of integer helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi] inclusive."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError("empty range")
        # rejection sampling to stay unbiased
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def nonzero_int(self, bound):
        """Uniform integer in [-bound, bound] excluding 0."""
        v = self.randint(1, 2 * bound)
        return v - bound - 1 if v <= bound else v - bound
