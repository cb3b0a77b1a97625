"""Deterministic 64-bit random generator for replayable tree sampling.

This is splitmix64 (Steele, Lea, Flood: "Fast splittable pseudorandom
number generators"), written out in full so that sampled trees can be
regenerated bit-for-bit on any platform from (seed, index) alone.
"""

MASK64 = (1 << 64) - 1

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The splitmix64 output mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream: state advances by the golden gamma, output is mix64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1, got %d" % n)
        if n == 1:
            return 0
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randbelow_many(self, n: int, k: int) -> list:
        """[randbelow(n) for _ in range(k)], leaving the stream in the same
        state; with mix64 inlined, a draw costs about half as much."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1, got %d" % n)
        if k < 0:
            raise ValueError("draw count must be >= 0, got %d" % k)
        if n == 1:
            return [0] * k
        limit = ((1 << 64) // n) * n
        state = self._state
        out = []
        while len(out) < k:
            state = (state + GOLDEN_GAMMA) & MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & MASK64
            z ^= z >> 31
            if z < limit:
                out.append(z % n)
        self._state = state
        return out


def derive_seed(master: int, index: int) -> int:
    """Per-sample seed for sample `index` of a run keyed by `master`.

    Defined as mix64(mix64(master) XOR (index + 1) * GOLDEN_GAMMA); fixed
    forever so persisted search records stay replayable.
    """
    if index < 0:
        raise ValueError("sample index must be >= 0, got %d" % index)
    return mix64(mix64(master) ^ (((index + 1) * GOLDEN_GAMMA) & MASK64))
