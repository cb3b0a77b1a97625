"""Deterministic 64-bit random generator for replayable tree sampling.

This is splitmix64 (Steele, Lea, Flood: "Fast splittable pseudorandom
number generators"), written out in full so that sampled trees can be
regenerated bit-for-bit on any platform from (seed, index) alone.

SplitMix64.randbelow_many computes the m words it still needs together,
as m 128-bit lanes of one Python int: lane i holds the stream's state
i + 1 steps on, (state + (i + 1) * GOLDEN_GAMMA) mod 2**64, in its low 64
bits, and mix64 runs on every lane at once.  No lane carries into the
next: each xor-shift's shifted copy brings the next lane's low bits into
this lane's high half, and is masked back to the low 64 bits before the
multiply, and a value below 2**64 times a 64-bit constant stays below
2**128.  The last xor-shift's spill into the high half is never read, as
the words are the low 8 bytes of each lane.  Each lane is therefore the
word next_u64 returns at that step, and every draw, and the state after
it, is that of a plain rejection loop over next_u64.  A round's lane
constants are built for its lane count the first time a round of that
count runs, so a process that draws nothing builds none.
"""

import functools
import struct

from .intpoly import int_to_str

MASK64 = (1 << 64) - 1

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# most lanes per round of randbelow_many, from the draws table of
# benchmarks/layers.py (BENCH_29.json); a round's int has 16 bytes a lane
_LANE_BLOCK = 64


@functools.cache
def _lanes(m):
    """(ones, ramp, low, unpack) for a round of m lanes, built the first
    time a round of that size runs: 1, (i + 1) * GOLDEN_GAMMA mod 2**64
    and 2**64 - 1 in each lane i, and the unpack of every lane's low word
    from m * 16 little-endian bytes."""
    ones = sum(1 << (128 * i) for i in range(m))
    ramp = sum((((i + 1) * GOLDEN_GAMMA) & MASK64) << (128 * i) for i in range(m))
    return ones, ramp, ones * MASK64, struct.Struct("<" + "Q8x" * m).unpack


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
        """Uniform integer in [0, n): randbelow_many's one-draw case."""
        return self.randbelow_many(n, 1)[0]

    def randbelow_many(self, n: int, k: int) -> list:
        """k uniform integers in [0, n), 1 <= n <= 2**64, by rejection (past
        2**64 none passes); n == 1 draws nothing.  Each round mixes as many
        words as draws are missing, up to _LANE_BLOCK, in lanes (see the
        module docstring), so no word past the k-th kept one is drawn."""
        if not 1 <= n <= 1 << 64:
            raise ValueError("randbelow needs 1 <= n <= 2**64, got %s" % int_to_str(n))
        if k < 0:
            raise ValueError("draw count must be >= 0, got %s" % int_to_str(k))
        if n == 1:
            return [0] * k
        limit = ((1 << 64) // n) * n
        state = self._state
        out = []
        need = k
        while need:
            m = need if need < _LANE_BLOCK else _LANE_BLOCK
            ones, ramp, low, unpack = _lanes(m)
            z = (state * ones + ramp) & low
            z = ((z ^ (z >> 30)) & low) * _MIX1 & low
            z = ((z ^ (z >> 27)) & low) * _MIX2 & low
            words = unpack((z ^ (z >> 31)).to_bytes(16 * m, "little"))
            state = (state + m * GOLDEN_GAMMA) & MASK64
            out += [w % n for w in words if w < limit]
            need = k - len(out)
        self._state = state
        return out


def derive_seed(master: int, index: int) -> int:
    """Per-sample seed for sample `index` of a run keyed by `master`.

    Defined as mix64(mix64(master) XOR (index + 1) * GOLDEN_GAMMA); fixed
    forever so persisted search records stay replayable.
    """
    return derive_from_mixed(mix64(master), index)


def derive_from_mixed(mixed: int, index: int) -> int:
    """derive_seed(master, index) from mixed = mix64(master), for a caller
    that derives several seeds of one master."""
    if index < 0:
        raise ValueError("sample index must be >= 0, got %s" % int_to_str(index))
    return mix64(mixed ^ (((index + 1) * GOLDEN_GAMMA) & MASK64))
