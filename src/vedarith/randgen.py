"""Seeded 64-bit linear congruential generator.

state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64
(Knuth's MMIX constants).  Only the high 32 bits of each state are used,
since the low bits of an LCG are weak.  This is the only random source in
the package: key generation and benchmark operand streams are exact
functions of their seeds, never of OS entropy.  Subseeds and the bench's
checksums come from one 64-bit FNV-1a fold.
"""

from __future__ import annotations

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3


class Lcg64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (_A * self._state + _C) & _MASK
        return self._state

    def bits(self, nbits: int) -> int:
        """Uniform integer with exactly nbits random bits (leading bit free)."""
        out = 0
        got = 0
        while got < nbits:
            out = (out << 32) | (self.next_u64() >> 32)
            got += 32
        return out >> (got - nbits)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbits = (bound - 1).bit_length() or 1
        while True:
            v = self.bits(nbits)
            if v < bound:
                return v


def fnv_fold(h: int, values) -> int:
    """The 64-bit FNV-1a hash state h with each of `values` folded in."""
    for v in values:
        h = ((h ^ v) * _FNV_PRIME) & _MASK
    return h


def derive_seed(seed: int, label: str) -> int:
    """Deterministic per-label subseed (used to keep benchmark operand
    streams independent across operations and widths)."""
    return fnv_fold(seed & _MASK, map(ord, label))
