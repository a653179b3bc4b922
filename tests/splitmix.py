"""Seeded 64-bit pseudo-random generator for the tests' reproducible draws.

No report draws random numbers; the tests draw their seeded vectors from
this generator (``from splitmix import SplitMix64``; pytest puts ``tests/``
on the path).  The recurrence is pinned down exactly so that a seed gives
the same draws in this implementation or any other:

    state  <- (state + 0x9E3779B97F4A7C15)            mod 2^64
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output <-  z XOR (z >> 31)

Doubles in [0, 1) take the top 53 bits: (output >> 11) * 2**-53.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic generator over 64-bit state; not for cryptography."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return low + (high - low) * u

    def uniforms(self, count: int, low: float = 0.0, high: float = 1.0) -> list[float]:
        return [self.uniform(low, high) for _ in range(count)]

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is negligible for n << 2^64."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self.next_u64() % n
