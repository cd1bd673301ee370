"""Deterministic sampling for harness runs.

All harness randomness flows through this generator so that a run is a
pure function of (instance, budget, seed) on every platform.  The
stdlib `random` module is deliberately not used: its stream is not part
of any compatibility promise we control.
"""

from __future__ import annotations

from fractions import Fraction

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator, state = full 64-bit word."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * MULTIPLIER + INCREMENT) & _MASK
        return self.state

    def below(self, n: int) -> int:
        """Integer in [0, n), as the state modulo n.

        Known defect: the low bits of an LCG with a power-of-two modulus
        have short periods, and for an even n the result has the state's
        lowest bit; `below(2)` alternates between 0 and 1 for every
        seed, so a sampler that branches on one draw fixes the next.
        Kept as is because the pinned case streams depend on it; the
        fix and what it unmasks are open item 1 of ROADMAP.md.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def bits(self, n: int) -> int:
        """n random bits as a nonnegative integer."""
        out = 0
        while n >= 64:
            out = (out << 64) | self.next_u64()
            n -= 64
        if n:
            out = (out << n) | (self.next_u64() >> (64 - n))
        return out

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def unit(self) -> float:
        """Float in [0, 1)."""
        return self.next_u64() / float(1 << 64)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def fraction(self, max_num: int = 4, max_den: int = 4) -> Fraction:
        """Nonnegative rational with bounded numerator and denominator."""
        return Fraction(self.below(max_num + 1), 1 + self.below(max_den))

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def subset(self, items, k: int):
        """Random subset of `items` of size k."""
        pool = list(items)
        self.shuffle(pool)
        return pool[:k]
