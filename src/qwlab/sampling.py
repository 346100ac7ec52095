"""Seeded random draws used by the verification checks.

All sampling goes through `random.Random(seed)` so every report can be
replayed from its recorded seed.  Rationals are kept small (numerators and
denominators bounded by 100) so exact arithmetic stays cheap.
"""

from __future__ import annotations

import random
from fractions import Fraction

MAX_NUM = 100
MAX_DEN = 100


def rational(rng: random.Random) -> Fraction:
    """A nonzero rational num/den with num <= MAX_NUM and den <= MAX_DEN,
    negated with probability 1/2."""
    while True:
        v = Fraction(rng.randint(0, MAX_NUM), rng.randint(1, MAX_DEN))
        if rng.random() < 0.5:
            v = -v
        if v != 0:
            return v


def unit_interval_rational(rng: random.Random) -> Fraction:
    """A rational strictly inside (0, 1)."""
    den = rng.randint(2, MAX_DEN)
    return Fraction(rng.randint(1, den - 1), den)


def distinct_rationals(rng: random.Random, count: int) -> tuple:
    """count distinct nonzero rationals."""
    vals: list[Fraction] = []
    while len(vals) < count:
        v = rational(rng)
        if v not in vals:
            vals.append(v)
    return tuple(vals)
