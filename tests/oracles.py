"""Test-only cross-checks that no command or documented library call needs."""

from fractions import Fraction
from typing import NamedTuple

from cantoract.chain import ChainAction, PointApprox


class Distance(NamedTuple):
    """Ultrametric distance between equal-depth truncations.

    ``agreement_level`` is the deepest level at which the truncations
    coincide; ``value`` is 2^-agreement_level.  ``indistinguishable`` marks
    truncations equal at full depth (never asserted to be the same point).
    """

    value: Fraction
    agreement_level: int
    indistinguishable: bool


def distance(chain: ChainAction, x: PointApprox, y: PointApprox) -> Distance:
    """2^-m where m is the deepest level at which the truncations agree."""
    if x.depth != y.depth:
        raise ValueError(f"depth mismatch: {x.depth} != {y.depth}")
    depth = x.depth
    a, b = x.index, y.index
    if a == b:
        return Distance(Fraction(1, 2**depth), depth, True)
    m = depth
    while a != b:
        lv = chain.level(m)
        a, b = lv.parent[a], lv.parent[b]
        m -= 1
        if m == 0:
            a = b = 0
    return Distance(Fraction(1, 2**m), m, False)
