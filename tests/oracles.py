"""Test-only cross-checks that no command or documented library call needs.

The point-wise action here reads a level's generator permutations directly
and inverts a letter with ``perm.index``, so it shares no code with the
kernel's letter tables (``ChainAction.letter_perms``) or word images.
"""

from fractions import Fraction
from typing import NamedTuple

from cantoract.chain import ChainAction, PointApprox
from cantoract.words import Word


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


def act(chain: ChainAction, word: Word, level: int, x: int) -> int:
    """Apply ``word`` to level-``level`` point ``x``, the rightmost letter first."""
    if level == 0:
        return 0
    perms = chain.level(level).perms
    for gen, sign in reversed(word.letters):
        perm = perms[chain.alphabet.names[gen]]
        x = perm[x] if sign > 0 else perm.index(x)
    return x


def stabilizer_contains(chain: ChainAction, word: Word, level: int) -> bool:
    """Membership in the level-``level`` basepoint stabilizer subgroup."""
    return act(chain, word, level, 0) == 0
