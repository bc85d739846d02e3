"""The stabilizer-count oracle: point stabilizers of a level's finite image group."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chain import ChainAction, compose, count_fixed
from .errors import BudgetError
from .words import Word


class StabilizerCountReport(NamedTuple):
    level: int
    word: Word
    group_order: int
    stabilizer_count: int
    containing_count: int
    conjugacy_ratio: Fraction
    fixed_ratio: Fraction
    identity_holds: bool


def closure(generators, n: int, max_order: int | None = None, name: str = "group closure",
            memory_budget: int | None = None) -> set[tuple[int, ...]]:
    """The group on ``n`` points generated by ``generators``, breadth first.

    Holding more than ``max_order`` elements is a ``group_order`` budget
    error, and more than ``memory_budget`` points over its elements (``n``
    each) a ``memory_budget`` one; each message starts with ``name``.
    """
    gens = list(generators)
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in elements:
                    elements.add(q)
                    nxt.append(q)
                    if max_order is not None and len(elements) > max_order:
                        raise BudgetError(
                            "group_order",
                            f"{name} exceeds max_order={max_order} (frontier size {len(nxt)})",
                        )
                    if memory_budget is not None and len(elements) * n > memory_budget:
                        raise BudgetError("memory_budget", f"{name} holds {len(elements)} elements "
                                          f"of {n} points, more than memory_budget={memory_budget}")
        frontier = nxt
    return elements


def image_group(chain: ChainAction, level: int, max_order: int) -> list[tuple[int, ...]]:
    """All permutations in the finite image at ``level`` (breadth-first closure)."""
    perms = chain.level(level).perms
    gens = [perms[name] for name in chain.alphabet.names]
    return sorted(closure(gens, chain.size(level), max_order,
                          f"image group at level {level}", chain.memory_budget))


def stabilizer_count_oracle(
    chain: ChainAction, word: Word, level: int, max_order: int
) -> StabilizerCountReport:
    """Count distinct point stabilizers in the finite image and verify the
    fibration identity: (stabilizers containing the word) / (distinct
    stabilizers) equals the word's fixed-point ratio.  The identity is
    checked exactly on every call.
    """
    elements = image_group(chain, level, max_order)
    n = chain.size(level)
    stabs = {x: frozenset(p for p in elements if p[x] == x) for x in range(n)}
    distinct = set(stabs.values())
    image = chain.word_permutation(word, level)
    containing = sum(1 for s in distinct if image in s)
    ratio = Fraction(containing, len(distinct))
    fixed = Fraction(count_fixed(image), n)
    if ratio != fixed:
        raise AssertionError(
            f"fibration identity failed at level {level}: {ratio} != {fixed}"
        )
    return StabilizerCountReport(
        level=level,
        word=word,
        group_order=len(elements),
        stabilizer_count=len(distinct),
        containing_count=containing,
        conjugacy_ratio=ratio,
        fixed_ratio=fixed,
        identity_holds=True,
    )
