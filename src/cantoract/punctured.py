"""The fat-Cantor family: a ternary odometer and a generator carved by a puncture plan."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .builders import _strings
from .chain import ChainAction
from .errors import SchemaError


class Puncture(NamedTuple):
    """One swap below vertex ``vertex`` (as (index, level) prefix data).

    The swap relabels the first letter below the vertex: strings in the
    1-child subtree trade places with the matching strings in the 2-child
    subtree; the 0-child subtree stays pointwise fixed.
    """

    cylinder_level: int
    cylinder_vertex: int
    level: int
    vertex: int

    def zones(self) -> tuple[tuple[int, int], tuple[int, int]]:
        step = 3**self.level
        return ((self.vertex + step, self.level + 1), (self.vertex + 2 * step, self.level + 1))


def _prefixes_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    m = 3 ** min(a[1], b[1])
    return a[0] % m == b[0] % m


class FatCantorPlan:
    """Deterministic puncture schedule for the fat-Cantor family.

    Cylinders are enumerated in canonical (level, vertex) order.  Each
    enumerated cylinder that still meets the fixed set receives one puncture
    at a descendant vertex whose level comes from the schedule: the lowest
    eligible descendant index wins, where eligible means the new swap zones
    are disjoint from every earlier swap zone.  If no descendant at the
    scheduled level is eligible the scan deepens one level at a time.

    The default schedule punctures below every level-3 cylinder at level 7
    (visible in depth-8 reports, one puncture inside each level-4 region of
    the form v0) and pushes every other cylinder's puncture deep enough to
    stay invisible at depth 8.  Total punctured measure stays below 1/4, so
    the limit fixed set keeps measure above 3/4 while every cylinder that
    meets it is eventually punctured.
    """

    DEFAULT_OVERRIDES = {1: 9, 2: 10, 3: 7}
    # the deepest level a schedule may name: no chain is built past it, as
    # level 41 alone has 3^41 > 2^64 points
    _MAX_LEVEL = 40

    def __init__(self, schedule: dict[int, int] | None = None):
        overrides = dict(self.DEFAULT_OVERRIDES if schedule is None else schedule)
        for lvl, target in overrides.items():
            if lvl < 1:
                raise SchemaError(f"schedule keys are cylinder levels >= 1, got {lvl}")
            if target < lvl:
                raise SchemaError(
                    f"schedule sends level-{lvl} cylinders to level {target}; punctures "
                    f"must sit at or below their cylinder"
                )
            if target > self._MAX_LEVEL:
                raise SchemaError(f"schedule level {target} is deeper than the cap of "
                                  f"{self._MAX_LEVEL}")
        self.overrides = overrides
        bound = self.punctured_measure_bound()
        if bound >= Fraction(1, 2):
            raise SchemaError(
                f"schedule rejected: punctured measure bound {float(bound):.6g} is not "
                f"smaller than the fixed-set measure {float(1 - bound):.6g}"
            )
        self._punctures: list[Puncture] = []
        self._enumerated_to_level = 0

    def puncture_level(self, cylinder_level: int) -> int:
        return self.overrides.get(cylinder_level, 2 * cylinder_level + 3)

    def punctured_measure_bound(self) -> Fraction:
        """Upper bound: every enumerated cylinder is assumed punctured."""
        # default rule contributes sum_{l>=1} 3^l * 2*3^-(2l+4) = 1/81
        bound = Fraction(1, 81)
        for lvl, target in self.overrides.items():
            bound -= Fraction(3**lvl * 2, 3 ** (2 * lvl + 4))
            bound += Fraction(3**lvl * 2, 3 ** (target + 1))
        return bound

    def _max_cylinder_level(self, depth: int) -> int:
        limit = max((depth - 4) // 2 + 1, *self.overrides.keys(), 1)
        best = 0
        for lvl in range(1, limit + 1):
            if self.puncture_level(lvl) <= depth - 1:
                best = lvl
        return best

    def _extend(self, cylinder_level: int):
        while self._enumerated_to_level < cylinder_level:
            lvl = self._enumerated_to_level + 1
            target = self.puncture_level(lvl)
            zones = [z for p in self._punctures for z in p.zones()]
            for vertex in range(3**lvl):
                if any(z[1] <= lvl and vertex % 3 ** z[1] == z[0] % 3 ** z[1] for z in zones):
                    continue  # cylinder no longer meets the fixed set
                chosen = None
                level = target
                step = 3**lvl
                while chosen is None:
                    for t in range(3 ** (level - lvl)):
                        cand = Puncture(lvl, vertex, level, vertex + t * step)
                        if all(
                            not _prefixes_overlap(cz, z)
                            for cz in cand.zones()
                            for z in zones
                        ):
                            chosen = cand
                            break
                    level += 1
                self._punctures.append(chosen)
                zones.extend(chosen.zones())
            self._enumerated_to_level = lvl

    def punctures_visible_at(self, depth: int) -> list[Puncture]:
        """All punctures whose swaps move strings of length <= depth."""
        self._extend(self._max_cylinder_level(depth))
        return [p for p in self._punctures if p.level + 1 <= depth]


def fat_cantor(schedule: dict[int, int] | None = None, **budgets) -> ChainAction:
    """Ternary odometer plus a generator with a fat, nowhere-dense fixed set.

    ``h`` is the +1 odometer on Z/3^L.  ``g`` starts as the identity and is
    carved by the puncture plan: each puncture swaps two sibling subtrees
    and keeps the third, so the limit fixed set of ``g`` is closed, has
    measure at least 3/4 under the default plan, and contains no cylinder.
    Point indices encode strings least-significant-letter first, so the
    level-L vertex of index x is the prefix of x's digits.
    """
    plan = FatCantorPlan(schedule)

    def perms(level: int, points: tuple) -> tuple:
        frag = list(points)
        for p in plan.punctures_visible_at(level):
            # swap the 1-child and 2-child subtrees below the vertex
            step, span = 3**p.level, 3 ** (p.level + 1)
            one, two = p.vertex + step, p.vertex + 2 * step
            frag[one::span], frag[two::span] = frag[two::span], frag[one::span]
        return points[1:] + points[:1], frag

    return _strings(3, ("h", "g"), "fat_cantor", perms, **budgets)
