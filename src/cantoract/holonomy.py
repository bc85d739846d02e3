"""One word's fixed set: fixed counts, maximal fixed cylinders, interior
bound and holonomy estimate, as the holonomy command and the LCS search
read them.  The scans over many words or points that build on these
(density profiles, triviality witnesses, the LQA scale) live in
:mod:`cantoract.scans`.

Everything here is depth-stamped: a depth-N report inspects the tower only
through level N and never claims a limit.  A cylinder counts as interior
evidence for a word's fixed set only when its entire depth-N fiber is fixed
AND the cylinder is shallow enough to have at least as many verified
refinement levels below it as its own depth (level <= N // 2).  Without
that balance rule every fixed point would trivially count as its own fixed
cylinder at level N and the estimates would degenerate; with it, a cylinder
confirmed at depth N may still be refuted at depth N + 1, and reports store
the scan cap so consumers can compare like with like.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .chain import ChainAction, Cylinder, check_depth, compose, conjugator
from .words import Word


def interior_scan_limit(depth: int) -> int:
    """Deepest cylinder level trusted as interior evidence at this depth."""
    return depth // 2


class FixedSetReport(NamedTuple):
    """Per-depth fixed statistics for one word.

    ``fixed_counts[i]`` is the fixed count at level ``i + 1``;
    ``interior_bound`` is the total measure of the maximal cylinders whose
    full depth-``depth`` fiber is fixed (levels up to ``interior_scan_limit``);
    ``hol_estimate`` is the depth-``depth`` fixed measure minus that bound.
    """

    word: Word
    depth: int
    sizes: tuple[int, ...]
    fixed_counts: tuple[int, ...]
    max_fixed_cylinders: tuple[Cylinder, ...]
    interior_bound: Fraction
    hol_estimate: Fraction
    interior_scan_max_level: int
    indistinguishable: bool

    def fixed_ratio(self, level: int) -> Fraction:
        if level < 1 or level > self.depth:
            raise ValueError(f"level {level} outside 1..{self.depth}")
        return Fraction(self.fixed_counts[level - 1], self.sizes[level - 1])


def _require_nonidentity(word: Word):
    if not word.letters:
        raise ValueError("the identity word is excluded from holonomy queries")


def _maximal_fixed_cylinders(chain: ChainAction, fixed, depth: int, cap: int) -> list[Cylinder]:
    """The maximal cylinders of levels 1..``cap`` whose whole depth-``depth``
    fiber lies in ``fixed``, a word's depth fixed set, ordered by level and
    then by vertex.

    A level-``cap`` vertex is fixed iff ``size(depth) // size(cap)`` points
    of ``fixed`` lie over it, so one gather of the ancestor table over
    ``fixed`` and a count per vertex find them, in O(|fixed|).  The other
    vertices, whose fiber moves, are walked up through the parent arrays; a
    fixed vertex is maximal when its parent moves.  The answer is
    ``[Cylinder(0, 0)]`` exactly when the word fixes every point.
    """
    if len(fixed) == chain.size(depth):
        return [Cylinder(0, 0)]
    per_vertex = chain.size(depth) // chain.size(cap)
    over = Counter(compose(chain.ancestors(depth, cap), fixed))
    moved = set(range(chain.size(cap))).difference(
        v for v, count in over.items() if count == per_vertex)
    out: list[Cylinder] = []
    for level in range(cap, 0, -1):  # moved: the level-``level`` vertices whose fiber moves
        parent = chain.level(level).parent
        above = set(map(parent.__getitem__, moved))
        out[:0] = [Cylinder(level, v) for v in range(chain.size(level))
                   if v not in moved and parent[v] in above]
        moved = above
    return out


def _moved_cylinders(chain: ChainAction, first: Word, cylinders, word: Word) -> tuple:
    """``first``'s maximal fixed ``cylinders`` moved to ``word = g first^±1 g^-1``
    of its key by ``g`` (:func:`~cantoract.chain.conjugator`), as ``Fix(g w g^-1)
    = g Fix(w)``, and re-sorted: one :meth:`~ChainAction.apply` of one vertex each."""
    g = Word(conjugator(first, word))
    return tuple(sorted(Cylinder(c.level, chain.apply(g, c.level, (c.vertex,))[0])
                        for c in cylinders))


def fixed_set_report(chain: ChainAction, word: Word, depth: int) -> FixedSetReport:
    """Fixed counts to ``depth`` plus the interior bound and holonomy
    estimate, from one walk of ``word`` (:func:`fixed_set_from_walk`)."""
    _require_nonidentity(word)
    check_depth(depth)
    _, counts, fixed = next(chain.walk([word], depth))
    return fixed_set_from_walk(chain, word, depth, counts, fixed)


def fixed_set_from_walk(chain: ChainAction, word: Word, depth: int, counts,
                        fixed) -> FixedSetReport:
    """The report of ``word`` from the ``counts`` and ``fixed`` set its
    depth-``depth`` :meth:`~ChainAction.walk` yields.

    The maximal fixed cylinders are found from the depth fixed set; their
    total measure lower-bounds the interior of the fixed set as seen at
    this depth, so the holonomy estimate is the depth-stamped measure of
    fixed points not yet explained by any fixed cylinder.
    """
    sizes = [chain.size(level) for level in range(1, depth + 1)]
    cap = interior_scan_limit(depth)
    cylinders = _maximal_fixed_cylinders(chain, fixed, depth, cap)
    interior = sum((Fraction(1, chain.size(c.level)) for c in cylinders), Fraction(0))
    hol = Fraction(counts[-1], sizes[-1]) - interior
    if hol < 0:
        raise AssertionError("interior bound exceeded the fixed measure")
    return FixedSetReport(
        word=word,
        depth=depth,
        sizes=tuple(sizes),
        fixed_counts=tuple(counts),
        max_fixed_cylinders=tuple(cylinders),
        interior_bound=interior,
        hol_estimate=hol,
        interior_scan_max_level=cap,
        indistinguishable=counts[-1] == sizes[-1],
    )


def __getattr__(name):
    """The witness scan, moved to :mod:`cantoract.scans`; the benchmark's tests read it here."""
    if name == "partial_triviality_witnesses":
        from .scans import partial_triviality_witnesses
        return partial_triviality_witnesses
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
