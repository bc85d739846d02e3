"""Classic and localized coset-fixing criteria.

The classic check asks, per candidate word, what fraction of level-L points
it fixes; a chain "passes at depth" when every candidate's ratio has fallen
below the tolerance by the report depth.  The localized check replays the
same test inside the fiber of a base-level vertex: candidates are words in
the Schreier generators of the base stabilizer, and words lying in the
depth-truncated core (fixing the whole base fiber) are classified as
indistinguishable from the identity rather than failed.  Verdicts are
always stamped with (depth, word cap, tolerance): passing at a depth is
evidence about the limit, not a proof.

Both checks score each conjugacy class once: the first candidate of each
key is walked by :func:`cantoract.chain.walk_classes`, whose docstring says
why its fixed counts are exact for every candidate of the key, and every
candidate gets its key's trajectory.  Classic scoring counts the whole
level, so every conjugator is allowed; localized scoring counts the fiber
over the basepoint at the base level, so only conjugators in that level's
basepoint stabilizer ``G_b`` are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chain import ChainAction, check_depth, schreier_generators, walk_classes
from .words import Word, check_word_budget, reduced_words

PASS = "pass-at-depth"
FAIL = "fail-at-depth"
INDISTINGUISHABLE = "indistinguishable-from-identity"

EVIDENCE_NOTE = (
    "pass-at-depth is finite-depth evidence about a limit statement, not a proof"
)

DEFAULT_TOLERANCE = Fraction(1, 64)
DEFAULT_MAX_SCHREIER = 128


class WordVerdict(NamedTuple):
    word: Word
    verdict: str
    trajectory: tuple[tuple[int, Fraction], ...]  # (level, fixed ratio)


class FarberReport(NamedTuple):
    kind: str  # "farber" | "local-farber"
    base_level: int
    depth: int
    max_word_len: int | None
    tolerance: Fraction
    words: tuple[WordVerdict, ...]
    overall: str
    note: str = EVIDENCE_NOTE


def _check(tolerance: Fraction, depth: int) -> None:
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must lie strictly between 0 and 1")
    check_depth(depth)


def _score(
    chain: ChainAction,
    kind: str,
    base_level: int,
    candidates: list[Word],
    max_word_len: int | None,
    depth: int,
    tolerance: Fraction,
) -> FarberReport:
    """Score every candidate on the points over the basepoint at ``base_level``.

    A trajectory entry is the fraction of those points at one level that
    the candidate fixes.  A candidate fixing every scored point at
    ``depth`` is indistinguishable from the identity there: on the whole
    level it acts trivially, and on the base fiber, which holds the
    basepoint, it also stabilizes the basepoint, so it lies in the core.
    Only the first word of each key is walked
    (:func:`~cantoract.chain.walk_classes`), and only its fixed counts are
    kept.  Keys with the same counts share one ``(verdict, trajectory)``,
    built once.
    """
    levels = range(max(base_level, 1), depth + 1)
    # fiber constancy (checked by ``children``) makes each fiber over the
    # basepoint the level's size over the base level's
    sizes = [chain.size(level) // chain.size(base_level) for level in levels]
    keys, walks = walk_classes(chain, candidates, depth, base_level)
    scored, interned = {}, {}
    for key, _, counts, _ in walks:
        counts = tuple(counts)
        if counts not in interned:
            traj = tuple((level, Fraction(count, size))
                         for level, count, size in zip(levels, counts, sizes))
            if traj[-1][1] == 1:
                verdict = INDISTINGUISHABLE
            else:
                verdict = PASS if traj[-1][1] < tolerance else FAIL
            interned[counts] = verdict, traj
        scored[key] = interned[counts]
    verdicts = [WordVerdict(word, *scored[key]) for word, key in zip(candidates, keys)]
    return FarberReport(
        kind=kind,
        base_level=base_level,
        depth=depth,
        max_word_len=max_word_len,
        tolerance=tolerance,
        words=tuple(verdicts),
        overall=PASS if all(w.verdict != FAIL for w in verdicts) else FAIL,
    )


def farber_check(
    chain: ChainAction,
    *,
    words: list[Word] | None = None,
    max_word_len: int = 4,
    depth: int = 10,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> FarberReport:
    """Fixed-coset ratios per candidate word with a depth-stamped verdict.

    Candidates are either the given words or all reduced words up to
    ``max_word_len`` (identity excluded), refused past the word budget
    before any is built.  A word that fixes every level point at the report
    depth is indistinguishable from the identity there and is excluded from
    the overall verdict.
    """
    _check(tolerance, depth)
    if words is None:
        check_word_budget(len(chain.alphabet), max_word_len)
        candidates = list(reduced_words(chain.alphabet, max_word_len))
        cap = max_word_len
    else:
        candidates = [w for w in words]
        cap = None
        if any(not w.letters for w in candidates):
            raise ValueError("candidate words must exclude the identity")
    return _score(chain, "farber", 0, candidates, cap, depth, tolerance)


def local_candidates(
    chain: ChainAction,
    base_level: int,
    max_word_len: int,
    *,
    max_generators: int = DEFAULT_MAX_SCHREIER,
) -> tuple[list[Word], list[Word]]:
    """Schreier alphabet of the base stabilizer and candidate words over it.

    Candidates are the reduced words over the Schreier letters up to
    ``max_word_len``, each built as its prefix's product joined to one
    Schreier generator.  The generators are a free basis, so no candidate
    repeats or is the identity.  At base level 0 the Schreier alphabet is
    the generator set itself, so the candidates coincide with the classic
    enumeration.  The word budget counts the words over the Schreier letters.
    """
    gens = schreier_generators(chain, base_level, max_generators)
    check_word_budget(len(gens), max_word_len)
    return gens, list(reduced_words(gens, max_word_len, [g.letters for g in gens]))


def local_farber_check(
    chain: ChainAction,
    base_level: int,
    *,
    max_word_len: int = 4,
    depth: int = 10,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    max_generators: int = DEFAULT_MAX_SCHREIER,
) -> FarberReport:
    """The fixed-coset test localized to the basepoint fiber at ``base_level``.

    Words in the depth-truncated core represent the identity coset of the
    localized action and are classified indistinguishable; all other
    candidates are scored by the fraction of the base fiber they fix, level
    by level.  With ``base_level=0`` this reduces to the classic check.
    """
    _check(tolerance, depth)
    if base_level >= depth:
        raise ValueError("base level must be smaller than the report depth")
    _, candidates = local_candidates(
        chain, base_level, max_word_len, max_generators=max_generators
    )
    return _score(chain, "local-farber", base_level, candidates, max_word_len, depth,
                  tolerance)
