"""Classic and localized coset-fixing criteria.

The classic check asks, per candidate word, what fraction of level-L points
it fixes; a chain "passes at depth" when every candidate's ratio has fallen
below the tolerance by the report depth.  The localized check is the
classic one of the base stabilizer ``G_b`` on the tower of fibers over the
base level's basepoint (:func:`cantoract.chain.restrict`), with the
Schreier generators as letters; words in the depth-truncated core (fixing
the whole base fiber) are indistinguishable from the identity rather than
failed.  Verdicts are always stamped with (depth, word cap, tolerance):
passing at a depth is evidence about the limit, not a proof.  Each
conjugacy key is walked once (:func:`cantoract.chain.walk_classes`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .chain import ChainAction, check_depth, restrict, schreier_generators, walk_classes
from .words import Word, check_word_budget, reduced_words, spelled_words

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
    tower: ChainAction,
    kind: str,
    base_level: int,
    candidates: list[Word],
    words: list[Word],
    max_word_len: int | None,
    depth: int,
    tolerance: Fraction,
) -> FarberReport:
    """Score each candidate on ``tower`` (the chain, or at a base level
    its :func:`~cantoract.chain.restrict`-ed fibers, whose basepoint every
    candidate fixes: a leading ``(base_level, 1)`` entry), its levels
    reported ``base_level`` deeper, under its word in ``words``.

    An entry is the fraction of a level's points the candidate fixes; one
    fixing every point at ``depth`` lies in the core, indistinguishable
    from the identity.  Only each key's first word is walked, and keys with
    the same counts share one ``(verdict, trajectory)``, built once.
    """
    levels = range(1, depth - base_level + 1)
    sizes = [tower.size(level) for level in levels]
    head = ((base_level, Fraction(1)),) if base_level else ()
    keys, walks = walk_classes(tower, candidates, levels[-1])
    scored, interned = {}, {}
    for key, _, counts, _ in walks:
        counts = tuple(counts)
        if counts not in interned:
            traj = head + tuple((base_level + level, Fraction(count, size))
                                for level, count, size in zip(levels, counts, sizes))
            if traj[-1][1] == 1:
                verdict = INDISTINGUISHABLE
            else:
                verdict = PASS if traj[-1][1] < tolerance else FAIL
            interned[counts] = verdict, traj
        scored[key] = interned[counts]
    verdicts = [WordVerdict(word, *scored[key]) for word, key in zip(words, keys)]
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
    return _score(chain, "farber", 0, candidates, candidates, cap, depth, tolerance)


def local_candidates(
    chain: ChainAction,
    base_level: int,
    max_word_len: int,
    *,
    max_generators: int = DEFAULT_MAX_SCHREIER,
) -> tuple[list[Word], list[tuple[Word, Word]]]:
    """Schreier alphabet of the base stabilizer and candidate words over it:
    the reduced words over the Schreier letters up to ``max_word_len``, each
    with its spelling over the chain's letters
    (:func:`~cantoract.words.spelled_words`), refused past the word budget.
    The generators are a free basis, so no spelling repeats or is the
    identity; at base level 0 they are the chain's generators.
    """
    gens = schreier_generators(chain, base_level, max_generators)
    check_word_budget(len(gens), max_word_len)
    return gens, list(spelled_words([g.letters for g in gens], max_word_len))


def local_farber_check(
    chain: ChainAction,
    base_level: int,
    *,
    max_word_len: int = 4,
    depth: int = 10,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    max_generators: int = DEFAULT_MAX_SCHREIER,
) -> FarberReport:
    """The fixed-coset test localized to the basepoint fiber at ``base_level``:
    the classic check over the Schreier letters on the tower of that fiber
    (:func:`~cantoract.chain.restrict`), each candidate reported as its
    spelling.  Core words are classified indistinguishable.  At
    ``base_level=0`` the chain itself is walked.
    """
    _check(tolerance, depth)
    if base_level >= depth:
        raise ValueError("base level must be smaller than the report depth")
    gens, pairs = local_candidates(chain, base_level, max_word_len, max_generators=max_generators)
    chain.level(depth)  # the tower is charged against what the chain's budget has left
    tower = restrict(chain, base_level, gens) if base_level else chain
    return _score(tower, "local-farber", base_level, [w for w, _ in pairs],
                  [w for _, w in pairs], max_word_len, depth, tolerance)
