"""Lower-central-series candidate words and the holonomy witness search.

Class-n membership is guaranteed by word shape: class 1 is the generator
words, and class n+1 words are commutators of a generator word with a
class-n word, plus short conjugates of those commutators (normal-closure
sampling).  Membership is never decided after the fact, so the search is
sound but can miss witnesses; reports say "evidence at budget", and a
truncated stream is always flagged, never silent.

Candidates are scored once per conjugacy class: every number the search
ranks by (fixed counts, the interior bound, the holonomy estimate and
indistinguishability) is the same for each word of one key, as
:func:`~cantoract.chain.walk_classes` says, so only the first word of each
key is walked and reported.  Keys are ranked, and the winner takes its
key's report, its cylinders moved by its :func:`~cantoract.chain.conjugator`.
Candidate words are capped at :data:`~cantoract.words.MAX_WORD_LETTERS`
letters: a class whose words grow past it is a ``word_letters`` budget
error.  Word length about doubles per class, so each class's letters are
also charged against a memory budget as the class is built.
"""

from __future__ import annotations

from itertools import tee
from typing import NamedTuple

from .chain import DEFAULT_MEMORY_BUDGET, ChainAction, check_depth, walk_classes
from .errors import BudgetError
# the bench tracer wraps ``fixed_set_report`` (no longer called here), ``reduced_words`` and
# ``gamma_candidates`` by these names: they stay until ROADMAP item 1, stage B, moves its spans
from .holonomy import FixedSetReport, _moved_cylinders, fixed_set_from_walk, fixed_set_report
from .words import (GeneratorAlphabet, Word, commutator, conjugate, distinct, reduced_words,
                    take)

DEFAULT_MAX_CANDIDATES = 256


class CandidateStream(NamedTuple):
    words: tuple[Word, ...]
    truncated: bool


def _candidate_classes(alphabet: GeneratorAlphabet, max_class: int, max_word_len: int,
                       conj_len: int, max_candidates: int, memory_budget: int):
    """Yield ``(words, truncated)`` for classes 1..``max_class``, each
    built from the one before, in canonical order and deduplicated.

    A class is cut off (with a flag, inherited by every later class) at
    ``max_candidates`` words, and no more than one word past the cut is built.
    A class whose words, as they are built, hold more than
    ``memory_budget`` letters is a ``memory_budget`` BudgetError, and a cap
    below 1, which would report classes of no word, a ValueError.
    """
    for name, cap in (("max_class", max_class), ("max_word_len", max_word_len),
                      ("max_candidates", max_candidates)):
        if cap < 1:
            raise ValueError(f"{name} must be at least 1, got {cap}")
    truncated = False
    words: list[Word] = []
    for n in range(1, max_class + 1):
        stream = (reduced_words(alphabet, max_word_len) if n == 1 else
                  distinct(_commutators(alphabet, words, max_word_len, conj_len)))
        words, cut = take(_charged(stream, n, memory_budget), max_candidates)
        truncated = truncated or cut
        yield words, truncated


def _charged(stream, n: int, memory_budget: int):
    """The words of class ``n``'s ``stream``, refused once their letters
    pass ``memory_budget``."""
    letters = 0
    for word in stream:
        letters += len(word.letters)
        if letters > memory_budget:
            raise BudgetError("memory_budget", f"class {n} candidates hold more than "
                              f"{memory_budget} letters; raise --memory-budget")
        yield word


def _commutators(alphabet: GeneratorAlphabet, prev: list[Word], max_word_len: int,
                 conj_len: int):
    """The words ``t * [w, u] * t^-1`` of the class after ``prev``, grouped
    by ``u`` in ``prev`` and then by generator word ``w``, the bare
    commutator before its conjugates.  Each ``w`` and ``t`` is built with its
    inverse once, as far as read: each pass replays a ``__copy__`` of an
    unread tee.  Over one generator every commutator reduces to the
    identity, so there are none."""
    if len(alphabet) < 2:
        return
    gens, conjugators = (tee(((w, w.inverse()) for w in reduced_words(alphabet, n)), 1)[0]
                         for n in (max_word_len, conj_len))
    for u in prev:
        u_inv = u.inverse()
        for w, w_inv in gens.__copy__():
            x = commutator(w, u, w_inv, u_inv)
            if x.letters:
                yield x
                for t, t_inv in conjugators.__copy__():
                    yield conjugate(t, x, t_inv)


def gamma_candidates(
    alphabet: GeneratorAlphabet,
    class_index: int,
    max_word_len: int,
    conj_len: int,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> CandidateStream:
    """Deterministic class-``class_index`` candidate words, deduplicated.

    Candidates are generated in canonical order and cut off (with a flag)
    at ``max_candidates`` per class; a class holding more than
    :data:`~cantoract.chain.DEFAULT_MEMORY_BUDGET` letters is refused, as
    is a ``class_index`` (the ``max_class``), word length or cap below 1.
    """
    for words, truncated in _candidate_classes(alphabet, class_index, max_word_len,
                                               conj_len, max_candidates, DEFAULT_MEMORY_BUDGET):
        pass
    return CandidateStream(tuple(words), truncated)


class ClassReport(NamedTuple):
    class_index: int
    examined: int
    truncated: bool
    best_word: Word | None
    best: FixedSetReport | None
    nonvanishing: bool
    all_indistinguishable: bool


class LcsWitnessReport(NamedTuple):
    depth: int
    max_word_len: int
    conj_len: int
    max_candidates: int
    classes: tuple[ClassReport, ...]


def _score_class(chain: ChainAction, words: list[Word],
                 depth: int) -> tuple[FixedSetReport | None, bool]:
    """The best report over one class's ``words``, and whether every word
    is indistinguishable from the identity at ``depth``.

    One report per key, built from the one walk of the keys' first words
    (:func:`~cantoract.chain.walk_classes`), scores every word of the key,
    so keys are ranked.  The best word has the top estimate, ties to the
    shorter word, then canonical order: the least ``Word.key()`` over the
    top keys' words.  Its report is its key's, cylinders moved: no second walk.
    """
    if not words:
        return None, True
    keys, walks = walk_classes(chain, words, depth)
    reports = {key: fixed_set_from_walk(chain, word, depth, counts, fixed)
               for key, word, counts, fixed in walks}
    top = max(r.hol_estimate for r in reports.values())
    tied = {key for key, r in reports.items() if r.hol_estimate == top}
    key, winner = min(((key, word) for word, key in zip(words, keys) if key in tied),
                      key=lambda pair: pair[1].key())
    first = reports[key]
    best = first._replace(word=winner, max_fixed_cylinders=_moved_cylinders(
        chain, first.word, first.max_fixed_cylinders, winner))
    return best, all(r.indistinguishable for r in reports.values())


def witness_search(
    chain: ChainAction,
    max_class: int,
    *,
    max_word_len: int = 4,
    conj_len: int = 2,
    depth: int = 10,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> LcsWitnessReport:
    """Per class, the candidate with the largest depth-stamped holonomy estimate.

    Ties break to the shorter word, then canonical order.  A class whose
    best estimate is zero reports no nonvanishing candidate; if every
    candidate also acts as the identity at the report depth the class is
    flagged all-indistinguishable.  The per-class maxima are the depth
    evidence: estimates staying positive through every class are consistent
    with witnesses at infinite depth, while a collapse to zero at some
    class bounds the depth at the explored budget.  A ``max_class``,
    ``max_word_len`` or ``max_candidates`` below 1 is a ValueError, and a
    class holding more letters than the chain's ``memory_budget`` a
    BudgetError.
    """
    check_depth(depth)
    reports: list[ClassReport] = []
    classes = _candidate_classes(chain.alphabet, max_class, max_word_len, conj_len,
                                 max_candidates, chain.memory_budget)
    for n, (words, truncated) in enumerate(classes, 1):
        best, indistinguishable = _score_class(chain, words, depth)
        reports.append(
            ClassReport(
                class_index=n,
                examined=len(words),
                truncated=truncated,
                best_word=best.word if best else None,
                best=best,
                nonvanishing=bool(best and best.hol_estimate > 0),
                all_indistinguishable=indistinguishable,
            )
        )
    return LcsWitnessReport(
        depth=depth,
        max_word_len=max_word_len,
        conj_len=conj_len,
        max_candidates=max_candidates,
        classes=tuple(reports),
    )
