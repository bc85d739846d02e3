"""Lower-central-series candidate words and the holonomy witness search.

Class-n membership is guaranteed by word shape: class 1 is the generator
words, and class n+1 words are commutators of a generator word with a
class-n word, plus short conjugates of those commutators (normal-closure
sampling).  Membership is never decided after the fact, so the search is
sound but can miss witnesses; reports say "evidence at budget", and a
truncated stream is always flagged, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ChainAction, check_depth, closure, compose, invert
from .holonomy import FixedSetReport, fixed_set_report
from .words import GeneratorAlphabet, Word, commutator, conjugate, reduced_words

DEFAULT_MAX_CANDIDATES = 256


@dataclass(frozen=True)
class CandidateStream:
    words: tuple[Word, ...]
    truncated: bool


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
    at ``max_candidates`` per class.
    """
    if class_index < 1:
        raise ValueError("class index starts at 1")
    gen_words = list(reduced_words(alphabet, max_word_len))
    if class_index == 1:
        truncated = len(gen_words) > max_candidates
        return CandidateStream(tuple(gen_words[:max_candidates]), truncated)
    prev = gamma_candidates(
        alphabet, class_index - 1, max_word_len, conj_len, max_candidates=max_candidates
    )
    conjugators = list(reduced_words(alphabet, conj_len))
    seen: set[tuple] = set()
    out: list[Word] = []
    truncated = prev.truncated

    def push(word: Word) -> bool:
        nonlocal truncated
        if not word.letters or word.letters in seen:
            return True
        if len(out) >= max_candidates:
            truncated = True
            return False
        seen.add(word.letters)
        out.append(word)
        return True

    for u in prev.words:
        for w in gen_words:
            x = commutator(w, u)
            if not x.letters:
                continue
            if not push(x):
                return CandidateStream(tuple(out), truncated)
            for t in conjugators:
                if not push(conjugate(t, x)):
                    return CandidateStream(tuple(out), truncated)
    return CandidateStream(tuple(out), truncated)


@dataclass(frozen=True)
class ClassReport:
    class_index: int
    examined: int
    truncated: bool
    best_word: Word | None
    best: FixedSetReport | None
    nonvanishing: bool
    all_indistinguishable: bool


@dataclass(frozen=True)
class LcsWitnessReport:
    depth: int
    max_word_len: int
    conj_len: int
    max_candidates: int
    classes: tuple[ClassReport, ...]


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
    class bounds the depth at the explored budget.
    """
    check_depth(depth)
    chain.level(depth)
    reports: list[ClassReport] = []
    for n in range(1, max_class + 1):
        stream = gamma_candidates(
            chain.alphabet, n, max_word_len, conj_len, max_candidates=max_candidates
        )
        results = [fixed_set_report(chain, w, depth) for w in stream.words]
        best = min(results, key=lambda r: (-r.hol_estimate, len(r.word), r.word.key()),
                   default=None)
        reports.append(
            ClassReport(
                class_index=n,
                examined=len(stream.words),
                truncated=stream.truncated,
                best_word=best.word if best else None,
                best=best,
                nonvanishing=bool(best and best.hol_estimate > 0),
                all_indistinguishable=all(r.indistinguishable for r in results),
            )
        )
    return LcsWitnessReport(
        depth=depth,
        max_word_len=max_word_len,
        conj_len=conj_len,
        max_candidates=max_candidates,
        classes=tuple(reports),
    )


def image_lower_central_series(elements: list[tuple[int, ...]]) -> list[set]:
    """Lower central series of a small finite permutation group, by closure.

    Intended for verifying that candidate words land in the right class of
    the finite image; sizes beyond a few hundred elements get slow.
    """
    if not elements:
        raise ValueError("empty group")
    n = len(elements[0])
    group = set(elements)
    series = [group]
    current = group
    while True:
        comms = {
            compose(compose(g, x), compose(invert(g), invert(x)))
            for g in group
            for x in current
        }
        nxt = closure(comms, n)
        if nxt == current:
            break
        series.append(nxt)
        current = nxt
        if len(current) == 1:
            break
    return series
