"""Lower-central-series candidate words and the holonomy witness search.

Class-n membership is guaranteed by word shape: class 1 is the generator
words, and class n+1 words are commutators of a generator word with a
class-n word, plus short conjugates of those commutators (normal-closure
sampling).  Membership is never decided after the fact, so the search is
sound but can miss witnesses; reports say "evidence at budget", and a
truncated stream is always flagged, never silent.

Each candidate carries its recipe, and the search images it from its
parts rather than letter by letter: the image of ``[w, u]`` is
``W * U * W^-1 * U^-1``, three gathers for a one-letter ``w`` once the
images ``U`` and ``U^-1`` of its group are built, and ``t * x * t^-1``
costs two gathers per letter of ``t`` on top of the image of ``x``.
Images are scored as they are made and then dropped.  Candidate words are
capped at :data:`~cantoract.words.MAX_WORD_LETTERS` letters: a class whose
words grow past it is a ``word_letters`` budget error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .chain import ChainAction, check_depth, closure, compose, invert
from .holonomy import FixedSetReport, fixed_set_report
from .words import GeneratorAlphabet, Word, commutator, conjugate, reduced_words

DEFAULT_MAX_CANDIDATES = 256


@dataclass(frozen=True)
class CandidateStream:
    words: tuple[Word, ...]
    truncated: bool


class _Recipe(NamedTuple):
    """A candidate ``word`` and how it was built: ``t * [w, u] * t^-1`` for
    a generator word ``w``, the recipe ``u`` of a candidate one class down
    and a conjugator ``t`` (None: the bare commutator).  A class-1
    candidate is a generator word and has no parts."""

    word: Word
    w: Word | None = None
    u: "_Recipe | None" = None
    t: Word | None = None


def _candidate_classes(alphabet: GeneratorAlphabet, max_class: int, max_word_len: int,
                       conj_len: int, max_candidates: int):
    """Yield ``(recipes, truncated)`` for classes 1..``max_class``, each
    built from the one before, in canonical order and deduplicated.

    A class is cut off (with a flag, inherited by every later class) at
    ``max_candidates`` recipes.
    """
    if max_class < 1:
        return
    gen_words = list(reduced_words(alphabet, max_word_len))
    recipes = [_Recipe(w) for w in gen_words[:max_candidates]]
    truncated = len(gen_words) > max_candidates
    yield recipes, truncated
    if max_class > 1:
        conjugators = [None, *reduced_words(alphabet, conj_len)]
        for _ in range(2, max_class + 1):
            recipes, cut = _next_class(recipes, gen_words, conjugators, max_candidates)
            truncated = truncated or cut
            yield recipes, truncated


def _next_class(prev: list[_Recipe], gen_words: list[Word], conjugators: list,
                max_candidates: int) -> tuple[list[_Recipe], bool]:
    """The recipes of the class after ``prev``, grouped by ``u`` and then by
    ``w``, the bare commutator (``t`` None) before its conjugates; and
    whether the class was cut off."""
    recipes: list[_Recipe] = []
    seen: set[tuple] = set()
    for u in prev:
        for w in gen_words:
            x = commutator(w, u.word)
            if not x.letters:
                continue
            for t in conjugators:
                word = x if t is None else conjugate(t, x)
                if word.letters in seen:
                    continue
                if len(recipes) >= max_candidates:
                    return recipes, True
                seen.add(word.letters)
                recipes.append(_Recipe(word, w, u, t))
    return recipes, False


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
    for recipes, truncated in _candidate_classes(alphabet, class_index, max_word_len,
                                                 conj_len, max_candidates):
        pass
    return CandidateStream(tuple(r.word for r in recipes), truncated)


class _Imager:
    """Depth-``level`` images of candidates, built from their recipes.

    One-letter images are the level's own permutations and their memoized
    inverses; every longer image is made when asked for and held by no one
    here.
    """

    def __init__(self, chain: ChainAction, level: int):
        self.chain, self.level = chain, level
        self.perms = chain.letter_perms(level)

    def conjugated(self, t: Word, x):
        """The image of ``t * x * t^-1`` from the image ``x``: two gathers per letter."""
        perms = self.perms
        for gen, sign in reversed(t.letters):
            x = compose(compose(perms[gen, sign], x), perms[gen, -sign])
        return x

    def pair(self, recipe: _Recipe):
        """The images of ``recipe.word`` and of its inverse.

        Built bottom-up along the chain of ``u`` parts, since
        ``[w, u]^-1 = [u, w]`` and ``(t * x * t^-1)^-1 = t * x^-1 * t^-1``.
        """
        parts = []
        while recipe.u is not None:
            parts.append(recipe)
            recipe = recipe.u
        word = recipe.word
        image = self.chain.word_permutation(word, self.level)
        inverse = self.chain.word_permutation(word.inverse(), self.level)
        for r in reversed(parts):
            image, inverse = (compose(self.conjugated(r.w, image), inverse),
                              compose(image, self.conjugated(r.w, inverse)))
            if r.t is not None:
                image, inverse = self.conjugated(r.t, image), self.conjugated(r.t, inverse)
        return image, inverse

    def images(self, recipes: list[_Recipe]):
        """Yield ``(recipe, image)`` for each of one class's ``recipes``.

        Class 1 shares prefixes through :meth:`ChainAction.images`.  In a
        later class the images ``U`` and ``U^-1`` are built whenever ``u``
        changes and ``X`` of ``[w, u]`` whenever ``u`` or ``w`` does, so
        once per group in the order classes are built; only these are alive
        at once.
        """
        if recipes and recipes[0].u is None:
            for i, image in self.chain.images([r.word for r in recipes], self.level):
                yield recipes[i], image
            return
        u = w = None
        for r in recipes:
            if r.u is not u:
                u, w = r.u, None
                image, inverse = self.pair(u)
            if r.w is not w:
                w = r.w
                x = compose(self.conjugated(w, image), inverse)
            yield r, x if r.t is None else self.conjugated(r.t, x)


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


def _best(results: list[FixedSetReport]) -> FixedSetReport | None:
    """The report with the largest estimate, ties to the shorter word, then
    canonical order; only the reports tied on both are keyed by their word."""
    if not results:
        return None
    top = max(results, key=lambda r: (r.hol_estimate, -len(r.word)))
    tied = [r for r in results
            if r.hol_estimate == top.hol_estimate and len(r.word) == len(top.word)]
    return min(tied, key=lambda r: r.word.key())


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
    imager = _Imager(chain, depth)
    reports: list[ClassReport] = []
    classes = _candidate_classes(chain.alphabet, max_class, max_word_len, conj_len,
                                 max_candidates)
    for n, (recipes, truncated) in enumerate(classes, 1):
        results = [fixed_set_report(chain, r.word, depth, image)
                   for r, image in imager.images(recipes)]
        best = _best(results)
        reports.append(
            ClassReport(
                class_index=n,
                examined=len(recipes),
                truncated=truncated,
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
