"""Scans over many words or points: density profiles, triviality witnesses, the LQA scale."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .chain import ChainAction, Cylinder, PointApprox, check_depth, compose, walk_classes
from .holonomy import _maximal_fixed_cylinders, _require_nonidentity, interior_scan_limit
from .words import Word, check_word_budget, reduced_words


class DensityProfile(NamedTuple):
    """Fixed-set density inside shrinking cylinders around a center point."""

    word: Word
    center: PointApprox
    entries: tuple[Fraction, ...]  # index = cylinder level, 0..depth


class TrivialityWitness(NamedTuple):
    """A word that fixes a whole depth-N cylinder fiber yet moves points.

    ``exact`` is set only when the chain's transducer certifies that the
    whole subtree below the cylinder is fixed; the word moves a point, so it
    is genuinely non-trivial.
    """

    word: Word
    cylinder: Cylinder
    exact: bool


class LqaScaleEstimate(NamedTuple):
    depth: int
    max_word_len: int
    scale_level: int

    @property
    def scale(self) -> Fraction:
        return Fraction(1, 2**self.scale_level)


def sample_uniform(chain: ChainAction, depth: int, seed: int) -> PointApprox:
    """Uniform level-``depth`` point from a seeded Mersenne Twister source.

    Rejection sampling on ``getrandbits`` (algorithm id ``mt19937-rejection``)
    so the draw is uniform and reproducible across platforms.
    """
    n = chain.size(depth)
    rng = random.Random(seed)
    bits = max(1, (n - 1).bit_length())
    while True:
        r = rng.getrandbits(bits)
        if r < n:
            return PointApprox(depth, r)


def density_profile(chain: ChainAction, word: Word, center: PointApprox) -> DensityProfile:
    """Exact fixed fraction of the fiber over each ancestor of ``center``."""
    _require_nonidentity(word)
    depth = center.depth
    if not 0 <= center.index < chain.size(depth):
        raise ValueError(f"point {center.index} out of range at level {depth}")
    # level 0 is one point; a nonempty fixed set passed the fiber-constancy
    # check of ``children`` at every level, so each fiber has the sizes' ratio
    fixed = next(chain.walk([word], depth))[2] if depth else (0,)
    # the fixed set and the center walk up the parent arrays, one gather a level
    vertex, entries = center.index, []
    for level in range(depth, -1, -1):
        entries.append(Fraction(fixed.count(vertex), chain.size(depth) // chain.size(level)))
        if level:
            parent = chain.level(level).parent
            fixed, vertex = compose(parent, fixed), parent[vertex]
    return DensityProfile(word=word, center=center, entries=tuple(entries[::-1]))


def _mealy_exact(chain: ChainAction, word: Word, cylinder: Cylinder) -> bool:
    """Whether the chain's machine certifies that ``word`` fixes the subtree
    below ``cylinder``: its section at the vertex (base-d digits, least
    significant first) is trivial.  ``word`` moves a point, so it is not."""
    from .mealy import is_trivial, reduce_states

    machine, names = chain.mealy, chain.alphabet.names
    state_word = reduce_states((machine.generator_map[names[x >> 1]], -1 if x & 1 else 1)
                               for x in word.letters)
    path, vertex = [], cylinder.vertex
    for _ in range(cylinder.level):
        vertex, letter = divmod(vertex, machine.alphabet_size)
        path.append(letter)
    return is_trivial(machine, machine.section(state_word, path))


def _scan_words(chain: ChainAction, max_word_len: int) -> list[Word]:
    """The reduced words up to ``max_word_len`` the witness scans read,
    refused past the word budget before any is built."""
    check_word_budget(len(chain.alphabet), max_word_len)
    return list(reduced_words(chain.alphabet, max_word_len))


def _fixing_words(chain: ChainAction, walks, depth: int):
    """Yield ``(first, cylinders)`` for each depth-``depth`` walk tuple
    ``(first, ..., fixed)`` whose word moves a point and fixes some
    cylinder fiber, with its maximal fixed cylinders, in walk order."""
    cap = interior_scan_limit(depth)
    for first, *_, fixed in walks:
        cylinders = _maximal_fixed_cylinders(chain, fixed, depth, cap)
        if cylinders and cylinders[0].level:
            yield first, cylinders


def partial_triviality_witnesses(
    chain: ChainAction, max_word_len: int, depth: int
) -> list[TrivialityWitness]:
    """Words fixing an entire depth-``depth`` cylinder fiber while moving points.

    Scans all reduced words up to ``max_word_len`` in canonical order and
    returns, per word, its maximal fully fixed cylinders (levels 1 up to the
    interior scan cap).  Each returned witness is re-checked by evaluating
    the word letter by letter on the cylinder's fiber.  On a chain built
    from a transducer, a witness is exact where the word's section at the
    cylinder is trivial.
    """
    check_depth(depth)
    words = _scan_words(chain, max_word_len)
    found: list[list[TrivialityWitness]] = [[] for _ in words]
    for i, cylinders in _fixing_words(chain, chain.walk(words, depth), depth):
        for cyl in cylinders:
            fiber = chain.fiber(cyl.level, depth, cyl.vertex)
            if chain.apply(words[i], depth, fiber) != fiber:
                raise AssertionError("witness failed direct re-check")
            exact = chain.mealy is not None and _mealy_exact(chain, words[i], cyl)
            found[i].append(TrivialityWitness(word=words[i], cylinder=cyl, exact=exact))
    return [w for witnesses in found for w in witnesses]


def lqa_scale_estimate(chain: ChainAction, max_word_len: int, depth: int) -> LqaScaleEstimate:
    """Smallest level k with no partial-triviality witness inside any level-k cylinder.

    A witness at scale k is a word (length <= ``max_word_len``) that fixes
    the whole depth-``depth`` fiber of some cylinder strictly below a
    level-k cylinder while moving another point of that same level-k
    fiber.  Witnesses at a scale imply witnesses at every coarser scale, so
    the answer is the first witness-free k; 0 means no witnesses at all
    (quasi-analytic candidate at this depth and word length).

    In closed form it is the deepest level of a maximal fixed cylinder over
    the words that move a point.  A word fixing the fiber of a vertex u
    fixes the fibers of all u's descendants, so the fixed ancestors of u
    form one unbroken run of levels, ending above at the maximal fixed
    cylinder that contains u, at some level j >= 1 (level 0 moves).  The
    deepest moving ancestor of u, the scale u witnesses, is at j - 1, and
    the first witness-free level is the largest such j.  That level is at
    most ``depth // 2``, so a scale always exists at this depth.  It is the
    same for every word of one conjugacy key, so one word per key is walked
    (:func:`~cantoract.chain.walk_classes`).
    """
    check_depth(depth)
    _, walks = walk_classes(chain, _scan_words(chain, max_word_len), depth)
    scale = max((cylinders[-1].level for _, cylinders in _fixing_words(chain, walks, depth)),
                default=0)
    return LqaScaleEstimate(depth=depth, max_word_len=max_word_len, scale_level=scale)
