"""The permutation kernel against independent derivations.

Word images built over shared prefixes, the top-down fixed counts of a
list of words (walked on their tested points, some of them imaged), the
conjugacy class keys, the memoized ancestor, children
and representative tables, the tower of a base fiber, and the core and
density answers read from them are each compared with a brute-force
oracle: point-by-point action for images and fixed counts, the
tuple-keyed reference for class keys, a parent walk for tables and
fibers.  Fixed counts over the fiber of a base level above 0 are the
reference walk's (``oracles.walk``), checked here point by point.
"""

import random
import re
import time
import tracemalloc
from functools import partial
from itertools import product
from math import inf
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module
from cantoract.chain import (Violation, _least_start, class_keys, compose, count_fixed, invert,
                             restrict)
from cantoract.farber import local_candidates
from cantoract.lcs import gamma_candidates
from cantoract.mealy import machine_from_dict
from cantoract.words import conjugate

from conftest import GRIGORCHUK, ORACLE_CHAINS
from oracles import (act, adding_machine_chain, ancestor, class_keys as pair_class_keys,
                     core_membership, density_entries, pairs, stabilizer_contains,
                     walk as reference_walk)

# every builder family at depths small enough for brute force
_FAMILIES = [
    (ca.odometer(2), 6),
    (ca.toral(2, 2), 4),
    (ca.dihedral(), 6),
    (ca.heisenberg(2), 4),
    (ca.fragmented(), 6),
    (ca.fat_cantor(), 4),
    (adding_machine_chain(2), 6),
]

common = settings(max_examples=60, deadline=None)


def _letters(chain, max_len):
    m = len(chain.alphabet)
    return st.lists(st.integers(0, 2 * m - 1), max_size=max_len)


@st.composite
def chain_words_level(draw, lowest=1):
    chain, max_depth = draw(st.sampled_from(_FAMILIES))
    level = draw(st.integers(lowest, max_depth))
    words = [ca.Word.of(w) for w in draw(st.lists(_letters(chain, 5), max_size=6))]
    # repeat some words and extend others, so the list shares prefixes
    # without being prefix-closed, then shuffle it
    if words:
        words += draw(st.lists(st.sampled_from(words), max_size=3))
    words += [w * ca.Word.of(draw(_letters(chain, 3))) for w in words[:2]]
    return chain, draw(st.permutations(words)), level


def _brute_image(chain, word, level):
    return tuple(act(chain, word, level, x) for x in range(chain.size(level)))


@common
@given(chain_words_level(lowest=0))  # level 0, the one-point level, too
def test_images_match_word_permutation_and_brute_force(cwl):
    chain, words, level = cwl
    seen = set()
    for i, image in chain.images(words, level):
        assert i not in seen
        seen.add(i)
        assert image == chain.word_permutation(words[i], level)
        assert image == _brute_image(chain, words[i], level)
    assert seen == set(range(len(words)))


def _brute_fiber(chain, base_level, level):
    return tuple(y for y in range(chain.size(level))
                 if ancestor(chain, level, y, base_level) == 0)


# the kernel's fixed walk with its deferral share patched so that every
# word is imaged whose walk starts above its deepest level (0: a word
# defers only above it), at its default, and so that no word is imaged
# (3: a walk tests fewer than twice the deepest level's points)
ENTRIES = {"walk-imaging-all": 0, "walk": chain_module.DEFER_SHARE, "walk-imaging-none": 3}


def _walked(chain, words, level, base, entry):
    """``(counts, fixed)`` per word through ``walk`` (the reference walk
    over the base fiber at a base level above 0), in input order; each word
    is reported exactly once, and imaged as ``entry`` says: a walk that
    starts at the deepest level, ``max(base, 1) == level``, images none."""
    out, imaged, images = {}, [], chain.images

    def counting(ws, lvl):
        imaged.extend(ws)
        return images(ws, lvl)

    with mock.patch.object(chain_module, "DEFER_SHARE", ENTRIES[entry]), \
            mock.patch.object(chain, "images", counting):
        walk = reference_walk(chain, words, level, base) if base else chain.walk(words, level)
        for i, counts, fixed in walk:
            assert i not in out
            out[i] = counts, fixed
    if entry != "walk":
        imaging = entry == "walk-imaging-all" and max(base, 1) < level
        assert len(imaged) == (len(words) if imaging else 0)
    assert sorted(out) == list(range(len(words)))
    return [out[i] for i in range(len(words))]


@common
@given(chain_words_level())
def test_fixed_counts_match_brute_force(cwl):
    chain, words, depth = cwl
    brute = [{level: _brute_image(chain, w, level) for level in range(1, depth + 1)}
             for w in words]
    for base, entry in product(range(depth + 1), ENTRIES):
        levels = range(max(base, 1), depth + 1)
        for i, (counts, fixed) in enumerate(_walked(chain, words, depth, base, entry)):
            assert len(counts) == len(levels)
            for level, count in zip(levels, counts):
                image = brute[i][level]
                assert count == sum(image[x] == x for x in _brute_fiber(chain, base, level))
            assert sorted(fixed) == [x for x in _brute_fiber(chain, base, depth)
                                     if brute[i][depth][x] == x]
            if not base:
                assert counts == [chain.fixed_count(words[i], level) for level in levels]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_walk_matches_pointwise_action_on_every_family(family, entry):
    """Counts and sorted fixed sets at every base level, for the identity
    and every reduced word up to length 2, against ``oracles.act``."""
    chain, depth = family
    words = [ca.Word.identity(), *ca.reduced_words(chain.alphabet, 2)]
    for base in range(depth + 1):
        fibers = {level: _brute_fiber(chain, base, level) for level in range(depth + 1)}
        for w, (counts, fixed) in zip(words, _walked(chain, words, depth, base, entry)):
            fixes = [[x for x in fibers[level] if act(chain, w, level, x) == x]
                     for level in range(max(base, 1), depth + 1)]
            assert counts == [len(f) for f in fixes], (w, base)
            assert sorted(fixed) == fixes[-1], (w, base)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f[0].name)
def test_fixed_counts_of_the_identity_are_whole_fibers(family):
    chain, depth = family
    for base, entry in product(range(depth), ENTRIES):
        assert _walked(chain, [ca.Word.identity()], depth, base, entry)[0][0] == [
            len(_brute_fiber(chain, base, level)) for level in range(max(base, 1), depth + 1)]


def test_fixed_counts_stop_once_the_fixed_set_empties(monkeypatch):
    odo = ca.odometer(2)
    a = [ca.Word.generator(0)]  # moves both level-1 points
    assert _walked(odo, a, 8, 0, "walk-imaging-all") == [([0] * 8, ())]
    gathers = []
    monkeypatch.setattr(chain_module, "compose", lambda p, q: gathers.append(q) or compose(p, q))
    assert _walked(odo, a, 8, 0, "walk-imaging-all") == [([0] * 8, ())]
    assert _walked(odo, a, 8, 1, "walk-imaging-all") == [([0] * 8, ())]
    # the word is imaged at once, which gathers nothing for one letter, and
    # level 1 alone is tested: the root's two children are gathered one
    # column at a time, two gathers over them check their deep
    # representatives, which move, then three walk them; at base level 1
    # two and three over the basepoint; nothing deeper either time
    assert [len(q) for q in gathers] == [1, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1]
    # the walk gathers the root's children once per call, then applies each
    # word's one letter to them alone, and images neither word; the first
    # application builds level 1's letter table, whose one gather finds
    # that ``a`` swaps the two points and so is its own inverse there
    del gathers[:]
    assert [counts for _, counts, _ in odo.walk([ca.Word.generator(0)] * 2, 8)] == [[0] * 8] * 2
    assert next(reference_walk(odo, [ca.Word.generator(0)], 8, 1))[1] == [0] * 8
    assert [len(q) for q in gathers] == [1, 1, 2, 2, 2, 1]


# the last level's vertex 0 has three preimages and vertex 1 one; only an
# unvalidated chain gets this far.  At depth 3 the identity fixes every
# point under level 1, so a deferred walk settles it in one pass without
# walking the uneven level, and must still refuse it
_TOP = {"size": 2, "parent": None, "perms": {"a": [1, 0]}}
UNEVEN = {
    2: [_TOP, {"size": 4, "parent": [0, 0, 0, 1], "perms": {"a": [3, 0, 1, 2]}}],
    3: [_TOP, {"size": 4, "parent": [0, 0, 1, 1], "perms": {"a": [2, 3, 0, 1]}},
        {"size": 8, "parent": [0, 0, 0, 1, 2, 2, 3, 3], "perms": {"a": [4, 5, 6, 7, 0, 1, 2, 3]}}],
}


def test_fixed_counts_refuse_a_level_without_constant_fibers():
    for (depth, levels), entry in product(UNEVEN.items(), ENTRIES):
        chain = ca.chain_from_dict({"name": "uneven", "generators": ["a"], "levels": levels},
                                   validate=False)
        with pytest.raises(ca.InvalidChainError,
                           match=f"level-{depth - 1} point 0 has 3 preimages, expected 2"):
            _walked(chain, [ca.Word.identity()], depth, 0, entry)


@pytest.mark.parametrize("parent, perm, detail", [
    ([0, 1, 0, 2], [1, 2, 3, 0], "level-1 point 1 has 1 preimages, expected 2"),
    ([0, 1, 0, -1], [1, 2, 3, 0], "level-1 point 1 has 1 preimages, expected 2"),
    ([0, 1, 0, 1], [0, 0, 1, 2], "perm[1] = 0 breaks bijectivity"),
])
def test_children_names_the_offender_of_an_unvalidated_level(parent, perm, detail):
    """A parent entry past the level below or negative, or a generator that
    is no permutation, is refused with the offender validation names."""
    level = {"size": 4, "parent": parent, "perms": {"a": perm}}
    chain = ca.chain_from_dict({"name": "stray", "generators": ["a"], "levels": [_TOP, level]},
                               validate=False)
    with pytest.raises(ca.InvalidChainError, match=f"^level 2: {re.escape(detail)}$"):
        chain.children(2)
    assert detail in {v.detail for v in ca.validate_chain(chain, 2).violations}


def test_children_refuse_a_first_generator_that_is_no_bijection():
    """An entry past the level, a negative entry and a repeated entry are
    each refused before the perm is sorted, with validation's offender.  A
    repeated entry would otherwise pass for a point, and the fixed counts
    read from its columns would be wrong."""
    def stray(perm):
        level = {"size": 4, "parent": [0, 1, 0, 1], "perms": {"a": perm}}
        return ca.chain_from_dict({"name": "stray", "generators": ["a"], "levels": [_TOP, level]},
                                  validate=False)

    for perm, detail in [([1, 2, 3, 9], "perm[3] = 9 breaks bijectivity"),
                         ([-1, 0, 1, 2], "perm[0] = -1 breaks bijectivity"),
                         ([0, 0, 1, 1], "perm[1] = 0 breaks bijectivity")]:
        with pytest.raises(ca.InvalidChainError, match=f"^level 2: {re.escape(detail)}$"):
            stray(perm).children(2)
        assert detail in {v.detail for v in ca.validate_chain(stray(perm), 2).violations}
    chain = stray([0, 0, 1, 1])
    with pytest.raises(ca.InvalidChainError, match=re.escape("perm[1] = 0 breaks bijectivity")):
        ca.fixed_set_report(chain, ca.parse_word("a", chain.alphabet), 2)


@pytest.mark.parametrize("gen", ["a", "b"])
@pytest.mark.parametrize("perm, point", [([1, 2, 3, 9], 3), ([1, 2, 3, -1], 3), ([-4, 1, 2, 3], 0)])
def test_letter_tables_refuse_a_generator_that_is_no_bijection(gen, perm, point):
    """An entry past the level or negative, in the first generator (which
    the level's points are read from) or a later one, is refused when the
    letter tables are built, with validation's offender; the error's report
    names the level, generator and point.  ``-4`` lands on the slot 0 no
    other entry takes, so only the entries' sum shows it."""
    swap = [1, 0, 3, 2]
    top = {"size": 2, "parent": None, "perms": {"a": [1, 0], "b": [1, 0]}}
    level = {"size": 4, "parent": [0, 1, 0, 1], "perms": {"a": swap, "b": swap, gen: perm}}
    chain = ca.chain_from_dict({"name": "stray", "generators": ["a", "b"], "levels": [top, level]},
                               validate=False)
    detail = f"perm[{point}] = {perm[point]} breaks bijectivity"
    with pytest.raises(ca.InvalidChainError, match=f"^level 2: {re.escape(detail)}$") as err:
        ca.fixed_set_report(chain, ca.parse_word(gen, chain.alphabet), 2)
    assert err.value.report.violations == (Violation("bijectivity", 2, gen, point, detail),)
    assert detail in {v.detail for v in ca.validate_chain(chain, 2).violations}


def _grigorchuk():
    return ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk")


@pytest.mark.parametrize("make", [_grigorchuk, ca.dihedral, ca.fragmented],
                         ids=["grigorchuk", "dihedral", "fragmented"])
def test_inverse_tables_hold_the_levels_own_ints(make):
    """An involution's inverse is its perm itself, and every other inverse
    entry is an int object one of the level's perms holds, so the letter
    tables make no int per point."""
    chain = make()
    for level in range(1, 11):
        perms = chain.letter_perms(level)
        held = {id(x) for perm in chain.level(level).perms.values() for x in perm}
        for gen in range(len(chain.alphabet)):
            perm, inverse = perms[2 * gen], perms[2 * gen + 1]
            involution = all(perm[perm[x]] == x for x in range(len(perm)))
            assert (inverse is perm) == involution
            assert all(inverse[y] == x for x, y in enumerate(perm))
            assert held.issuperset(map(id, inverse))
        assert chain.points(level) == tuple(range(chain.size(level)))
        assert held.issuperset(map(id, chain.points(level)))


def test_letter_tables_cost_a_pointer_per_entry():
    """On the depth-13 Grigorchuk chain, whose generators are involutions,
    building every letter table keeps one pointer per stored point (the
    points tuple) and no int object."""
    chain, depth = _grigorchuk(), 13
    chain.level(depth)
    tables = 1 + sum(1 for perm in chain.level(depth).perms.values()
                     if compose(perm, perm) != tuple(range(len(perm))))
    stored = sum(chain.size(level) for level in range(1, depth + 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for level in range(depth + 1):
            chain.letter_perms(level)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tables == 1
    assert grown <= tables * 8 * stored + 64 * 1024


def test_a_word_fixing_the_tested_representatives_but_not_their_subtrees_is_walked():
    """On ``fat_cantor`` the commutator ``h g h^-1 g^-1`` fixes the deep
    point over each vertex the settling pass starts from, yet moves some
    point under them, so every deferred walk falls back to reading the
    image level by level; its counts and fixed sets are the point-wise
    ones at every base level."""
    chain, depth = ca.fat_cantor(), 8
    word = ca.parse_word("h*g*h^-1*g^-1", chain.alphabet)
    image = chain.word_permutation(word, depth)
    read, read_image = [], chain_module.ChainAction._read_image

    def reading(self, *args):
        read.append(args)
        return read_image(self, *args)

    for base in range(depth + 1):
        fiber = _brute_fiber(chain, base, depth)
        # the tested points the walk starts from
        start = (base, (0,)) if base else (1, chain._children_of(1, (0,)))
        if base < depth:
            reps = compose(chain.representatives(depth, start[0]), start[1])
            assert compose(image, reps) == reps
            assert sum(image[x] == x for x in fiber) * chain.size(start[0]) < (
                len(start[1]) * chain.size(depth))
        del read[:]
        with mock.patch.object(chain_module.ChainAction, "_read_image", reading):
            (counts, fixed), = _walked(chain, [word], depth, base, "walk-imaging-all")
        # at the depth itself the word is not deferred, so it is finished
        # point by point
        assert bool(read) == (base < depth)
        fixes = [[x for x in _brute_fiber(chain, base, level) if act(chain, word, level, x) == x]
                 for level in range(max(base, 1), depth + 1)]
        assert counts == [len(f) for f in fixes]
        assert sorted(fixed) == fixes[-1]


def test_a_word_failing_the_subtree_count_is_walked_from_below_its_tested_points():
    """The same commutator's fallback walk starts one level below its
    tested points, which the fixed representatives show fixed: against a
    walk from the tested points, it saves their three gathers each (the
    representative, its image and its ancestor) at every base level below
    the depth, and its counts and fixed sets are the point-wise ones."""
    chain, depth = ca.fat_cantor(), 8
    word = ca.parse_word("h*g*h^-1*g^-1", chain.alphabet)
    image = chain.word_permutation(word, depth)
    read, read_image = [], chain_module.ChainAction._read_image

    def reading(self, image, level, lvl, points):
        read.append((lvl, len(points)))
        return read_image(self, image, level, lvl, points)

    for base in range(depth):
        lvl, points = start = (base, (0,)) if base else (1, chain._children_of(1, (0,)))
        fixes = [[x for x in _brute_fiber(chain, base, level) if act(chain, word, level, x) == x]
                 for level in range(max(base, 1), depth + 1)]
        with mock.patch.object(chain_module.ChainAction, "_read_image", reading):
            del read[:]
            from_tested = chain._descend(partial(chain._read_image, image, depth), depth, start,
                                         [], inf)[0]
            walked_from_tested = read[:]
            assert sorted(from_tested) == fixes[-1]
            del read[:]
            (counts, fixed), = _walked(chain, [word], depth, base, "walk-imaging-all")
            # the one read saved: the tested points, three gathers each
            assert walked_from_tested == [(lvl, len(points))] + read
            assert counts == [len(f) for f in fixes]
            assert sorted(fixed) == fixes[-1]


def test_farber_classic_class_words_are_settled_without_an_image_walk(monkeypatch):
    """The class-key words of the classic check on ``fragmented`` at depth
    12: the deferred ones each fix every point under their tested points,
    so each is imaged once and none is read level by level."""
    chain, depth = ca.fragmented(), 12
    words = list(ca.reduced_words(chain.alphabet, 6))
    read, imaged, images = [], [], chain.images
    read_image = chain_module.ChainAction._read_image
    monkeypatch.setattr(chain_module.ChainAction, "_read_image",
                        lambda self, *args: read.append(args) or read_image(self, *args))
    monkeypatch.setattr(chain, "images", lambda ws, level: imaged.extend(ws) or images(ws, level))
    keys, walks = chain_module.walk_classes(chain, words, depth)
    walked = {w: counts for _, w, counts, _ in walks}
    assert (len(set(keys)), len(walked), len(imaged), len(set(imaged)), len(read)) == (
        117, 117, 20, 20, 0)
    assert set(walked) == {words[keys.index(key)] for key in keys}
    assert walked == {w: [chain.fixed_count(w, level) for level in range(1, depth + 1)]
                      for w in walked}


def test_walk_refuses_levels_out_of_order(odo2):
    for level in (0, -1):
        with pytest.raises(ValueError):
            next(odo2.walk([ca.Word.identity()], level))
    for level, base in ((0, 0), (2, 3), (2, -1)):
        with pytest.raises(ValueError):
            next(reference_walk(odo2, [ca.Word.identity()], level, base))


def test_group_trivial_words_are_imaged_after_an_eighth_of_a_level(monkeypatch):
    """heisenberg(2) is nilpotent of class 2, so its class-3 candidates are
    trivial in the group and fix every point.  The walk tests at most
    ``size // 8`` points of each before it defers the word to be imaged."""
    hei, depth = ca.heisenberg(2), 6
    words = list(gamma_candidates(hei.alphabet, 3, 1, 1, max_candidates=32).words)
    assert len(words) == 32
    tested, imaged = {}, []
    apply, images = chain_module.ChainAction.apply, hei.images

    def counting(self, word, level, points):
        tested[word] = tested.get(word, 0) + len(points)
        return apply(self, word, level, points)

    monkeypatch.setattr(chain_module.ChainAction, "apply", counting)
    monkeypatch.setattr(hei, "images", lambda ws, level: imaged.extend(ws) or images(ws, level))
    walked = {i: counts for i, counts, _ in hei.walk(words, depth)}
    assert imaged == words
    assert all(0 < tested[w] <= hei.size(depth) // 8 for w in words)
    assert walked == dict.fromkeys(range(32), [hei.size(level) for level in range(1, depth + 1)])


def test_a_word_out_of_budget_only_at_the_deepest_level_is_finished_point_by_point(monkeypatch):
    """On the Grigorchuk chain at depth 13 the 10-letter ``[c, [b, a]]``
    tests 646 points at levels 1..12, within the budget of 1,024, and 592
    at level 13, past it.  ``B^2`` on heisenberg(2) at depth 5 runs out at
    its deepest level too, after 116 points, with 128 points there, past
    its budget of 128.  A word defers only above its deepest level, so
    both are finished point by point and the walk images neither.  With
    ``DEFER_SHARE`` 0 both are deferred at level 1 and imaged."""
    cases = [(_grigorchuk(), 13, "[c, [b, a]]", (646, 592)),
             (ca.heisenberg(2), 5, "B^2", (116, 128))]
    for chain, depth, text, tested in cases:
        word = ca.parse_word(text, chain.alphabet)
        levels = range(1, depth + 1)
        expected = ([chain.fixed_count(word, level) for level in levels],
                    [x for x, y in enumerate(chain.word_permutation(word, depth)) if x == y])
        images, apply = chain.images, chain_module.ChainAction.apply
        for share, want in ((chain_module.DEFER_SHARE, 0), (0, 1)):
            imaged_words, points = [], [0, 0]

            def counting(self, w, level, pts):
                points[level == depth] += len(pts)
                return apply(self, w, level, pts)

            with monkeypatch.context() as patch:
                patch.setattr(chain_module, "DEFER_SHARE", share)
                patch.setattr(chain_module.ChainAction, "apply", counting)
                patch.setattr(chain, "images",
                              lambda ws, level: imaged_words.extend(ws) or images(ws, level))
                (_, counts, fixed), = chain.walk([word], depth)
            assert len(imaged_words) == want
            assert (counts, sorted(fixed)) == expected
            if share:
                assert tuple(points) == tested


def test_a_word_whose_tested_total_meets_the_budget_is_finished_in_the_first_pass(monkeypatch):
    """The identity on odometer(2) at depth 4 tests 2 + 4 + 8 = 14 points at
    levels 1..3.  With ``DEFER_SHARE`` 14/16 its budget is 14, which the
    total meets at level 3 without passing it, so the word goes on to level
    4, its deepest, and is finished point by point with no image.  With a
    budget of 13 it is deferred at level 3 and imaged."""
    chain, depth, word = ca.odometer(2), 4, ca.Word.identity()
    images = chain.images
    for share, want in ((14 / 16, 0), (13 / 16, 1)):
        imaged = []
        with monkeypatch.context() as patch:
            patch.setattr(chain_module, "DEFER_SHARE", share)
            patch.setattr(chain, "images", lambda ws, level: imaged.extend(ws) or images(ws, level))
            (_, counts, fixed), = chain.walk([word], depth)
        assert len(imaged) == want
        assert (counts, sorted(fixed)) == ([2, 4, 8, 16], list(range(16)))


@pytest.mark.parametrize("make, depth", [(_grigorchuk, 13), (ca.fragmented, 14)],
                         ids=["grigorchuk", "fragmented"])
def test_children_and_representatives_hold_the_points_own_ints(make, depth):
    """The ``children`` columns, the ``representatives`` tables and the
    ``descendants`` columns of the three levels above are tuples of
    ``points(level)``'s own int objects, so a gather through them makes no
    int."""
    chain = make()
    for level in range(1, depth + 1):
        points = chain.points(level)
        for table in (*chain.children(level),
                      *(chain.representatives(level, base) for base in range(level)),
                      *(column for base in range(max(level - 3, 0), level)
                        for column in chain.descendants(level, base))):
            assert type(table) is tuple
            assert all(points[x] is x for x in table)


def _partition(keys):
    """Per word, the first index with its key."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


def _spell(word, gens):
    """A word over the Schreier letters ``gens`` spelled over the chain's
    letters, flattened and reduced from scratch."""
    return ca.Word.of(x for j, sign in pairs(word)
                      for x in (gens[j] if sign > 0 else gens[j].inverse()).letters)


@common
@given(st.sampled_from(ORACLE_CHAINS), st.integers(0, 2), st.data())
def test_class_keys_group_words_as_the_pair_keys_do(family, base, data):
    """At base level 0 the words are the chain's; above it they are words
    over the Schreier letters of ``G_b``, the letters of the base fiber's
    tower, keyed as the pair keys at that base level key their spellings."""
    chain, _ = family
    gens = local_candidates(chain, base, 1)[0]
    letters = st.lists(st.integers(0, 2 * len(gens) - 1), max_size=6)
    words = [w for w in map(ca.Word.of, data.draw(st.lists(letters, max_size=6))) if w.letters]
    # conjugates and inverses, so that keys collide
    conjugators = [ca.Word.of(t) for t in data.draw(st.lists(letters, max_size=3))]
    words += [conjugate(t, w) for w in words[:4] for t in conjugators]
    words += [w.inverse() for w in words[:4]]
    words = data.draw(st.permutations(words))
    assert _partition(class_keys(words)) == _partition(
        pair_class_keys(chain, base, [_spell(w, gens) for w in words]))


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_restricted_tower_is_the_base_fiber_under_the_schreier_generators(family):
    """Level ``j`` of the tower at base level ``b`` holds the level-``b + j``
    points over the basepoint at ``b``, numbered as the ``k``-th child (in
    increasing order) of each point one level up in its numbering, for
    each ``k`` in turn; its parent array numbers each point's parent, and
    each Schreier generator acts on the numbers as it acts on the points
    (``oracles.act``).  ``G_b`` is transitive on each fiber, so the tower
    validates.  A word that moves the basepoint is refused."""
    chain, depth = family
    for base in (1, 2):
        gens = local_candidates(chain, base, 1)[0]
        tower = restrict(chain, base, gens)
        assert ca.validate_chain(tower, depth - base).ok
        fiber = [0]
        for j in range(1, depth - base + 1):
            above, level = fiber, base + j
            kids = [[x for x in range(chain.size(level)) if ancestor(chain, level, x, level - 1) == v]
                    for v in above]
            fiber = [kid[k] for k in range(len(kids[0])) for kid in kids]
            assert sorted(fiber) == list(_brute_fiber(chain, base, level))
            lv = tower.level(j)
            assert lv.size == len(fiber)
            assert list(lv.parent) == [above.index(ancestor(chain, level, x, level - 1))
                                       for x in fiber]
            for name, g in zip(tower.alphabet.names, gens):
                assert list(lv.perms[name]) == [fiber.index(act(chain, g, level, x))
                                                for x in fiber]
    mover = next(w for w in ca.reduced_words(chain.alphabet, 1) if chain.apply(w, 1, (0,)) != (0,))
    with pytest.raises(ValueError, match="moves the basepoint at level 1"):
        restrict(chain, 1, [mover]).level(1)


def test_restricted_tower_is_charged_against_what_the_chain_leaves():
    """fragmented to depth 8 stores 510 points; under a budget of 600 its
    tower over level 1 may store 90, so its levels 1-5 (62 points) fit and
    level 6 (64 more) is refused, as is a localized check to depth 8."""
    chain = ca.fragmented(memory_budget=600)
    chain.level(8)
    tower = restrict(chain, 1, local_candidates(chain, 1, 1)[0])
    tower.level(5)
    with pytest.raises(ca.BudgetError, match="memory_budget=90 for chain 'fragmented over level 1'"):
        tower.level(6)
    with pytest.raises(ca.BudgetError) as err:
        ca.local_farber_check(chain, 1, max_word_len=1, depth=8)
    assert err.value.budget == "memory_budget"


@common
@given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
def test_least_rotation_is_the_least_of_all_rotations(seq):
    start = _least_start(seq)
    assert tuple(seq[start:] + seq[:start]) == min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def test_class_keys_key_each_core_once(dih, monkeypatch):
    """``a^m (a r) a^-m`` share a core."""
    words = [ca.Word.of([0] * m + [0, 2] + [1] * m) for m in range(4)]
    rotations = []
    monkeypatch.setattr(chain_module, "_least_start",
                        lambda seq: rotations.append(1) or _least_start(seq))
    assert len(set(class_keys(words))) == 1
    assert len(rotations) == 2  # the core and its inverse


@pytest.mark.parametrize("base", [0, 1])
def test_class_keys_key_each_orbit_once_on_the_farber_candidates(base, monkeypatch):
    """Work count: the classic candidates of ``fragmented`` at base 0 and
    the localized ones at base 1, words over the letters of the base
    fiber's tower, fall into 117 and 119 keys, and each key runs the least
    rotation twice (its core and its inverse); every later conjugate or
    inverse is a lookup.  The keys group the words as the pair keys at the
    base level group their spellings."""
    frag = ca.fragmented()
    pairs = local_candidates(frag, base, 6 if base == 0 else 4)[1]
    words = [w for w, _ in pairs]
    assert base or words == list(ca.reduced_words(frag.alphabet, 6))
    rotations = []
    monkeypatch.setattr(chain_module, "_least_start",
                        lambda seq: rotations.append(1) or _least_start(seq))
    keys = class_keys(words)
    assert len(set(keys)) == (117, 119)[base]
    assert len(rotations) == 2 * len(set(keys))
    assert _partition(keys) == _partition(pair_class_keys(frag, base, [w for _, w in pairs]))


def test_class_keys_of_words_outside_the_base_stabilizer_group_as_the_pair_keys_do(dih):
    """On the tower of dihedral's fibers over the level-1 basepoint, each
    word of up to 4 letters that moves the tower's level-1 basepoint (so
    its spelling lies in ``G_1`` but not in ``G_2``), beside its inverse and
    each of its conjugates by words of up to 2 letters, is grouped as the
    pair keys at level 1 group their spellings: in one key, whose words fix
    equally many points of every tower level.  The pair keys at level 2,
    the first base level whose stabilizer the words leave, key some of
    those conjugates apart."""
    gens = local_candidates(dih, 1, 1)[0]
    tower = restrict(dih, 1, gens)
    outside = [w for w in ca.reduced_words(gens, 4) if tower.apply(w, 1, (0,)) != (0,)]
    conjugators = [ca.Word.identity(), *ca.reduced_words(gens, 2)]
    split = 0
    for w in outside:
        for t in conjugators:
            words = [w, conjugate(t, w), w.inverse()]
            spelled = [_spell(x, gens) for x in words]
            assert _partition(class_keys(words)) == _partition(
                pair_class_keys(dih, 1, spelled)) == [0, 0, 0], (w, t)
            counts = [[sum(act(tower, x, level, y) == y for y in range(tower.size(level)))
                       for level in range(1, 5)] for x in words]
            assert counts[0] == counts[1] == counts[2], (w, t)
            split += _partition(pair_class_keys(dih, 2, spelled))[1] != 0
    assert outside and split  # some conjugates are keyed apart at level 2


def test_class_keys_key_rotations_of_a_long_core_in_linear_time():
    """50 rotations of one aperiodic 20,000-letter core: storing the key
    under all 20,000 rotations would copy 800 million letters, past the
    budget of twice the input's million, so each rotation is keyed on its
    own, running the least rotation twice, and all share one key."""
    rng = random.Random(20_000)
    core = [2 * rng.randrange(2) for _ in range(20_000)]
    words = [ca.Word.of(core[r:] + core[:r]) for r in range(0, 20_000, 400)]
    rotations = []
    least = chain_module._least_start
    with mock.patch.object(chain_module, "_least_start",
                           lambda seq: rotations.append(1) or least(seq)):
        start = time.perf_counter()
        keys = class_keys(words)
        assert time.perf_counter() - start < 5
    assert len(set(keys)) == 1
    assert len(rotations) == 2 * len(words)


def test_class_keys_are_linear_in_a_long_periodic_core():
    """``(a*r)^100000``: every rotation by an even step is the same, the
    case where a least rotation found by comparing slices is quadratic."""
    w = ca.Word.of([0, 2] * 100_000)
    start = time.perf_counter()
    key, = class_keys([w])
    assert time.perf_counter() - start < 1
    assert len(key) == 200_000


_REDUCED = st.lists(st.integers(0, 5), max_size=10).map(ca.Word.of)


@common
@given(_REDUCED, _REDUCED, st.sampled_from([1, -1]))
def test_conjugator_carries_a_word_to_its_conjugates(f, t, sign):
    assume(f.letters)
    power = f if sign > 0 else f.inverse()
    w = t * power * t.inverse()
    g = ca.Word(chain_module.conjugator(f, w))
    assert g * power * g.inverse() == w


@common
@given(_REDUCED, _REDUCED)
def test_conjugator_refuses_words_of_different_keys(f, w):
    assume(f.letters and w.letters and class_keys([f]) != class_keys([w]))
    with pytest.raises(ValueError, match="different conjugacy keys"):
        chain_module.conjugator(f, w)


def test_conjugator_is_linear_in_a_long_periodic_core():
    """``(a^316 b)^316``, about 10^5 letters, against a conjugate of its
    inverse rotated off its period: a search rotation by rotation compares
    hundreds of letters at each of the ~10^5 starts."""
    f = ca.Word.of(([0] * 316 + [2]) * 316)
    core = f.inverse().letters
    t = ca.Word.of([4, 2, 3])
    w = t * ca.Word.of(core[1_000:] + core[:1_000]) * t.inverse()
    start = time.perf_counter()
    g = ca.Word(chain_module.conjugator(f, w))
    assert time.perf_counter() - start < 0.5
    assert g * f.inverse() * g.inverse() == w


@common
@given(st.sampled_from(_FAMILIES), st.data())
def test_ancestor_tables_and_fibers_match_parent_walk(family, data):
    chain, max_depth = family
    level = data.draw(st.integers(0, max_depth))
    base = data.draw(st.integers(0, level))
    table = chain.ancestors(level, base)
    brute = [ancestor(chain, level, x, base) for x in range(chain.size(level))]
    assert list(table) == brute
    x = data.draw(st.integers(0, chain.size(level) - 1))
    assert chain.ancestors(level, base)[x] == brute[x]
    vertex = data.draw(st.integers(0, chain.size(base) - 1))
    assert chain.fiber(base, level, vertex) == tuple(
        y for y in range(chain.size(level)) if brute[y] == vertex)
    if level > base:
        below = [y for y in range(chain.size(base + 1))
                 if ancestor(chain, base + 1, y, base) == vertex]
        assert [column[vertex] for column in chain.children(base + 1)] == below
        rep = chain.representatives(level, base)[vertex]
        assert brute[rep] == vertex


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f[0].name)
def test_fibers_match_parent_walk_at_every_vertex(family):
    chain, max_depth = family
    for level in range(min(max_depth, 4) + 1):
        for base in range(level + 1):
            brute = [ancestor(chain, level, y, base) for y in range(chain.size(level))]
            for vertex in range(chain.size(base)):
                assert chain.fiber(base, level, vertex) == tuple(
                    y for y in range(chain.size(level)) if brute[y] == vertex)
    for base, level, vertex in ((2, 1, 0), (-1, 1, 0), (1, 2, chain.size(1))):
        with pytest.raises(ValueError):
            chain.fiber(base, level, vertex)
    for level, base in ((1, 1), (1, 2), (1, -1)):
        for table in (chain.representatives, chain.descendants):
            with pytest.raises(ValueError):
                table(level, base)


@pytest.mark.parametrize("bases", [[8, 7, 6, 5, 4, 3, 2, 1], [1, 2, 3, 4, 5, 6, 7, 8],
                                   [4, 7, 1, 8, 2, 6, 3, 5]])
def test_ancestor_tables_cost_one_gather_per_level_in_any_order(monkeypatch, bases):
    """Each base level's table costs one gather per level from it to ``level``,
    in any request order; only the requested pairs are kept, and none is rebuilt."""
    chain = ca.odometer(2)
    chain.level(9)
    gathers = []
    monkeypatch.setattr(chain_module, "compose", lambda p, q: gathers.append(1) or compose(p, q))
    tables = {b: chain.ancestors(9, b) for b in bases}
    cost = sum(9 - b for b in bases)
    assert len(gathers) == cost
    assert sorted(chain._ancestor_tables) == sorted((9, b) for b in bases)
    assert all(chain.ancestors(9, b) is tables[b] for b in bases)
    assert len(gathers) == cost
    for b in bases:
        assert list(tables[b]) == [ancestor(chain, 9, x, b) for x in range(chain.size(9))]


def test_images_share_prefixes(frag, monkeypatch):
    """One gather per extended prefix, and no more live prefix images than letters."""
    words = list(ca.reduced_words(frag.alphabet, 3))[::-1]
    frag.letter_perms(5)  # built before counting: its involution checks gather too
    gathers = []
    monkeypatch.setattr(chain_module, "compose", lambda p, q: gathers.append(1) or compose(p, q))
    stream = frag.images(words, 5)
    order = []
    for i, image in stream:
        assert len(stream.gi_frame.f_locals["stack"]) <= 3 + 1
        assert image == _brute_image(frag, words[i], 5)
        order.append(i)
    assert sorted(order) == list(range(len(words)))
    assert order != list(range(len(words)))  # visited in letter order, reported by index
    # the first letter's image is its permutation; every later letter is one gather
    assert len(gathers) == sum(1 for w in words if len(w) >= 2)


def test_compose_and_invert():
    p, q = (1, 2, 0, 3), (3, 0, 2, 1)
    assert compose(p, q) == tuple(p[v] for v in q)
    assert compose(invert(p), p) == (0, 1, 2, 3)
    assert compose((0,), (0,)) == (0,)
    assert count_fixed(p) == 1
    assert compose(p, ()) == ()


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f[0].name)
def test_core_membership_matches_pointwise_oracle(family):
    chain, max_depth = family
    words = [ca.Word.identity(), *ca.reduced_words(chain.alphabet, 2)]
    for w in words:
        for level in range(max_depth + 1):
            for base in range(level + 1):
                expected = stabilizer_contains(chain, w, base) and all(
                    act(chain, w, level, x) == x for x in _brute_fiber(chain, base, level))
                assert core_membership(chain, w, base, level) == expected, (w, base, level)


@common
@given(st.sampled_from(ORACLE_CHAINS), st.data())
def test_density_profile_matches_pointwise_count(family, data):
    chain, max_depth = family
    w = ca.Word.of(data.draw(_letters(chain, 4)))
    assume(w.letters)
    depth = data.draw(st.integers(0, max_depth))
    center = data.draw(st.integers(0, chain.size(depth) - 1))
    profile = ca.density_profile(chain, w, ca.PointApprox(depth, center))
    assert list(profile.entries) == density_entries(chain, w, depth, center)
