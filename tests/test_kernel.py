"""The permutation kernel against independent derivations.

Word images built over shared prefixes, the top-down fixed counts of one
deep image, the memoized ancestor, children and representative tables, and
the core and density answers read from them are each compared with a
brute-force oracle: point-by-point action for images and fixed counts, a
parent walk for tables and fibers.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module
from cantoract.chain import compose, count_fixed, invert

from oracles import act, stabilizer_contains

# every builder family at depths small enough for brute force
_FAMILIES = [
    (ca.odometer(2), 6),
    (ca.toral(2, 2), 4),
    (ca.dihedral(), 6),
    (ca.heisenberg(2), 4),
    (ca.fragmented(), 6),
    (ca.fat_cantor(), 4),
    (ca.adding_machine_chain(2), 6),
]

common = settings(max_examples=60, deadline=None)


def _letters(chain, max_len):
    m = len(chain.alphabet)
    return st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from((1, -1))),
                    max_size=max_len)


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


def _brute_ancestor(chain, level, x, base_level):
    while level > base_level:
        x = chain.level(level).parent[x]
        level -= 1
    return x if base_level > 0 else 0


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
                 if _brute_ancestor(chain, level, y, base_level) == 0)


@common
@given(chain_words_level())
def test_fixed_counts_match_brute_force(cwl):
    chain, words, depth = cwl
    for i, image in chain.images(words, depth):
        brute = {level: _brute_image(chain, words[i], level) for level in range(1, depth + 1)}
        for base in range(depth):
            counts = chain.fixed_walk(image, depth, base)[0]
            levels = range(max(base, 1), depth + 1)
            assert len(counts) == len(levels)
            for level, count in zip(levels, counts):
                assert count == count_fixed(brute[level], _brute_fiber(chain, base, level))
        for level, count in enumerate(chain.fixed_walk(image, depth)[0], 1):
            assert count == chain.fixed_count(words[i], level)


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f[0].name)
def test_fixed_counts_of_the_identity_are_whole_fibers(family):
    chain, depth = family
    image = tuple(range(chain.size(depth)))
    for base in range(depth):
        assert chain.fixed_walk(image, depth, base)[0] == [
            len(_brute_fiber(chain, base, level)) for level in range(max(base, 1), depth + 1)]


def test_fixed_counts_stop_once_the_fixed_set_empties(monkeypatch):
    odo = ca.odometer(2)
    a = odo.word_permutation(ca.Word.generator(0), 8)  # moves both level-1 points
    assert odo.fixed_walk(a, 8)[0] == [0] * 8
    gathers = []
    monkeypatch.setattr(chain_module, "compose", lambda p, q: gathers.append(q) or compose(p, q))
    assert odo.fixed_walk(a, 8)[0] == [0] * 8
    assert odo.fixed_walk(a, 8, 1)[0] == [0] * 8
    # level 1 alone is tested: the root's two children are gathered one
    # column at a time, then three gathers over them; at base level 1 three
    # over the basepoint; nothing deeper either time
    assert [len(q) for q in gathers] == [1, 1, 2, 2, 2, 1, 1, 1]


def test_fixed_counts_refuse_a_level_without_constant_fibers():
    # level-1 point 0 has three preimages and point 1 one; only an
    # unvalidated chain gets this far
    data = {"name": "uneven", "generators": ["a"], "levels": [
        {"size": 2, "parent": None, "perms": {"a": [1, 0]}},
        {"size": 4, "parent": [0, 0, 0, 1], "perms": {"a": [3, 0, 1, 2]}},
    ]}
    chain = ca.chain_from_dict(data, validate=False)
    with pytest.raises(ca.InvalidChainError, match="level-1 point 0 has 3 preimages, expected 2"):
        chain.fixed_walk((0, 1, 2, 3), 2)


@common
@given(st.sampled_from(_FAMILIES), st.data())
def test_ancestor_tables_and_fibers_match_parent_walk(family, data):
    chain, max_depth = family
    level = data.draw(st.integers(0, max_depth))
    base = data.draw(st.integers(0, level))
    table = chain.ancestors(level, base)
    brute = [_brute_ancestor(chain, level, x, base) for x in range(chain.size(level))]
    assert list(table) == brute
    x = data.draw(st.integers(0, chain.size(level) - 1))
    assert chain.ancestors(level, base)[x] == brute[x]
    vertex = data.draw(st.integers(0, chain.size(base) - 1))
    assert chain.fiber(base, level, vertex) == tuple(
        y for y in range(chain.size(level)) if brute[y] == vertex)
    if level > base:
        below = [y for y in range(chain.size(base + 1))
                 if _brute_ancestor(chain, base + 1, y, base) == vertex]
        assert [column[vertex] for column in chain.children(base + 1)] == below
        rep = chain.representatives(level, base)[vertex]
        assert brute[rep] == vertex


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f[0].name)
def test_fibers_match_parent_walk_at_every_vertex(family):
    chain, max_depth = family
    for level in range(min(max_depth, 4) + 1):
        for base in range(level + 1):
            brute = [_brute_ancestor(chain, level, y, base) for y in range(chain.size(level))]
            for vertex in range(chain.size(base)):
                assert chain.fiber(base, level, vertex) == tuple(
                    y for y in range(chain.size(level)) if brute[y] == vertex)
    for base, level, vertex in ((2, 1, 0), (-1, 1, 0), (1, 2, chain.size(1))):
        with pytest.raises(ValueError):
            chain.fiber(base, level, vertex)


@pytest.mark.parametrize("bases", [[8, 7, 6, 5, 4, 3, 2, 1], [1, 2, 3, 4, 5, 6, 7, 8],
                                   [4, 7, 1, 8, 2, 6, 3, 5]])
def test_ancestor_tables_cost_one_gather_per_level_in_any_order(monkeypatch, bases):
    """Every base level of one level costs one gather, and no table is rebuilt."""
    chain = ca.odometer(2)
    chain.level(9)
    gathers = []
    monkeypatch.setattr(chain_module, "compose", lambda p, q: gathers.append(1) or compose(p, q))
    tables = {b: chain.ancestors(9, b) for b in bases}
    assert len(gathers) == 7  # base levels 7..1; level 8's table is the parent array
    assert all(chain.ancestors(9, b) is tables[b] for b in bases)
    assert len(gathers) == 7


def test_images_share_prefixes(frag, monkeypatch):
    """One gather per extended prefix, and no more live prefix images than letters."""
    words = list(ca.reduced_words(frag.alphabet, 3))[::-1]
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
    assert count_fixed(q, (1, 2)) == 1
    assert compose(p, ()) == ()
    assert count_fixed(p, ()) == 0


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f[0].name)
def test_core_membership_matches_pointwise_oracle(family):
    chain, max_depth = family
    words = [ca.Word.identity(), *ca.reduced_words(chain.alphabet, 2)]
    for w in words:
        for level in range(max_depth + 1):
            for base in range(level + 1):
                expected = stabilizer_contains(chain, w, base) and all(
                    act(chain, w, level, x) == x for x in _brute_fiber(chain, base, level))
                assert ca.core_membership(chain, w, base, level) == expected, (w, base, level)


@common
@given(st.sampled_from(_FAMILIES), st.data())
def test_density_profile_matches_pointwise_count(family, data):
    chain, max_depth = family
    w = ca.Word.of(data.draw(_letters(chain, 4)))
    assume(w.letters)
    depth = data.draw(st.integers(0, max_depth))
    center = data.draw(st.integers(0, chain.size(depth) - 1))
    profile = ca.density_profile(chain, w, ca.PointApprox(depth, center))
    assert len(profile.entries) == depth + 1
    for level, entry in enumerate(profile.entries):
        vertex = _brute_ancestor(chain, depth, center, level)
        fiber = [y for y in range(chain.size(depth))
                 if _brute_ancestor(chain, depth, y, level) == vertex]
        fixed = sum(1 for y in fiber if act(chain, w, depth, y) == y)
        assert entry == Fraction(fixed, len(fiber))
