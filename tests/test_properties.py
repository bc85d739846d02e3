"""Property suite over randomly drawn chains, words, levels, and points."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module

from conftest import ORACLE_CHAINS
from oracles import (act, affine_element, affine_fixed_count, children_table, core_membership,
                     descendant, distance, from_pairs, relabel, stabilizer_contains, transversal)

_CHAINS = [
    ca.odometer(2),
    ca.odometer(3),
    ca.dihedral(),
    ca.fragmented(),
    ca.heisenberg(2),
    ca.toral(2, 2),
]

MAX_LEVEL = 6

chains = st.sampled_from(_CHAINS)


@st.composite
def chain_word(draw, max_len=5):
    chain = draw(chains)
    m = len(chain.alphabet)
    letters = draw(st.lists(st.integers(0, 2 * m - 1), max_size=max_len))
    return chain, ca.Word.of(letters)


@st.composite
def chain_word_level_point(draw):
    chain, word = draw(chain_word())
    level = draw(st.integers(1, MAX_LEVEL))
    point = draw(st.integers(0, chain.size(level) - 1))
    return chain, word, level, point


def _word_for(draw, chain, max_len=5):
    m = len(chain.alphabet)
    letters = draw(st.lists(st.integers(0, 2 * m - 1), max_size=max_len))
    return ca.Word.of(letters)


@st.composite
def chain_two_words_level_point(draw):
    chain = draw(chains)
    u = _word_for(draw, chain)
    v = _word_for(draw, chain)
    level = draw(st.integers(1, MAX_LEVEL))
    point = draw(st.integers(0, chain.size(level) - 1))
    return chain, u, v, level, point


common = settings(max_examples=60, deadline=None)

# the affine families as (chain, family, base, dimension of the space,
# deepest level walked)
_AFFINE = [
    (ca.odometer(2), "odometer", 2, 1, 8),
    (ca.odometer(3), "odometer", 3, 1, 8),
    (ca.toral(2, 2), "toral", 2, 2, 8),
    (ca.dihedral(), "dihedral", 2, 1, 8),
    (ca.heisenberg(2), "heisenberg", 2, 2, 6),
    (ca.heisenberg(3), "heisenberg", 3, 2, 4),
]


@st.composite
def affine_words(draw):
    """An affine family and a few words over it, each the letters of up to
    four powers ``g^(t * base^j)``, so that some words fix whole levels."""
    chain, family, base, dim, depth = draw(st.sampled_from(_AFFINE))
    power = st.tuples(st.integers(0, len(chain.alphabet) - 1), st.integers(-2, 2),
                      st.integers(0, 4))
    words = []
    for powers in draw(st.lists(st.lists(power, max_size=4), min_size=1, max_size=4)):
        words.append([(gen, 1 if t > 0 else -1) for gen, t, j in powers
                      for _ in range(abs(t) * base**j)])
    return chain, family, base, dim, depth, words


@common
@given(chain_two_words_level_point())
def test_action_axiom(cuvlp):
    chain, u, v, level, x = cuvlp
    assert act(chain, u * v, level, x) == act(chain, u, level, act(chain, v, level, x))
    assert act(chain, u * u.inverse(), level, x) == x


@common
@given(chain_word_level_point())
def test_equivariance(cwlp):
    chain, word, level, x = cwlp
    if level >= MAX_LEVEL:
        level = MAX_LEVEL - 1
    lv = chain.level(level + 1)
    x_up = x % chain.size(level + 1)
    assert lv.parent[act(chain, word, level + 1, x_up)] == act(
        chain, word, level, lv.parent[x_up]
    )


@common
@given(chain_word(), st.integers(1, MAX_LEVEL - 1))
def test_fixed_set_projection_and_ratio_monotone(cw, level):
    chain, word = cw
    upper = chain.word_permutation(word, level + 1)
    lower = chain.word_permutation(word, level)
    parent = chain.level(level + 1).parent
    fixed_below = {x for x, v in enumerate(lower) if x == v}
    for x, v in enumerate(upper):
        if x == v:
            assert parent[x] in fixed_below
    ratio_up = Fraction(sum(1 for x, v in enumerate(upper) if x == v), len(upper))
    ratio_dn = Fraction(len(fixed_below), len(lower))
    assert ratio_up <= ratio_dn


@common
@given(chain_word(), st.integers(1, MAX_LEVEL - 1))
def test_stabilizer_monotone(cw, level):
    chain, word = cw
    if stabilizer_contains(chain, word, level + 1):
        assert stabilizer_contains(chain, word, level)


@common
@given(chains, st.integers(1, 4))
def test_transversal_and_schreier(chain, level):
    reps = transversal(chain, level)
    for x, t in enumerate(reps):
        assert act(chain, t, level, 0) == x
    for s in ca.schreier_generators(chain, level):
        assert s.letters
        assert stabilizer_contains(chain, s, level)


@common
@given(
    chains,
    st.integers(1, MAX_LEVEL),
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_ultrametric_and_isometry(chain, depth, seeds):
    n = chain.size(depth)
    x, y, z = (ca.PointApprox(depth, s % n) for s in seeds)
    dxy = distance(chain, x, y).value
    dyz = distance(chain, y, z).value
    dxz = distance(chain, x, z).value
    assert dxz <= max(dxy, dyz)
    for gen in range(len(chain.alphabet)):
        g = ca.Word.generator(gen)
        gx, gy = (ca.PointApprox(depth, act(chain, g, depth, p.index)) for p in (x, y))
        assert distance(chain, gx, gy).value == dxy


@common
@given(chain_two_words_level_point())
def test_conjugation_invariance(cuvlp):
    chain, word, u, level, _ = cuvlp
    conj = u * word * u.inverse()
    assert chain.fixed_count(conj, level) == chain.fixed_count(word, level)


@common
@given(chain_word(), st.integers(0, 2), st.integers(2, MAX_LEVEL))
def test_core_monotone(cw, base, level):
    chain, word = cw
    if base >= level:
        base = level - 1
    if core_membership(chain, word, base, level):
        if level - 1 >= base:
            assert core_membership(chain, word, base, level - 1)


@common
@given(chains, st.integers(1, MAX_LEVEL), st.integers(0, 2**32 - 1))
def test_sampling_in_range_and_deterministic(chain, depth, seed):
    p = ca.sample_uniform(chain, depth, seed)
    assert 0 <= p.index < chain.size(depth)
    assert ca.sample_uniform(chain, depth, seed) == p


@common
@given(chain_word(max_len=4), st.integers(2, MAX_LEVEL))
def test_report_invariants(cw, depth):
    chain, word = cw
    if not word.letters:
        return
    rep = ca.fixed_set_report(chain, word, depth)
    assert rep.interior_bound <= rep.fixed_ratio(depth)
    assert rep.hol_estimate >= 0
    listed = {(c.level, c.vertex) for c in rep.max_fixed_cylinders}
    assert len(listed) == len(rep.max_fixed_cylinders)
    for c in rep.max_fixed_cylinders:
        assert c.level <= rep.interior_scan_max_level


@common
@given(affine_words())
def test_walk_counts_match_the_affine_normal_forms(case):
    """Every fixed count ``walk`` reads, at every level, equals the count
    the family's group normal form gives in closed form, with no level
    array read; the words are walked in one call, so deferred words are
    checked too."""
    chain, family, base, dim, depth, letters = case
    words = [from_pairs(w) for w in letters]
    seen = []
    for i, counts, fixed in chain.walk(words, depth):
        element = affine_element(family, letters[i], dim)
        assert counts == [affine_fixed_count(family, element, base, level)
                          for level in range(1, depth + 1)], (family, letters[i])
        assert len(fixed) == counts[-1]
        seen.append(i)
    assert sorted(seen) == list(range(len(words)))


@st.composite
def relabelled_towers(draw):
    """A bundled family to a depth of at most 5, its copy with every level's
    points renamed by a seeded shuffle that fixes the basepoint, the
    renaming, and a few words, the identity among them."""
    chain, depth = draw(st.sampled_from(ORACLE_CHAINS))
    depth = draw(st.integers(2, min(depth, 5)))
    shuffle = random.Random(draw(st.integers(0, 2**32 - 1))).shuffle
    sigma = [[0]]
    for level in range(1, depth + 1):
        rest = list(range(1, chain.size(level)))
        shuffle(rest)
        sigma.append([0, *rest])
    words = [ca.Word.of(w) for w in draw(st.lists(
        st.lists(st.integers(0, 2 * len(chain.alphabet) - 1), max_size=6), max_size=5))]
    return chain, relabel(chain, depth, sigma), sigma, [ca.Word.identity(), *words], depth


@common
@given(relabelled_towers(), st.data())
def test_a_relabelled_tower_walks_and_scores_the_same(case, data):
    """Renaming the points changes neither a word's fixed counts nor its
    fixed set (up to the renaming), nor the Farber and LCS reports' counts,
    on towers whose ``children`` tables are sorted by parent rather than
    read as slices, with every word walked both ways: deferred at level 1
    and settled or read from its image (``DEFER_SHARE`` 0), and at the
    default share.  The kernel's children and descendant tables (whose
    first column is the representatives) of both towers match their
    point-wise definitions.  The local
    Farber check is left out: its Schreier basis lists the base level's
    points in label order, so its candidate words change with the names."""
    chain, copy, sigma, words, depth = case
    for share in (0, chain_module.DEFER_SHARE):
        with mock.patch.object(chain_module, "DEFER_SHARE", share):
            walked = {i: (counts, fixed) for i, counts, fixed in chain.walk(words, depth)}
            renamed = {i: (counts, fixed) for i, counts, fixed in copy.walk(words, depth)}
        assert sorted(walked) == sorted(renamed) == list(range(len(words)))
        for i, (counts, fixed) in walked.items():
            assert renamed[i][0] == counts
            assert sorted(renamed[i][1]) == sorted(sigma[depth][x] for x in fixed)
    for tower in (chain, copy):
        for level in range(1, depth + 1):
            assert list(tower.children(level)) == children_table(tower, level)
        level = data.draw(st.integers(1, depth))
        base = data.draw(st.integers(0, level - 1))
        assert [list(column) for column in tower.descendants(level, base)] == [
            [descendant(tower, level, base, j, v) for v in range(tower.size(base))]
            for j in range(tower.size(level) // tower.size(base))]
    farber = [ca.farber_check(tower, max_word_len=2, depth=depth) for tower in (chain, copy)]
    assert farber[0] == farber[1]
    lcs = [[(c.best_word, c.best and (c.best.fixed_counts, c.best.hol_estimate),
             c.all_indistinguishable)
            for c in ca.witness_search(tower, 2, max_word_len=1, conj_len=1, depth=depth,
                                       max_candidates=16).classes]
           for tower in (chain, copy)]
    assert lcs[0] == lcs[1]
