"""Property suite over randomly drawn chains, words, levels, and points."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import cantoract as ca

from oracles import (act, affine_element, affine_fixed_count, core_membership, distance,
                     from_pairs, stabilizer_contains, transversal)

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
