from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module
from cantoract.chain import class_keys, restrict
from cantoract.errors import BudgetError
from cantoract.farber import FAIL, INDISTINGUISHABLE, PASS, FarberReport, local_candidates
from cantoract.words import check_word_budget, conjugate, reduced_words

import oracles
from conftest import ORACLE_CHAINS, word


def test_dihedral_reflection_passes(dih):
    rep = ca.farber_check(dih, max_word_len=2, depth=10, tolerance=Fraction(1, 100))
    r = word(dih, "r")
    entry = next(w for w in rep.words if w.word == r)
    assert entry.verdict == PASS
    assert [ratio for _, ratio in entry.trajectory] == [Fraction(2, 2**l) for l in range(1, 11)]
    assert rep.overall == PASS


def test_fragmented_fails_at_half(frag):
    rep = ca.farber_check(frag, max_word_len=1, depth=10, tolerance=Fraction(1, 3))
    g = word(frag, "g")
    entry = next(w for w in rep.words if w.word == g)
    assert entry.verdict == FAIL
    assert all(ratio == Fraction(1, 2) for level, ratio in entry.trajectory if level >= 2)
    assert rep.overall == FAIL


def test_odometer_passes(odo2):
    rep = ca.farber_check(odo2, max_word_len=3, depth=10, tolerance=Fraction(1, 100))
    assert rep.overall == PASS
    for entry in rep.words:
        assert entry.verdict == PASS
        # a^m fixes everything at levels with 2^l | m and nothing elsewhere
        m = sum(s for _, s in oracles.pairs(entry.word))
        for level, ratio in entry.trajectory:
            assert ratio == (1 if m % 2**level == 0 else 0)


def test_explicit_word_list(dih):
    words = [word(dih, "r"), word(dih, "r^2"), word(dih, "a^4")]
    rep = ca.farber_check(dih, words=words, depth=8, tolerance=Fraction(1, 64))
    verdicts = {ca.render_word(w.word, dih.alphabet): w.verdict for w in rep.words}
    assert verdicts["r"] == PASS
    # r^2 does not freely reduce but acts as the identity at every level
    assert verdicts["r^2"] == INDISTINGUISHABLE
    assert verdicts["a^4"] == PASS


def test_formal_identity_like_words(dih):
    rr = word(dih, "r") * word(dih, "r")
    assert rr.letters  # same-sign letters never cancel: formally nonidentity
    # a formally nonidentity word acting as identity at this depth
    rep = ca.farber_check(dih, words=[word(dih, "a").power(256)], depth=8)
    assert rep.words[0].verdict == INDISTINGUISHABLE
    assert rep.overall == PASS  # indistinguishable words are excluded


def test_identity_word_rejected(dih):
    with pytest.raises(ValueError):
        ca.farber_check(dih, words=[ca.Word.identity()], depth=4)
    with pytest.raises(ValueError):
        ca.farber_check(dih, depth=4, tolerance=Fraction(3, 2))


def test_no_candidate_is_refused(frag):
    """A pass over no candidate would be vacuous, so an empty word list or
    a word cap of 0 is a ValueError, as the identity word is."""
    for check in (lambda: ca.farber_check(frag, words=[], depth=3),
                  lambda: ca.farber_check(frag, max_word_len=0, depth=3),
                  lambda: ca.local_farber_check(frag, 1, max_word_len=0, depth=3)):
        with pytest.raises(ValueError, match="no candidate words"):
            check()


def test_a_ratio_equal_to_the_tolerance_fails(frag, dih):
    """A candidate passes only once its depth ratio is strictly below the
    tolerance.  ``g`` fixes half of every ``fragmented`` level from level 2
    on, so at tolerance 1/2 the classic check fails it; the dihedral ``r``
    fixes 2 of the 32 points over the level-1 basepoint at depth 6, so the
    localized check at base 1 fails it at tolerance 1/16.  Both pass just
    above their ratio."""
    g = word(frag, "g")
    for tolerance, verdict in ((Fraction(1, 2), FAIL), (Fraction(513, 1024), PASS)):
        rep = ca.farber_check(frag, words=[g], depth=6, tolerance=tolerance)
        assert rep.words[0].trajectory[-1] == (6, Fraction(1, 2))
        assert (rep.words[0].verdict, rep.overall) == (verdict, verdict)
    r = word(dih, "r")
    for tolerance, verdict in ((Fraction(1, 16), FAIL), (Fraction(1, 15), PASS)):
        rep = ca.local_farber_check(dih, 1, max_word_len=1, depth=6, tolerance=tolerance)
        entry = next(w for w in rep.words if w.word == r)
        assert entry.trajectory[-1] == (6, Fraction(1, 16))
        assert entry.verdict == verdict


def test_trajectory_non_increasing(frag, dih):
    for chain in (frag, dih):
        rep = ca.farber_check(chain, max_word_len=3, depth=8)
        for entry in rep.words:
            ratios = [r for _, r in entry.trajectory]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_core_membership(frag, dih):
    g = word(frag, "g")
    assert oracles.core_membership(frag, g, 1, 6)
    assert not oracles.core_membership(dih, word(dih, "r"), 1, 3)
    assert oracles.core_membership(dih, ca.Word.identity(), 1, 3)
    assert oracles.core_membership(dih, ca.Word.identity(), 0, 5)


def test_core_monotone(frag, dih, hei2):
    for chain in (frag, dih, hei2):
        for w in ca.reduced_words(chain.alphabet, 2):
            for k in (0, 1):
                for i in range(k + 1, 6):
                    if oracles.core_membership(chain, w, k, i):
                        assert oracles.core_membership(chain, w, k, i - 1) or i - 1 < k


# exact word-problem oracles for the three probe groups, computed over the
# integers (independent of the tower)

def _odometer_is_identity(letters) -> bool:
    return sum(s for _, s in letters) == 0


def _dihedral_is_identity(letters) -> bool:
    sign, shift = 1, 0  # x -> sign*x + shift
    for gen, s in reversed(letters):
        if gen == 0:
            shift += s
        else:
            sign, shift = -sign, -shift
    return sign == 1 and shift == 0


def _heisenberg_is_identity(letters) -> bool:
    a = b = c = 0  # (x, y) -> (x + a, y + b*x + c)
    for gen, s in reversed(letters):
        if gen == 0:
            da, db, dc = s, 0, 0
        elif gen == 1:
            da, db, dc = 0, s, 0
        else:
            da, db, dc = 0, 0, s
        c = c + dc + db * a
        a += da
        b += db
    return a == b == c == 0


def test_residual_finiteness_probe(odo2, dih, hei2):
    """Every short word that is not the identity of the acting group exits the
    depth-truncated core by depth 10; identity elements never do."""
    cases = (
        (odo2, _odometer_is_identity, 10),
        (dih, _dihedral_is_identity, 10),
        (hei2, _heisenberg_is_identity, 6),
    )
    for chain, oracle, max_depth in cases:
        for w in ca.reduced_words(chain.alphabet, 3):
            exits = next(
                (d for d in range(1, max_depth + 1) if not oracles.core_membership(chain, w, 0, d)),
                None,
            )
            if oracle(oracles.pairs(w)):
                assert exits is None, ca.render_word(w, chain.alphabet)
            else:
                assert exits is not None, ca.render_word(w, chain.alphabet)


def test_local_candidates_budget(frag):
    with pytest.raises(BudgetError) as err:
        local_candidates(frag, 3, 2, max_generators=2)
    assert err.value.budget == "schreier_generators"


def test_local_candidates_keep_the_word_budget(toral22):
    # 65 Schreier generators at level 3: ~2.2 million words up to length 3,
    # refused before any is built
    with pytest.raises(BudgetError) as err:
        local_candidates(toral22, 3, 3)
    assert err.value.budget == "word_budget"
    assert str(err.value) == "word enumeration exceeded budget of 50000 words"


@pytest.mark.parametrize("chain", [chain for chain, _ in ORACLE_CHAINS], ids=lambda c: c.name)
def test_local_candidates_are_the_reduced_flattened_words(chain):
    """Candidates are the words over the Schreier letters in canonical
    order, and their spellings, built by prefix extension, are the
    reference builder's, which flattens every word over the Schreier
    letters, reduces it from scratch and drops repeats: there are none to
    drop.  Levels 0-5, word
    length 2 over up to 64 Schreier letters and 1 past that."""
    for level in range(6):
        count = chain.size(level) * (len(chain.alphabet) - 1) + 1
        max_len = 2 if count <= 64 else 1
        gens, candidates = local_candidates(chain, level, max_len, max_generators=count)
        assert [w for w, _ in candidates] == list(reduced_words(gens, max_len))
        assert [w for _, w in candidates] == oracles.local_candidates(chain, level, max_len)
        assert len(candidates) == check_word_budget(len(gens), max_len)


def test_local_farber_fragmented_passes(frag):
    rep = ca.local_farber_check(frag, 1, max_word_len=4, depth=10, tolerance=Fraction(1, 64))
    assert rep.overall == PASS
    verdicts = {ca.render_word(w.word, frag.alphabet): w.verdict for w in rep.words}
    assert verdicts["g"] == INDISTINGUISHABLE  # g is core: trivial on the even fiber
    assert verdicts["h^2"] == PASS  # a shifted odometer on the evens
    # localized trajectories are non-increasing
    for entry in rep.words:
        ratios = [r for _, r in entry.trajectory]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_local_farber_odometer_trivial(odo2):
    rep = ca.local_farber_check(odo2, 1, max_word_len=3, depth=8)
    assert rep.overall == PASS
    assert all(w.verdict in (PASS, INDISTINGUISHABLE) for w in rep.words)


def test_local_farber_k0_reduces_to_classic(odo2, dih, frag):
    for chain in (odo2, dih, frag):
        classic = ca.farber_check(chain, max_word_len=2, depth=6, tolerance=Fraction(1, 64))
        localized = ca.local_farber_check(
            chain, 0, max_word_len=2, depth=6, tolerance=Fraction(1, 64)
        )
        assert classic.overall == localized.overall
        assert [(w.word, w.verdict, w.trajectory) for w in classic.words] == [
            (w.word, w.verdict, w.trajectory) for w in localized.words
        ]


def test_farber_pass_implies_no_witnesses(odo2, dih, toral22):
    for chain, depth in ((odo2, 10), (dih, 10), (toral22, 6)):
        rep = ca.farber_check(chain, max_word_len=3, depth=depth, tolerance=Fraction(1, 64))
        assert rep.overall == PASS
        assert ca.partial_triviality_witnesses(chain, 3, depth) == []


def test_stabilizer_count_oracle_examples(odo2, dih, hei2):
    rep = ca.stabilizer_count_oracle(dih, word(dih, "r"), 3, 10_000)
    assert rep.group_order == 16
    assert rep.stabilizer_count == 4
    assert rep.containing_count == 1
    assert rep.conjugacy_ratio == rep.fixed_ratio == Fraction(1, 4)

    rep = ca.stabilizer_count_oracle(odo2, word(odo2, "a"), 4, 10_000)
    assert rep.group_order == 16
    assert rep.stabilizer_count == 1  # all point stabilizers are trivial
    assert rep.conjugacy_ratio == 0

    rep = ca.stabilizer_count_oracle(hei2, word(hei2, "B"), 2, 10_000)
    assert rep.group_order == 64
    assert rep.identity_holds


def test_stabilizer_count_oracle_budget(odo2):
    with pytest.raises(BudgetError) as err:
        ca.stabilizer_count_oracle(odo2, word(odo2, "a"), 8, 16)
    assert err.value.budget == "group_order"


def test_fibration_identity_sweep(dih, hei2, odo2):
    for chain, levels in ((dih, (1, 2, 3, 4)), (hei2, (1, 2)), (odo2, (1, 3, 6))):
        for w in ca.reduced_words(chain.alphabet, 2):
            for level in levels:
                rep = ca.stabilizer_count_oracle(chain, w, level, 200_000)
                assert rep.identity_holds


def _brute_trajectory(chain, w, base_level, depth):
    """Per level, the fraction of the points over the level-``base_level``
    basepoint that ``w`` fixes, from ``w``'s own full image: no class key."""
    out = []
    for level in range(max(base_level, 1), depth + 1):
        points = chain.fiber(base_level, level, 0)
        image = chain.word_permutation(w, level)
        fixed = sum(image[x] == x for x in points)
        out.append((level, Fraction(fixed, len(points))))
    return tuple(out)


def _assert_brute_force(chain, rep, base_level):
    for entry in rep.words:
        traj = _brute_trajectory(chain, entry.word, base_level, rep.depth)
        assert entry.trajectory == traj, ca.render_word(entry.word, chain.alphabet)
        last = traj[-1][1]
        assert entry.verdict == (INDISTINGUISHABLE if last == 1
                                 else PASS if last < rep.tolerance else FAIL)
    assert rep.overall == (FAIL if any(e.verdict == FAIL for e in rep.words) else PASS)


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_trajectories_match_brute_force(family):
    """Every classic and localized trajectory entry, scored once per class
    key, equals the candidate's own fixed count over the scored points."""
    chain, depth = family
    rep = ca.farber_check(chain, max_word_len=3, depth=depth)
    assert len(rep.words) == len(list(ca.reduced_words(chain.alphabet, 3)))
    _assert_brute_force(chain, rep, 0)
    for base_level in (1, 2):
        rep = ca.local_farber_check(chain, base_level, max_word_len=2, depth=depth)
        assert [e.word for e in rep.words] == [
            w for _, w in local_candidates(chain, base_level, 2)[1]]
        _assert_brute_force(chain, rep, base_level)


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_local_farber_matches_the_base_level_reference(family):
    """At base levels 1-3, the localized report, scored on the base fiber's
    tower, equals field by field the reference path's: spelled candidates
    keyed by the pair keys and walked over the base fiber by the
    base-level walk (``oracles.local_farber_check``).  Every trajectory
    entry is also the share of the base fiber's points that the spelled
    candidate fixes, point by point (``oracles.act``).  Words of up to 2
    Schreier letters, or 1 past 13 letters."""
    chain, depth = family
    tolerance = Fraction(1, 8)
    for base in (1, 2, 3):
        count = chain.size(base) * (len(chain.alphabet) - 1) + 1
        max_len = 2 if count <= 13 else 1
        rep = ca.local_farber_check(chain, base, max_word_len=max_len, depth=depth,
                                    tolerance=tolerance, max_generators=count)
        ref = oracles.local_farber_check(chain, base, max_len, depth, tolerance)
        assert len(rep.words) == len(ref.words) == check_word_budget(count, max_len)
        for field in FarberReport._fields:
            if field != "words":
                assert getattr(rep, field) == getattr(ref, field), (base, field)
        for entry, expected in zip(rep.words, ref.words):
            assert entry == expected, (base, ca.render_word(entry.word, chain.alphabet))
        fibers = [(level, [x for x in range(chain.size(level))
                           if oracles.ancestor(chain, level, x, base) == 0])
                  for level in range(base, depth + 1)]
        for entry in rep.words:
            assert entry.trajectory == tuple(
                (level, Fraction(sum(oracles.act(chain, entry.word, level, x) == x
                                     for x in fiber), len(fiber)))
                for level, fiber in fibers), (base, ca.render_word(entry.word, chain.alphabet))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_CHAINS), st.data())
def test_class_key_is_conjugation_and_inversion_invariant(family, data):
    chain, depth = family
    m = len(chain.alphabet)
    letters = st.lists(st.integers(0, 2 * m - 1), max_size=6)
    w = ca.Word.of(data.draw(letters, label="w"))
    t = ca.Word.of(data.draw(letters, label="t"))
    assume(w)
    words = [w, conjugate(t, w), w.inverse()]
    keys = class_keys(words)
    assert keys[0] == keys[1] == keys[2]
    rep = ca.farber_check(chain, words=words, depth=depth)
    assert rep.words[0].trajectory == rep.words[1].trajectory == rep.words[2].trajectory
    assert rep.words[0].trajectory == _brute_trajectory(chain, words[1], 0, depth)
    # what the LCS search ranks by is also the same; its cylinders move with t
    ranked = {(r.fixed_counts, r.interior_bound, r.hol_estimate, r.indistinguishable,
               tuple(sorted(c.level for c in r.max_fixed_cylinders)))
              for r in (ca.fixed_set_report(chain, x, depth) for x in words)}
    assert len(ranked) == 1
    # localized: words and conjugators over the Schreier letters of the
    # level-1 basepoint stabilizer, the letters of its fibers' tower
    gens, schreier = local_candidates(chain, 1, 2)
    w, t = (data.draw(st.sampled_from(schreier), label=label)[0] for label in ("lw", "lt"))
    words = [w, conjugate(t, w), w.inverse()]
    assert len(set(class_keys(words))) == 1
    tower = restrict(chain, 1, gens)
    assert len({tuple(counts) for _, counts, _ in tower.walk(words, depth - 1)}) == 1


def _level_gathers(monkeypatch, n, check):
    """Calls of ``chain.compose`` over an index array of ``n`` points."""
    compose = chain_module.compose
    gathers = []

    def counting(p, q):
        if len(q) == n:
            gathers.append(1)
        return compose(p, q)

    monkeypatch.setattr(chain_module, "compose", counting)
    check()
    monkeypatch.setattr(chain_module, "compose", compose)
    return len(gathers)


def test_farber_images_one_word_per_class(monkeypatch):
    """Work count, not time: the fragmented chain's 1,456 classic
    candidates fall into 117 classes and its 936 localized ones, words over
    the letters of the base fiber's tower, into 119, one word per class is
    walked, and only the words that still fix many points after a few
    levels are imaged.  The classic check makes 40 gathers of its deepest
    level, one of them the involution check of the deepest letter table;
    the localized one makes 55 of the tower's deepest level (depth 10 over
    base 1, half the chain's), 14 of them building that level and checking
    its letters for involutions."""
    frag = ca.fragmented()
    assert len(set(class_keys(list(ca.reduced_words(frag.alphabet, 6))))) == 117
    assert len(set(class_keys([w for w, _ in local_candidates(frag, 1, 4)[1]]))) == 119
    classic = _level_gathers(
        monkeypatch, frag.size(12), lambda: ca.farber_check(frag, max_word_len=6, depth=12))
    assert classic <= 60
    local = _level_gathers(
        monkeypatch, frag.size(10) // frag.size(1),
        lambda: ca.local_farber_check(frag, 1, max_word_len=4, depth=10))
    assert local <= 75
