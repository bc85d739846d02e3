from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module
from cantoract.holonomy import interior_scan_limit
from cantoract.mealy import machine_from_dict
from cantoract.punctured import FatCantorPlan
from cantoract.scans import _fixing_words

from conftest import GRIGORCHUK, ORACLE_CHAINS, word
from oracles import (adding_machine_chain, ancestor, lqa_scale_level,
                     partial_triviality_witnesses as all_words_witnesses, state_word,
                     vertex_path)


def test_identity_word_rejected(odo2):
    with pytest.raises(ValueError):
        ca.fixed_set_report(odo2, ca.Word.identity(), 4)
    with pytest.raises(ValueError):
        ca.density_profile(odo2, ca.Word.identity(), ca.PointApprox(4, 0))


def test_depth_below_one_rejected(frag):
    g = word(frag, "g")
    calls = (
        lambda: ca.fixed_set_report(frag, g, 0),
        lambda: ca.farber_check(frag, depth=0),
        lambda: ca.local_farber_check(frag, 0, depth=0),
        lambda: ca.witness_search(frag, 1, depth=0),
        lambda: ca.partial_triviality_witnesses(frag, 1, 0),
        lambda: ca.lqa_scale_estimate(frag, 1, 0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="depth must be at least 1"):
            call()


def test_fragmented_report(frag):
    rep = ca.fixed_set_report(frag, word(frag, "g"), 5)
    assert rep.fixed_ratio(5) == Fraction(1, 2)
    assert rep.max_fixed_cylinders == (ca.Cylinder(1, 0),)
    assert rep.interior_bound == Fraction(1, 2)
    assert rep.hol_estimate == 0
    # brute force over 32 points: evens fixed, odds moved
    perm = frag.word_permutation(word(frag, "g"), 5)
    assert sum(1 for i, v in enumerate(perm) if i == v) == 16
    assert all(perm[x] == x for x in range(0, 32, 2))


def test_fragmented_hol_zero_at_all_depths(frag):
    g = word(frag, "g")
    for depth in range(1, 11):
        assert ca.fixed_set_report(frag, g, depth).hol_estimate == 0


def test_heisenberg_report(hei2):
    rep = ca.fixed_set_report(hei2, word(hei2, "B"), 3)
    assert rep.fixed_ratio(3) == Fraction(1, 8)
    assert rep.max_fixed_cylinders == ()
    assert rep.hol_estimate == Fraction(1, 8)


def test_heisenberg_no_fixed_cylinder_to_depth_6(hei2):
    B = word(hei2, "B")
    for depth in range(1, 7):
        rep = ca.fixed_set_report(hei2, B, depth)
        assert rep.max_fixed_cylinders == ()
        assert rep.hol_estimate == rep.fixed_ratio(depth) == Fraction(1, 2**depth)


def test_fixed_ratio_non_increasing(frag, dih, hei2):
    for chain, depth in ((frag, 8), (dih, 8), (hei2, 5)):
        for w in ca.reduced_words(chain.alphabet, 3):
            rep = ca.fixed_set_report(chain, w, depth)
            ratios = [rep.fixed_ratio(l) for l in range(1, depth + 1)]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_odometer_all_or_nothing(odo2):
    a = word(odo2, "a")
    for m in list(range(-8, 0)) + list(range(1, 9)):
        rep = ca.fixed_set_report(odo2, a.power(m), 12)
        for level in range(1, 13):
            expected = Fraction(1) if m % 2**level == 0 else Fraction(0)
            assert rep.fixed_ratio(level) == expected


def test_indistinguishable_flag(odo2):
    rep = ca.fixed_set_report(odo2, word(odo2, "a").power(16), 4)
    assert rep.indistinguishable
    assert rep.interior_bound == 1  # whole space fixed at this depth
    assert rep.hol_estimate == 0
    rep = ca.fixed_set_report(odo2, word(odo2, "a").power(16), 5)
    assert not rep.indistinguishable


def test_fat_cantor_report_against_ledger(fat):
    rep = ca.fixed_set_report(fat, word(fat, "g"), 8)
    visible = FatCantorPlan().punctures_visible_at(8)
    regions = {ancestor(fat, p.level, p.vertex, 4) for p in visible}
    predicted = len(regions) * Fraction(1, 81) - len(visible) * Fraction(2, 3**8)
    assert Fraction(1, 4) <= rep.hol_estimate <= Fraction(1, 2)
    assert abs(rep.hol_estimate - predicted) <= Fraction(2, 3**8)
    # no listed fixed cylinder sits below any punctured vertex
    for cyl in rep.max_fixed_cylinders:
        for p in visible:
            if cyl.level > p.level:
                assert ancestor(fat, cyl.level, cyl.vertex, p.level) != p.vertex


def test_density_profile_heisenberg(hei2):
    prof = ca.density_profile(hei2, word(hei2, "B"), ca.PointApprox(3, 0))
    assert prof.entries == (
        Fraction(1, 8),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 1),
    )
    # independent check of the level-1 entry: fiber over (0,0) mod 2 has the
    # 16 even-coordinate points; fixed ones have x = 0 mod 8
    fixed = sum(1 for x in range(0, 8, 2) for y in range(0, 8, 2) if (y + x) % 8 == y)
    assert Fraction(fixed, 16) == prof.entries[1]


def test_density_profile_fully_fixed_level1(frag):
    prof = ca.density_profile(frag, word(frag, "g"), ca.PointApprox(6, 0))
    assert prof.entries[1] == 1  # the even level-1 fiber is entirely fixed


def test_density_profile_free_action(odo2):
    prof = ca.density_profile(odo2, word(odo2, "a"), ca.PointApprox(4, 9))
    assert all(e == 0 for e in prof.entries)


def test_witnesses_fragmented(frag):
    found = ca.partial_triviality_witnesses(frag, 1, 6)
    pairs = {(ca.render_word(w.word, frag.alphabet), w.cylinder) for w in found}
    assert ("g", ca.Cylinder(1, 0)) in pairs
    assert all(not w.exact for w in found)  # no transducer


def test_witnesses_soundness(frag, fat):
    for chain, cap, depth in ((frag, 2, 8), (fat, 1, 6)):
        for w in ca.partial_triviality_witnesses(chain, cap, depth):
            perm = chain.word_permutation(w.word, depth)
            fiber = chain.fiber(w.cylinder.level, depth, w.cylinder.vertex)
            assert all(perm[x] == x for x in fiber)
            assert any(perm[x] != x for x in range(chain.size(depth)))


def test_witnesses_empty_for_free_actions(odo2, adding):
    assert ca.partial_triviality_witnesses(odo2, 3, 8) == []
    assert ca.partial_triviality_witnesses(adding, 3, 8) == []


def _half_fixed_machine():
    """A transducer generator ``g`` fixing the 0-subtree exactly while
    swapping below the 1-subtree, next to the adding machine ``a``."""
    return ca.MealyMachine(
        2,
        ("add", "id", "f", "sw"),
        {
            "add": {0: "id", 1: "add"},
            "id": {0: "id", 1: "id"},
            "f": {0: "id", 1: "sw"},
            "sw": {0: "id", 1: "id"},
        },
        {
            "add": {0: 1, 1: 0},
            "id": {0: 0, 1: 1},
            "f": {0: 0, 1: 1},
            "sw": {0: 1, 1: 0},
        },
        {"a": "add", "g": "f"},
    )


def test_witness_exact_flags():
    """The half-fixed generator yields witnesses flagged exact."""
    from cantoract.mealy import is_trivial
    from cantoract.builders import mealy_chain

    m = _half_fixed_machine()
    chain = mealy_chain(m, name="half-fixed")
    assert ca.validate_chain(chain, 6).ok
    g = ca.parse_word("g", chain.alphabet)
    assert not is_trivial(m, state_word(chain, g))
    found = ca.partial_triviality_witnesses(chain, 1, 6)
    exact = {(ca.render_word(w.word, chain.alphabet), w.cylinder.level, w.cylinder.vertex)
             for w in found if w.exact}
    assert ("g", 1, 0) in exact
    rep = ca.fixed_set_report(chain, g, 6)
    assert rep.max_fixed_cylinders == (ca.Cylinder(1, 0),)
    assert rep.hol_estimate == 0


@pytest.mark.parametrize("make, max_word_len, depth, count", [
    (lambda: ca.mealy_chain(_half_fixed_machine(), name="half-fixed"), 2, 6, 2),
    (lambda: ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk"), 2, 8, 40),
    (lambda: adding_machine_chain(2), 3, 8, 0),
])
def test_machine_chain_witnesses(make, max_word_len, depth, count):
    """No witness word on a machine chain is the identity, and a witness is
    exact iff the word's section at the cylinder's string is trivial."""
    chain = make()
    machine = chain.mealy
    found = ca.partial_triviality_witnesses(chain, max_word_len, depth)
    assert len(found) == count
    for w in found:
        states = state_word(chain, w.word)
        assert not ca.is_trivial(machine, states)
        path = vertex_path(chain, w.cylinder.vertex, w.cylinder.level)
        assert w.exact == ca.is_trivial(machine, machine.section(states, path))


def test_lqa_scale(frag, odo2, fat):
    est = ca.lqa_scale_estimate(frag, 2, 8)
    assert est.scale_level == 1
    assert est.scale == Fraction(1, 2)
    assert ca.lqa_scale_estimate(odo2, 3, 8).scale_level == 0
    est = ca.lqa_scale_estimate(fat, 1, 8)
    assert est.scale_level is not None and est.scale_level <= 8


def _brute_force_cylinders(chain, perm, depth):
    """The maximal fixed cylinders straight from the definition: a fiber
    wholly fixed whose parent's fiber is not, at levels up to depth // 2."""
    def fixed(level, v):
        return all(perm[x] == x for x in chain.fiber(level, depth, v))

    if fixed(0, 0):
        return [ca.Cylinder(0, 0)]
    return [ca.Cylinder(level, v) for level in range(1, depth // 2 + 1)
            for v in range(chain.size(level))
            if fixed(level, v) and not fixed(level - 1, ancestor(chain, level, v, level - 1))]


# the walk's deferral share: every scanned word imaged (0), the default,
# and none imaged (3); imaged words are yielded after the others
@pytest.mark.parametrize("share", [0, chain_module.DEFER_SHARE, 3])
@pytest.mark.parametrize("family, max_depth, max_word_len", [
    ("odo2", 8, 3),
    ("frag", 8, 3),
    ("hei2", 6, 2),
    ("fat", 8, 2),
    ("grigorchuk", 8, 3),
])
def test_cylinders_and_scale_match_brute_force(request, monkeypatch, family, max_depth,
                                               max_word_len, share):
    monkeypatch.setattr(chain_module, "DEFER_SHARE", share)
    if family == "grigorchuk":
        chain = ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk")
    else:
        chain = request.getfixturevalue(family)
    for depth in range(1, max_depth + 1):
        expected_witnesses = []
        for w in ca.reduced_words(chain.alphabet, max_word_len):
            rep = ca.fixed_set_report(chain, w, depth)
            cylinders = _brute_force_cylinders(chain, chain.word_permutation(w, depth), depth)
            assert list(rep.max_fixed_cylinders) == cylinders
            assert rep.interior_bound == sum(Fraction(1, chain.size(c.level)) for c in cylinders)
            if ca.Cylinder(0, 0) not in cylinders:
                expected_witnesses += [(w, c) for c in cylinders]
        found = ca.partial_triviality_witnesses(chain, max_word_len, depth)
        assert [(x.word, x.cylinder) for x in found] == expected_witnesses
        est = ca.lqa_scale_estimate(chain, max_word_len, depth)
        assert est.scale_level == lqa_scale_level(chain, max_word_len, depth)
        assert est.scale == Fraction(1, 2**est.scale_level)


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_lqa_scale_of_one_word_per_key_is_the_all_words_scale(family):
    chain, depth = family
    assert ca.lqa_scale_estimate(chain, 4, depth).scale_level == lqa_scale_level(chain, 4, depth)


def test_lqa_scale_walks_one_word_per_conjugacy_key(monkeypatch):
    """fragmented's 1,456 reduced words up to length 6 fall into 117
    conjugacy keys: the scan walks one word of each, in one walk, and finds
    the scale that the walk of every word finds."""
    frag, walk, walked = ca.fragmented(), chain_module.ChainAction.walk, []
    words = list(ca.reduced_words(frag.alphabet, 6))
    every = max(cylinders[-1].level
                for _, cylinders in _fixing_words(frag, walk(frag, words, 14), 14))
    monkeypatch.setattr(chain_module.ChainAction, "walk",
                        lambda self, ws, *args: walked.append(len(ws)) or walk(self, ws, *args))
    assert ca.lqa_scale_estimate(frag, 6, 14).scale_level == every
    assert (len(words), walked) == (1_456, [117])


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_witness_scan_of_one_word_per_key_is_the_all_words_scan(family, data):
    """The scan walks one word per conjugacy key and moves its cylinders to
    every other word of the key by their conjugator; the list, ``exact``
    flags included, is the one the walk of every word gives."""
    chain, max_depth = family
    max_word_len = data.draw(st.integers(1, 4 if len(chain.alphabet) < 3 else 3))
    depth = data.draw(st.integers(1, max_depth))
    assert (ca.partial_triviality_witnesses(chain, max_word_len, depth)
            == all_words_witnesses(chain, max_word_len, depth))


def test_witness_recheck_does_not_trust_the_walk(odo2, monkeypatch):
    """The odometer acts freely, so it has no witness.  A walk that reports
    the moved points of ``a^2`` over level-1 vertex 0, which ``a^2`` fixes,
    as fixed makes that cylinder look wholly fixed; the re-check applies
    ``a^2`` to the fiber letter by letter and refuses it.  (A word fixing a
    vertex permutes its fiber, so the fiber's moved points come at least
    two at a time.)"""
    a2 = word(odo2, "a").power(2)
    fiber = odo2.fiber(1, 2, 0)
    assert odo2.apply(a2, 1, (0,)) == (0,)
    assert all(x != y for x, y in zip(fiber, odo2.apply(a2, 2, fiber)))
    assert ca.partial_triviality_witnesses(odo2, 2, 2) == []
    walk = chain_module.ChainAction.walk

    def faulty(self, words, level):
        for i, counts, fixed in walk(self, words, level):
            yield i, counts, fixed + fiber if words[i] == a2 else fixed

    monkeypatch.setattr(chain_module.ChainAction, "walk", faulty)
    with pytest.raises(AssertionError, match="witness failed direct re-check"):
        ca.partial_triviality_witnesses(odo2, 2, 2)


def test_witness_scans_keep_the_word_budget(frag):
    # two generators give 4 * 3^(L-1) reduced words of length L: 118,096 up
    # to length 10, past the 50,000-word budget before any word is imaged
    for scan in (ca.partial_triviality_witnesses, ca.lqa_scale_estimate):
        with pytest.raises(ca.BudgetError) as exc:
            scan(frag, 10, 4)
        assert exc.value.budget == "word_budget"


@pytest.mark.parametrize("scan", [ca.partial_triviality_witnesses, ca.lqa_scale_estimate],
                         ids=lambda f: f.__name__)
def test_witness_scans_refuse_a_zero_word_length(frag, scan):
    # no word is scanned, so a witness list would be empty and the LQA
    # scale 0, the quasi-analytic answer, from no evidence
    with pytest.raises(ValueError, match="max_word_len must be at least 1, got 0"):
        scan(frag, 0, 4)


def test_interior_scan_limit():
    assert interior_scan_limit(8) == 4
    assert interior_scan_limit(3) == 1
    assert interior_scan_limit(1) == 0


def test_conjugation_invariance_of_fixed_counts(dih):
    r = word(dih, "r")
    for u in ca.reduced_words(dih.alphabet, 2):
        conj = u * r * u.inverse()
        for level in range(1, 7):
            assert dih.fixed_count(conj, level) == dih.fixed_count(r, level)


def test_refuted_cylinders_never_reappear(frag, fat, hei2):
    for chain, w, max_depth in (
        (frag, word(frag, "g"), 8),
        (fat, word(fat, "g"), 9),
        (hei2, word(hei2, "B"), 6),
    ):
        listed: dict[tuple, int] = {}
        refuted: set[tuple] = set()
        for depth in range(2, max_depth + 1):
            rep = ca.fixed_set_report(chain, w, depth)
            current = {(c.level, c.vertex) for c in rep.max_fixed_cylinders}
            cap = rep.interior_scan_max_level
            for key in list(listed):
                if key[0] > cap:
                    continue
                if key not in current:
                    # may have been absorbed into a larger listed cylinder
                    absorbed = any(
                        lv < key[0] and ancestor(chain, key[0], key[1], lv) == vx
                        for lv, vx in current
                    )
                    if not absorbed:
                        refuted.add(key)
            for key in current:
                assert key not in refuted, (chain.name, depth, key)
                listed[key] = depth
