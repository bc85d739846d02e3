import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module
from cantoract.chain import Violation
from cantoract.errors import BudgetError, InvalidChainError
from cantoract.farber import local_candidates

import oracles
from conftest import ORACLE_CHAINS, word
from oracles import act, adding_machine_chain, distance, stabilizer_contains


# --- independent oracles ---------------------------------------------------

def odometer_apply(text_letters, x, modulus):
    """Word action on Z/modulus via signed letter count (independent of perms)."""
    shift = sum(sign for _, sign in text_letters)
    return (x + shift) % modulus


def dihedral_apply(letters, x, modulus):
    """Right-to-left composition of x+1 / -x maps."""
    for gen, sign in reversed(letters):
        if gen == 0:  # a: translation
            x = (x + sign) % modulus
        else:  # r: involution, sign irrelevant
            x = (-x) % modulus
    return x


def test_act_matches_modular_oracle(odo2):
    a = word(odo2, "a")
    assert act(odo2, a, 3, 7) == odometer_apply(a.letters, 7, 8) == 0
    for m in (-3, -1, 1, 2, 5):
        wm = a.power(m)
        for x in range(16):
            assert act(odo2, wm, 4, x) == odometer_apply(wm.letters, x, 16)


def test_act_identity_word(odo2, dih):
    e = ca.Word.identity()
    for chain in (odo2, dih):
        for x in range(chain.size(3)):
            assert act(chain, e, 3, x) == x


def test_act_dihedral_oracle(dih):
    r = word(dih, "r")
    assert act(dih, r, 4, 3) == 13
    for text in ("r", "a*r", "r*a", "a^-1*r*a", "r*a^2"):
        u = word(dih, text)
        for x in range(16):
            assert act(dih, u, 4, x) == dihedral_apply(u.letters, x, 16)


def test_stabilizer_contains(odo2, dih):
    a = word(odo2, "a")
    assert stabilizer_contains(odo2, a.power(4), 2)
    assert not stabilizer_contains(odo2, a, 2)
    assert stabilizer_contains(dih, word(dih, "r"), 3)


def test_index_and_fiber(odo2, hei2):
    assert odo2.size(5) == 32
    assert odo2.fiber(1, 3, 0) == (0, 2, 4, 6)
    assert hei2.size(2) == 16
    assert odo2.fiber(0, 3, 0) == tuple(range(8))
    assert len(odo2.fiber(2, 5, 3)) == 32 // 4


def test_transversal_bfs(odo2, dih):
    reps = oracles.transversal(odo2, 2)
    assert reps[0] == ca.Word.identity()
    assert [ca.render_word(t, odo2.alphabet) for t in reps] == ["e", "a", "a^2", "a^-1"]
    for level in (1, 2, 3):
        for chain in (odo2, dih):
            for x, t in enumerate(oracles.transversal(chain, level)):
                assert act(chain, t, level, 0) == x


def test_schreier_generators(odo2, dih):
    sg = ca.schreier_generators(odo2, 2)
    assert [ca.render_word(s, odo2.alphabet) for s in sg] == ["a^4"]
    sg1 = ca.schreier_generators(dih, 1)
    rendered = {ca.render_word(s, dih.alphabet) for s in sg1}
    # a reflection-type and a translation-type word both appear
    assert "r" in rendered
    assert "a^2" in rendered
    for level in (1, 2, 3):
        for s in ca.schreier_generators(dih, level):
            assert stabilizer_contains(dih, s, level)


@pytest.mark.parametrize("chain", [chain for chain, _ in ORACLE_CHAINS], ids=lambda c: c.name)
def test_schreier_generators_are_the_spelled_non_tree_edges(chain):
    """Spelling only the edges off the breadth-first tree gives the reference
    formula's generators (every point-generator pair, reduced, repeats
    dropped) in its scan order: ``size * (k - 1) + 1`` of them, the rank of
    a free basis.  The reference spells the point-wise breadth-first
    transversal, so reading an involution's one table once changes no tree."""
    k = len(chain.alphabet)
    for level in range(6):
        gens = ca.schreier_generators(chain, level)
        assert gens == oracles.schreier_generators(chain, level)
        assert len(gens) == chain.size(level) * (k - 1) + 1


def test_schreier_generators_on_a_long_cycle_are_fast():
    """``a`` is one 8,192-cycle at level 13: a whole transversal holds ~33
    million letters, the one edge off its tree spells 8,192."""
    odo = ca.odometer(2)
    odo.level(14)
    started = time.perf_counter()
    assert ca.schreier_generators(odo, 13) == [word(odo, "a^8192")]
    assert local_candidates(odo, 13, 1) == (
        [word(odo, "a^8192")], [(ca.Word.generator(0), word(odo, "a^8192")),
                                (ca.Word.generator(0, -1), word(odo, "a^-8192"))])
    assert time.perf_counter() - started < 0.5


def test_schreier_generators_are_refused_before_any_is_spelled(monkeypatch):
    # 64 points and 4 generators at level 6: 64 * 3 + 1 generators, counted
    # before the orbit is walked
    grigorchuk = ORACLE_CHAINS[-1][0]
    with monkeypatch.context() as patched:
        patched.setattr(chain_module, "_orbit", None)
        patched.setattr(chain_module, "_spell", None)
        with pytest.raises(BudgetError) as err:
            ca.schreier_generators(grigorchuk, 6, 192)
    assert err.value.budget == "schreier_generators"
    assert str(err.value) == "193 Schreier generators at level 6 exceed the cap of 192"
    assert len(ca.schreier_generators(grigorchuk, 6, 193)) == 193


def test_fixed_count(odo2, dih, hei2):
    assert odo2.fixed_count(word(odo2, "a"), 3) == 0
    assert dih.fixed_count(word(dih, "r"), 4) == 2
    # brute force the dihedral count independently
    assert sum(1 for x in range(16) if (-x) % 16 == x) == 2
    assert hei2.fixed_count(word(hei2, "B"), 2) == 4
    # brute force: (x, y) fixed by B iff x == 0 mod 4
    assert sum(1 for x in range(4) for y in range(4) if (y + x) % 4 == y) == 4


def test_distance(odo2):
    x0 = ca.PointApprox(4, 0)
    d = distance(odo2, x0, ca.PointApprox(4, 8))
    assert d.value == Fraction(1, 8) and not d.indistinguishable
    d = distance(odo2, x0, ca.PointApprox(4, 1))
    assert d.value == 1 and d.agreement_level == 0
    d = distance(odo2, x0, ca.PointApprox(4, 0))
    assert d.indistinguishable and d.value == Fraction(1, 16)
    with pytest.raises(ValueError):
        distance(odo2, x0, ca.PointApprox(3, 0))


def test_sample_uniform_chi_square(odo2):
    # 2^16 draws at depth 4: every cell within 3 sigma of the uniform mean
    draws = 2**16
    counts = [0] * 16
    for s in range(draws):
        counts[ca.sample_uniform(odo2, 4, s).index] += 1
    mean = draws / 16
    sigma = (draws * (1 / 16) * (15 / 16)) ** 0.5
    for c in counts:
        assert abs(c - mean) <= 3 * sigma


def test_sample_uniform_deterministic(odo2):
    assert ca.sample_uniform(odo2, 6, 123) == ca.sample_uniform(odo2, 6, 123)


def test_validate_ok(odo2):
    assert ca.validate_chain(odo2, 10).ok


def _mutated_odometer(mutate):
    data = ca.chain_to_dict(ca.odometer(2), 4)
    mutate(data)
    return ca.chain_from_dict(data, validate=False)


def test_validate_detects_non_bijective():
    chain = _mutated_odometer(lambda d: d["levels"][1]["perms"].update(a=[0, 0, 1, 2]))
    report = ca.validate_chain(chain, 2)
    kinds = {v.invariant for v in report.violations}
    assert "bijectivity" in kinds
    v = next(v for v in report.violations if v.invariant == "bijectivity")
    assert (v.level, v.generator) == (2, "a")


def test_validate_detects_broken_equivariance():
    def mutate(d):
        parent = list(d["levels"][1]["parent"])
        parent[1] = 0  # point 1 no longer projects odometer-compatibly
        d["levels"][1]["parent"] = parent

    chain = _mutated_odometer(mutate)
    report = ca.validate_chain(chain, 2)
    kinds = {v.invariant for v in report.violations}
    assert "equivariance" in kinds


def test_validate_detects_basepoint_and_fiber():
    def mutate(d):
        parent = list(d["levels"][1]["parent"])
        parent[0] = 1
        d["levels"][1]["parent"] = parent

    chain = _mutated_odometer(mutate)
    report = ca.validate_chain(chain, 2)
    kinds = {v.invariant for v in report.violations}
    assert "basepoint" in kinds
    assert "fiber-constancy" in kinds


def _odometer3_with(level, field, index, value):
    """``odometer(2)`` to depth 3 with one entry of a level's ``parent`` or
    generator array overwritten."""
    data = ca.chain_to_dict(ca.odometer(2), 3)
    entry = data["levels"][level - 1]
    arrays = entry if field == "parent" else entry["perms"]
    arrays[field] = [*arrays[field]]
    arrays[field][index] = value
    return ca.chain_from_dict(data, validate=False)


def test_validate_reports_first_offenders():
    chain = _odometer3_with(2, "a", 3, 2)  # a = (1, 2, 3, 0) becomes (1, 2, 3, 2)
    assert ca.validate_chain(chain, 3).violations == (
        Violation("bijectivity", 2, "a", 3, "perm[3] = 2 breaks bijectivity"),
        Violation("equivariance", 3, "a", 3, "parent(g.3) = 0 but g.parent(3) = 2"),
    )
    chain = _odometer3_with(3, "parent", 5, 4)  # level 2 has 4 points
    assert ca.validate_chain(chain, 3).violations == (
        Violation("parent-range", 3, None, 5, "parent[5] = 4 not a level-2 point"),
        Violation("fiber-constancy", 3, None, 1, "level-2 point 1 has 1 preimages, expected 2"),
    )


_VALID_CHAINS = [(ca.odometer(2), 5), (ca.odometer(3), 3), (ca.dihedral(), 5),
                 (ca.fragmented(), 5), (ca.heisenberg(2), 3), (ca.toral(2, 2), 3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_VALID_CHAINS), st.data())
def test_validate_reports_the_first_repeated_image(family, data):
    chain, depth = family
    level = data.draw(st.integers(2, depth))
    name = data.draw(st.sampled_from(chain.alphabet.names))
    n = chain.size(level)
    x = data.draw(st.integers(0, n - 1))
    other = data.draw(st.integers(0, n - 2))
    other += other >= x  # any point but x
    raw = ca.chain_to_dict(chain, depth)
    perm = list(raw["levels"][level - 1]["perms"][name])
    perm[x] = perm[other]
    raw["levels"][level - 1]["perms"][name] = perm
    report = ca.validate_chain(ca.chain_from_dict(raw, validate=False), depth)
    first = max(x, other)
    assert report.violations[0] == Violation(
        "bijectivity", level, name, first, f"perm[{first}] = {perm[first]} breaks bijectivity")


def test_budget_errors(odo2):
    tight = ca.odometer(2, depth_limit=3)
    with pytest.raises(BudgetError) as err:
        tight.level(4)
    assert err.value.budget == "depth_limit"
    small = ca.odometer(2, memory_budget=10)
    with pytest.raises(BudgetError) as err:
        small.level(4)
    assert err.value.budget == "memory_budget"


@pytest.mark.parametrize("build, budget, built, refused", [
    (lambda b: ca.toral(3, 2, memory_budget=b), 5000, 4, "level 5 (32768 points)"),
    (lambda b: ca.odometer(2, memory_budget=b), 10, 2, "level 3 (8 points)"),
    (lambda b: adding_machine_chain(3, memory_budget=b), 100, 3, "level 4 (81 points)"),
    (lambda b: ca.heisenberg(2, memory_budget=b), 100, 3, "level 4 (256 points)"),
])
def test_memory_budget_refuses_before_building(build, budget, built, refused):
    chain = build(budget)
    requested = []
    provider = chain._provider

    def counting(level):
        requested.append(level)
        return provider(level)

    chain._provider = counting
    with pytest.raises(BudgetError) as err:
        chain.level(built + 3)
    assert err.value.budget == "memory_budget"
    assert f"materializing {refused} exceeds memory_budget={budget}" in str(err.value)
    assert requested == []  # not even the levels that fit are built
    assert chain.level(built).level == built
    with pytest.raises(BudgetError, match=re.escape(f"materializing {refused} exceeds")):
        chain.level(built + 1)
    assert requested == list(range(1, built + 1))


def test_transversal_raises_on_intransitive_chain():
    # a tower whose generator fixes everything past level 1 is not transitive
    data = {
        "name": "stuck",
        "generators": ["a"],
        "levels": [
            {"size": 2, "parent": None, "perms": {"a": [1, 0]}},
            {"size": 4, "parent": [0, 1, 0, 1], "perms": {"a": [1, 0, 3, 2]}},
        ],
    }
    chain = ca.chain_from_dict(data, validate=False)
    with pytest.raises(InvalidChainError):
        ca.schreier_generators(chain, 2)
    assert any(v.invariant == "transitivity" for v in ca.validate_chain(chain, 2).violations)


def test_loader_rejects_invalid():
    data = ca.chain_to_dict(ca.odometer(2), 3)
    data["levels"][1]["perms"]["a"] = [0, 1, 2, 3]  # identity: breaks transitivity? no: a at level 1 still moves
    data["levels"][1]["perms"]["a"] = [0, 0, 1, 2]
    with pytest.raises(InvalidChainError):
        ca.chain_from_dict(data)
