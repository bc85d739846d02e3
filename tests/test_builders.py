import tracemalloc
from fractions import Fraction

import pytest

import cantoract as ca
from cantoract.errors import SchemaError
from cantoract.punctured import FatCantorPlan

from conftest import word
from oracles import adding_machine_chain, moved_measure_at


def test_families_validate_to_depth_10(odo2, odo3, dih, frag, fat, adding, toral22):
    for chain in (odo2, odo3, dih, frag, fat, adding, toral22):
        assert ca.validate_chain(chain, 10).ok, chain.name


def test_big_families_validate_to_depth_6(hei2):
    assert ca.validate_chain(hei2, 6).ok
    assert ca.validate_chain(ca.toral(3, 2), 6).ok


def test_other_bases_validate():
    assert ca.validate_chain(ca.odometer(5), 4).ok
    assert ca.validate_chain(ca.heisenberg(3), 3).ok
    assert ca.validate_chain(adding_machine_chain(3), 5).ok
    hei3 = ca.heisenberg(3)
    B, C = (ca.parse_word(n, hei3.alphabet) for n in "BC")
    for level in (1, 2, 3):
        assert hei3.fixed_count(B, level) == 3**level
        assert hei3.word_permutation(ca.commutator(B, ca.parse_word("A", hei3.alphabet)), level) \
            == hei3.word_permutation(C, level)


def test_build_dispatch():
    # the CLI calls these constructors directly; see test_cli for an
    # unknown family
    assert ca.odometer(3).size(2) == 9
    assert ca.toral(2, 3).size(2) == 81
    with pytest.raises(SchemaError):
        ca.odometer(1)


def test_heisenberg_commutator_relation(hei2):
    # with right-to-left composition the shear relations read [B,A] = C
    # and [A,B] = C^-1
    A, B, C = (word(hei2, n) for n in "ABC")
    for level in range(1, 5):
        assert hei2.word_permutation(ca.commutator(B, A), level) == hei2.word_permutation(C, level)
        assert hei2.word_permutation(ca.commutator(A, B), level) == hei2.word_permutation(
            C.inverse(), level
        )


def test_heisenberg_fixed_counts(hei2):
    B = word(hei2, "B")
    for level in range(1, 7):
        assert hei2.fixed_count(B, level) == 2**level  # x = 0 column only


def test_fragmented_fixed_counts(frag):
    g = word(frag, "g")
    for level in range(1, 11):
        expected = 2**level if level == 1 else 2 ** (level - 1)
        assert frag.fixed_count(g, level) == expected


def test_fragmented_parent_compatibility(frag):
    g = word(frag, "g")
    for level in range(2, 9):
        lv = frag.level(level)
        below = frag.word_permutation(g, level - 1)
        perm = frag.word_permutation(g, level)
        for x in range(lv.size):
            assert lv.parent[perm[x]] == below[lv.parent[x]]


def test_odometer_equals_adding_machine(odo2, adding):
    for level in range(1, 9):
        assert odo2.level(level).perms["a"] == adding.level(level).perms["a"]
        assert odo2.level(level).parent == adding.level(level).parent


def test_toral_generators_commute_and_translate(toral22):
    t0, t1 = word(toral22, "t0"), word(toral22, "t1")
    for level in (1, 2, 3):
        p01 = toral22.word_permutation(t0 * t1, level)
        p10 = toral22.word_permutation(t1 * t0, level)
        assert p01 == p10
        assert toral22.fixed_count(t0, level) == 0


def test_fat_cantor_density_bound_from_ledger(fat):
    g = word(fat, "g")
    plan = FatCantorPlan()
    assert plan.punctured_measure_bound() <= Fraction(1, 4)
    last = Fraction(1)
    for level in range(1, 11):
        density = Fraction(fat.fixed_count(g, level), fat.size(level))
        assert density == 1 - moved_measure_at(plan, level)
        assert density <= last
        assert density >= 1 - plan.punctured_measure_bound()
        assert density >= Fraction(1, 4)
        last = density


def test_fat_cantor_custom_schedule():
    chain = ca.fat_cantor({1: 5, 2: 7, 3: 9})
    assert ca.validate_chain(chain, 8).ok
    g = word(chain, "g")
    plan = FatCantorPlan({1: 5, 2: 7, 3: 9})
    for level in (6, 8):
        assert Fraction(chain.fixed_count(g, level), chain.size(level)) == 1 - moved_measure_at(plan, level)


def test_fat_cantor_rejects_greedy_schedule():
    with pytest.raises(SchemaError) as err:
        FatCantorPlan({1: 1})
    assert "rejected" in str(err.value)
    with pytest.raises(SchemaError):
        FatCantorPlan({2: 1})  # puncture above its cylinder


def test_fat_cantor_schedule_levels_are_capped():
    assert FatCantorPlan({1: 40}).overrides == {1: 40}
    with pytest.raises(SchemaError, match="^schedule level 41 is deeper than the cap of 40$"):
        FatCantorPlan({1: 41})
    with pytest.raises(SchemaError, match="^schedule level 16000000 is deeper"):
        FatCantorPlan({1: 16_000_000})


def test_fat_cantor_punctures_are_disjoint(fat):
    punctures = FatCantorPlan().punctures_visible_at(10)
    zones = [z for p in punctures for z in p.zones()]
    for i in range(len(zones)):
        for j in range(i + 1, len(zones)):
            m = 3 ** min(zones[i][1], zones[j][1])
            assert zones[i][0] % m != zones[j][0] % m


def test_chain_file_round_trip(tmp_path, dih):
    path = tmp_path / "dih.json"
    ca.save_chain(dih, 6, path)
    loaded = ca.load_chain(path)
    for level in range(1, 7):
        assert loaded.level(level).perms == dih.level(level).perms
        assert loaded.level(level).parent == dih.level(level).parent
    assert loaded.alphabet.names == dih.alphabet.names


def _traced(build):
    tracemalloc.start()
    try:
        chain = build()
        chain.level(chain.depth_limit)
        return chain, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_loaded_chain_holds_one_int_per_point(tmp_path):
    """The JSON parser makes an int object per array entry; the loader
    maps each level's arrays through one tuple of its points, so a loaded
    chain costs what a built one does, and saves to the same bytes."""
    saved, again = tmp_path / "frag.json", tmp_path / "again.json"
    ca.save_chain(ca.fragmented(), 14, saved)
    built, built_bytes = _traced(lambda: ca.fragmented(depth_limit=14))
    loaded, loaded_bytes = _traced(lambda: ca.load_chain(saved, validate=False))
    assert loaded_bytes <= 1.2 * built_bytes
    ca.save_chain(loaded, 14, again)
    assert again.read_bytes() == saved.read_bytes()
    for level in range(9, 15):  # past 256 points, where ints are not cached
        lv = loaded.level(level)
        assert len({id(x) for perm in (lv.parent, *lv.perms.values()) for x in perm}) == lv.size


def test_chain_file_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "generators": ["a"]}')
    with pytest.raises(SchemaError):
        ca.load_chain(path)
    path.write_text("not json")
    with pytest.raises(SchemaError):
        ca.load_chain(path)
    data = ca.chain_to_dict(ca.odometer(2), 3)
    data["levels"][1]["parent"] = None  # only the first level may omit parent
    import json

    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError):
        ca.load_chain(path)
