"""``validate_chain`` against the point-wise oracle, and its fast path on valid towers."""

import pytest
from hypothesis import given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module
from cantoract.chain import ChainAction, LevelAction, Violation
from cantoract.mealy import machine_from_dict

from conftest import GRIGORCHUK, ORACLE_CHAINS
from oracles import adding_machine_chain, validate_chain_pointwise

# each oracle chain as chain-file data at its oracle depth, capped at 6
_RAW = [(ca.chain_to_dict(chain, min(depth, 6)), min(depth, 6)) for chain, depth in ORACLE_CHAINS]


def _both(make, depth):
    """``validate_chain`` and the oracle, each on its own fresh chain."""
    return ca.validate_chain(make(), depth), validate_chain_pointwise(make(), depth)


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_valid_towers_match_the_oracle(family):
    chain, depth = family
    depth = min(depth, 6)
    report = ca.validate_chain(chain, depth)
    assert report == validate_chain_pointwise(chain, depth) and report.ok


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RAW), st.data())
def test_single_entry_mutations_match_the_oracle(family, data):
    raw, depth = family
    level = data.draw(st.integers(1, depth))
    entry = raw["levels"][level - 1]
    n = entry["size"]
    field = data.draw(st.sampled_from(["parent", *sorted(entry["perms"])]))
    if field == "parent":
        prev = raw["levels"][level - 2]["size"] if level > 1 else 1
        array = list(entry["parent"] or [0] * n)
        value = data.draw(st.integers(-1, prev))
    else:
        array = list(entry["perms"][field])
        value = data.draw(st.integers(-1, n))
    array[data.draw(st.integers(0, n - 1))] = value
    levels = [dict(e, perms=dict(e["perms"])) for e in raw["levels"]]
    if field == "parent":
        levels[level - 1]["parent"] = array
    else:
        levels[level - 1]["perms"][field] = array
    mutated = dict(raw, levels=levels)
    report, oracle = _both(lambda: ca.chain_from_dict(mutated, validate=False), depth)
    assert report == oracle


def _with_levels(chain, depth, change):
    """A static copy of ``chain`` to ``depth`` whose level-``L`` perms are
    ``change(L, perms)``."""
    levels = [chain.level(level) for level in range(1, depth + 1)]

    def provider(level):
        lv = levels[level - 1]
        return LevelAction(level, lv.size, lv.parent, change(level, dict(lv.perms)))

    return lambda: ChainAction(chain.alphabet, provider, name=chain.name,
                               level_size=lambda level: levels[level - 1].size)


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_identity_generator_matches_the_oracle(family):
    chain, depth = family
    depth = min(depth, 6)
    for name in chain.alphabet.names:
        make = _with_levels(chain, depth,
                            lambda level, perms: {**perms, name: tuple(range(len(perms[name])))})
        report, oracle = _both(make, depth)
        assert report == oracle
        if len(chain.alphabet) == 1:
            assert report.violations[0].invariant == "transitivity"


@pytest.mark.parametrize("family", ORACLE_CHAINS, ids=lambda f: f[0].name)
def test_missing_generator_matches_the_oracle(family):
    chain, depth = family
    depth = min(depth, 6)
    gone = chain.alphabet.names[-1]
    make = _with_levels(chain, depth, lambda level, perms: {
        name: perm for name, perm in perms.items() if level < depth or name != gone})
    report, oracle = _both(make, depth)
    assert report == oracle
    assert report.violations[-1].invariant == "generator-set"


def test_valid_towers_never_reach_the_point_scans(monkeypatch):
    def refuse(*args):
        raise AssertionError("a valid tower reached the per-point scans")

    monkeypatch.setattr(chain_module, "_first_offender", refuse)
    families = [ca.odometer(2), ca.odometer(3), ca.toral(2, 2), ca.dihedral(), ca.heisenberg(2),
                ca.fragmented(), ca.fat_cantor(), adding_machine_chain(2)]
    for chain in families:
        assert ca.validate_chain(chain, 8).ok, chain.name
    grigorchuk = ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk")
    assert ca.validate_chain(grigorchuk, 10).ok
    # the stand-in is live: a broken level does reach it
    data = ca.chain_to_dict(ca.odometer(2), 3)
    data["levels"][2]["parent"][5] = 4
    with pytest.raises(AssertionError, match="per-point scans"):
        ca.validate_chain(ca.chain_from_dict(data, validate=False), 3)


def _orbits_walked(monkeypatch) -> list:
    walked = []
    orbit = chain_module._orbit
    monkeypatch.setattr(chain_module, "_orbit",
                        lambda chain, level: walked.append(level) or orbit(chain, level))
    return walked


def test_a_valid_tower_walks_only_its_deepest_orbit(monkeypatch):
    walked = _orbits_walked(monkeypatch)
    grigorchuk = ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk")
    assert ca.validate_chain(grigorchuk, 10).ok
    assert walked == [10]


def test_an_intransitive_tower_names_its_first_intransitive_level(monkeypatch):
    """``a`` flips the first letter of a binary string at every level: an
    equivariant involution, transitive on level 1 alone.  The deepest orbit
    fails, so every level's is walked, up to the first that fails."""
    levels = [{"size": 2 ** level,
               "parent": None if level == 1 else [x % 2 ** (level - 1) for x in range(2 ** level)],
               "perms": {"a": [x ^ 1 for x in range(2 ** level)]}} for level in range(1, 5)]
    walked = _orbits_walked(monkeypatch)
    report, oracle = _both(lambda: ca.chain_from_dict(
        {"name": "flip", "generators": ["a"], "levels": levels}, validate=False), 4)
    assert report == oracle
    assert report.violations == (
        Violation("transitivity", 2, None, None, "orbit of basepoint covers 2 of 4 points"),)
    assert walked == [4, 1, 2]
