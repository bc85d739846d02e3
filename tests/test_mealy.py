import pytest
from hypothesis import given, settings, strategies as st

import cantoract as ca
from cantoract.errors import SchemaError
from cantoract.mealy import (
    MealyMachine,
    is_trivial,
    machine_from_dict,
)

from conftest import GRIGORCHUK
from oracles import (adding_machine, machine_to_dict, root_permutation, state_word,
                     vertex_path)


def test_adding_machine_sections():
    m = adding_machine(2)
    a = m.state_word("a")
    # carry propagates on 1, stops on 0
    assert m.section(a, (1,)) == (("add", 1),)
    assert m.section(a, (0,)) == (("id", 1),)
    assert m.section(a, (1, 1)) == (("add", 1),)
    assert root_permutation(m, a) == (1, 0)


def test_is_trivial():
    m = adding_machine(2)
    a = m.state_word("a")
    assert is_trivial(m, a + (("add", -1),))
    assert not is_trivial(m, a)
    assert not is_trivial(m, a + a)
    assert is_trivial(m, ())


def test_inverse_section_consistency():
    m = adding_machine(2)
    a = m.state_word("a")
    inv = (("add", -1),)
    # a^-1 acts as -1: transduce a then a^-1 is the identity on strings
    for x in range(16):
        path = tuple((x >> i) & 1 for i in range(4))
        assert m.transduce(inv, m.transduce(a, path)) == path


def test_invertibility_required():
    with pytest.raises(SchemaError):
        MealyMachine(
            2,
            ("q",),
            {"q": {0: "q", 1: "q"}},
            {"q": {0: 0, 1: 0}},  # not a permutation
            {"a": "q"},
        )


def test_machine_dict_round_trip(tmp_path):
    m = adding_machine(3)
    data = machine_to_dict(m)
    m2 = machine_from_dict(data)
    assert m2.states == m.states
    assert root_permutation(m2, m2.state_word("a")) == root_permutation(m, m.state_word("a"))
    import json

    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    m3 = ca.load_machine(path)
    assert m3.alphabet_size == 3


def test_exact_agrees_with_truncation(adding):
    """is_trivial true must imply depth-8 triviality; on short adding-machine
    words the two decisions coincide."""
    n = adding.size(8)
    for w in ca.reduced_words(adding.alphabet, 4):
        exact = is_trivial(adding.mealy, state_word(adding, w))
        truncated = adding.fixed_count(w, 8) == n
        if exact:
            assert truncated
        assert exact == truncated  # words of length <= 4 cannot hide a 2^8 shift


def test_mealy_chain_against_transduction(adding):
    machine = adding.mealy
    for level in (1, 3, 5):
        perm = adding.level(level).perms["a"]
        for x in range(adding.size(level)):
            out = machine.transduce(machine.state_word("a"), vertex_path(adding, x, level))
            assert perm[x] == sum(c * 2**i for i, c in enumerate(out))


@st.composite
def invertible_machines(draw):
    d = draw(st.integers(2, 4))
    states = tuple(f"q{i}" for i in range(draw(st.integers(1, 5))))
    transitions = {q: {c: draw(st.sampled_from(states)) for c in range(d)} for q in states}
    outputs = {q: dict(enumerate(draw(st.permutations(range(d))))) for q in states}
    gens = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3))
    generator_map = {f"g{i}": q for i, q in enumerate(gens)}
    return MealyMachine(d, states, transitions, outputs, generator_map)


@given(invertible_machines(), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_level_by_level_builder_matches_transduction(machine, depth):
    d = machine.alphabet_size
    while d**depth > 1024:
        depth -= 1
    chain = ca.mealy_chain(machine)
    for level in range(1, depth + 1):
        lv = chain.level(level)
        n = d**level
        assert lv.size == n
        assert lv.parent == tuple(x % (n // d) for x in range(n))
        for gen in machine.generator_map:
            state = machine.state_word(gen)
            expected = tuple(
                sum(c * d**i for i, c in enumerate(
                    machine.transduce(state, vertex_path(chain, x, level))))
                for x in range(n)
            )
            assert lv.perms[gen] == expected


def test_builder_with_many_states_matches_transduction():
    k = 300
    states = tuple(f"q{i}" for i in range(k))
    transitions = {f"q{i}": {0: f"q{(i + 1) % k}", 1: f"q{(7 * i) % k}"} for i in range(k)}
    outputs = {f"q{i}": ({0: 1, 1: 0} if i % 3 == 0 else {0: 0, 1: 1}) for i in range(k)}
    machine = MealyMachine(2, states, transitions, outputs, {f"g{i}": f"q{i}" for i in range(k)})
    chain = ca.mealy_chain(machine)
    for gen in ("g0", "g1", "g150", "g299"):
        for level in (3, 4):
            perm = chain.level(level).perms[gen]
            for x in range(2**level):
                out = machine.transduce(machine.state_word(gen), vertex_path(chain, x, level))
                assert perm[x] == sum(c * 2**i for i, c in enumerate(out))


def test_grigorchuk_build_steps_each_section_letter_once():
    machine = machine_from_dict(GRIGORCHUK)
    step = machine.step
    calls = []

    def counting(word, letter):
        calls.append((word, letter))
        return step(word, letter)

    machine.step = counting
    chain = ca.mealy_chain(machine, name="grigorchuk")
    chain.level(13)
    # transducing every string from the root made 786,440 step calls here
    assert len(calls) <= len(machine.states) * machine.alphabet_size
    assert len(set(calls)) == len(calls)
    assert ca.validate_chain(chain, 13).ok
    lv = chain.level(13)
    for x in range(0, lv.size, 97):
        path = vertex_path(chain, x, 13)
        for gen in "abcd":
            out = machine.transduce(machine.state_word(gen), path)
            assert lv.perms[gen][x] == sum(c * 2**i for i, c in enumerate(out))


def test_repeated_provider_call_returns_an_equal_level():
    chain = ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk")
    fresh = ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk")

    def same(a, b):
        return (a.level, a.size, a.parent, a.perms) == (b.level, b.size, b.parent, b.perms)

    stored = chain.level(6)
    assert same(chain._provider(6), stored)
    assert same(chain._provider(6), fresh.level(6))
    for level in range(7, 10):
        assert same(chain.level(level), fresh.level(level))
