import os
from pathlib import Path

import pytest

import cantoract as ca
from cantoract.mealy import machine_from_dict

from oracles import adding_machine_chain

# every interpreter a test starts (``python -m cantoract``) imports the
# package this one did, from this checkout's src/
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(ca.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))

# The Grigorchuk machine: a swaps the first letter; b, c, d fix it and
# hand the rest to (a, c), (a, d), (e, b) on letters 0 and 1.
GRIGORCHUK = {
    "alphabet": 2,
    "states": ["a", "b", "c", "d", "e"],
    "transitions": {"a": {"0": "e", "1": "e"}, "b": {"0": "a", "1": "c"},
                    "c": {"0": "a", "1": "d"}, "d": {"0": "e", "1": "b"},
                    "e": {"0": "e", "1": "e"}},
    "outputs": {"a": {"0": 1, "1": 0}, "b": {"0": 0, "1": 1}, "c": {"0": 0, "1": 1},
                "d": {"0": 0, "1": 1}, "e": {"0": 0, "1": 1}},
    "generators": {"a": "a", "b": "b", "c": "c", "d": "d"},
}

# the seven bundled families and the Grigorchuk Mealy chain, each with the
# deepest level the brute-force oracles image at
ORACLE_CHAINS = [
    (ca.odometer(2), 6),
    (ca.toral(2, 2), 4),
    (ca.dihedral(), 6),
    (ca.heisenberg(2), 4),
    (ca.fragmented(), 6),
    (ca.fat_cantor(), 4),
    (adding_machine_chain(2), 6),
    (ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk"), 6),
]


@pytest.fixture(scope="session")
def odo2():
    return ca.odometer(2)


@pytest.fixture(scope="session")
def odo3():
    return ca.odometer(3)


@pytest.fixture(scope="session")
def dih():
    return ca.dihedral()


@pytest.fixture(scope="session")
def frag():
    return ca.fragmented()


@pytest.fixture(scope="session")
def hei2():
    return ca.heisenberg(2)


@pytest.fixture(scope="session")
def toral22():
    return ca.toral(2, 2)


@pytest.fixture(scope="session")
def fat():
    return ca.fat_cantor()


@pytest.fixture(scope="session")
def adding():
    return adding_machine_chain(2)


def word(chain, text):
    return ca.parse_word(text, chain.alphabet)
