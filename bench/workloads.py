"""The benchmark's workloads and the inputs each seed gives them.

A seed picks one of :data:`VARIANTS` input variants (``seed % VARIANTS``).
Variants change what the reports say, never how much work they take, so
runs with different seeds measure the same cost and every variant has a
recorded golden digest.

``farber-classic``, ``local-farber`` and ``lcs-grigorchuk`` run inside one
child process each (see child.py); ``cli-suite`` runs the eight
criterion-9 commands as separate ``python -m cantoract`` processes.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = 8

IN_PROCESS = ("farber-classic", "local-farber", "lcs-grigorchuk")
CLI_SUITE = "cli-suite"
ALL = IN_PROCESS + (CLI_SUITE,)

# Tolerance of the two farber workloads: it changes verdicts, not work.
TOLERANCES = tuple(Fraction(1, 2**k) for k in range(2, 2 + VARIANTS))

# Generator names of the Grigorchuk workload; the order (and so the
# candidate set) never changes, only the rendered words.
GRIGORCHUK_NAMES = (("a", "b", "c", "d"), ("A", "B", "C", "D"),
                    ("x", "y", "z", "w"), ("g1", "g2", "g3", "g4"))
GRIGORCHUK_DEPTH = 13
LCS_MAX_CANDIDATES = 128


def variant(seed: int) -> int:
    return seed % VARIANTS


def grigorchuk_machine(v: int):
    """The Grigorchuk machine of variant ``v``.

    Odd variants conjugate it by the letter swap on every level, which
    gives an isomorphic action with other permutations and the same
    report; ``v // 2`` picks the generator names.
    """
    from cantoract import mealy

    with open(os.path.join(HERE, "grigorchuk.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if v % 2:
        swap = {"0": "1", "1": "0"}
        data["transitions"] = {q: {c: row[swap[c]] for c in row}
                               for q, row in data["transitions"].items()}
        data["outputs"] = {q: {c: 1 - row[swap[c]] for c in row}
                           for q, row in data["outputs"].items()}
    states = list(data["generators"].values())
    names = GRIGORCHUK_NAMES[(v // 2) % len(GRIGORCHUK_NAMES)]
    data["generators"] = dict(zip(names, states))
    return mealy.machine_from_dict(data)


def setup(name: str, v: int):
    """Build (or load), materialize and validate the workload's chain."""
    from cantoract import builders, chain

    if name == "lcs-grigorchuk":
        depth = GRIGORCHUK_DEPTH
        ch = builders.mealy_chain(grigorchuk_machine(v), name="grigorchuk")
    else:
        depth = 12 if name == "farber-classic" else 10
        ch = builders.fragmented()
    ch.level(depth)
    report = chain.validate_chain(ch, depth)
    if not report.ok:
        raise RuntimeError(f"{name}: chain failed validation: {report.violations[0]}")
    return ch


def analyze(name: str, v: int, ch):
    """Run the analysis call; returns (report, candidates scored)."""
    from cantoract import farber, lcs

    if name == "farber-classic":
        report = farber.farber_check(ch, max_word_len=6, depth=12, tolerance=TOLERANCES[v])
        return report, len(report.words)
    if name == "local-farber":
        report = farber.local_farber_check(ch, 1, max_word_len=4, depth=10,
                                           tolerance=TOLERANCES[v])
        return report, len(report.words)
    report = lcs.witness_search(ch, 3, max_word_len=1, conj_len=1, depth=GRIGORCHUK_DEPTH,
                                max_candidates=LCS_MAX_CANDIDATES)
    return report, sum(c.examined for c in report.classes)


def render(name: str, ch, report) -> str:
    from cantoract import reports

    if name == "lcs-grigorchuk":
        return reports.render_json(reports.lcs_payload(report, ch.alphabet))
    return reports.render_json(reports.farber_payload(report, ch.alphabet))


# The eight criterion-9 commands (tests/test_acceptance.py), against a
# depth-8 fragmented chain file.  ``build`` writes the file the others read,
# so it runs first in every batch; the seed orders the other seven.
CHAIN_FILE = "frag.json"
CLI_COMMANDS = {
    "build": ["build", "fragmented", "--depth", "8"],
    "validate": ["validate", CHAIN_FILE, "--depth", "8"],
    "farber": ["farber", CHAIN_FILE, "--max-word-len", "2", "--depth", "8"],
    "local-farber": ["local-farber", CHAIN_FILE, "--base-level", "1", "--max-word-len", "2",
                     "--depth", "8"],
    "holonomy": ["holonomy", CHAIN_FILE, "--word", "g", "--depth", "6"],
    "density": ["density", CHAIN_FILE, "--word", "g", "--point", "sample", "--depth", "6"],
    "lcs-witness": ["lcs-witness", CHAIN_FILE, "--class", "2", "--max-word-len", "2",
                    "--depth", "5"],
    "oracle": ["oracle", "stab-count", CHAIN_FILE, "--level", "3", "--word", "g",
               "--max-order", "1000"],
}
# Commands whose reports score candidate words, and the result key that lists them.
CLI_CANDIDATES = {"farber": "words", "local-farber": "words", "lcs-witness": "classes"}


def cli_argv(command: str, v: int) -> tuple[list[str], str]:
    """Arguments of one CLI call and the file it writes, relative to the work dir."""
    argv = list(CLI_COMMANDS[command])
    out = CHAIN_FILE if command == "build" else f"{command}.out"
    if command == "density":
        argv += ["--seed", str(v)]
    return argv + ["-o", out], out


def cli_label(command: str, v: int) -> str:
    return f"{CLI_SUITE}/{command}/{v}" if command == "density" else f"{CLI_SUITE}/{command}"


def cli_candidates(command: str, text: str) -> int:
    """Candidate words a CLI report scored (0 for commands that score none)."""
    key = CLI_CANDIDATES.get(command)
    if key is None:
        return 0
    result = json.loads(text)["result"]
    if key == "classes":
        return sum(c["examined"] for c in result["classes"])
    return len(result[key])


def cli_batches(seed: int):
    """Endless batches of command names: build first, the rest in seeded order."""
    rng = random.Random(seed)
    rest = [c for c in CLI_COMMANDS if c != "build"]
    while True:
        rng.shuffle(rest)
        yield ["build"] + rest
