"""Acceptance criteria: every check here pins an exact value or bound and a
runtime budget, and prints one pass/fail line per criterion."""

import random
import subprocess
import sys
import time
from fractions import Fraction

import cantoract as ca
from cantoract.farber import INDISTINGUISHABLE, PASS
from cantoract.punctured import FatCantorPlan

from conftest import word
from oracles import act, ancestor, core_membership, distance, state_word


def _report(name: str, started: float, budget: float, description: str):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS {name} ({elapsed:.2f}s < {budget:g}s): {description}", flush=True)


def test_criterion_1_odometer_freeness(odo2):
    started = time.perf_counter()
    a = word(odo2, "a")
    for m in [m for m in range(-8, 9) if m != 0]:
        rep = ca.fixed_set_report(odo2, a.power(m), 12)
        for level in range(1, 13):
            expected = Fraction(1) if m % 2**level == 0 else Fraction(0)
            assert rep.fixed_ratio(level) == expected, (m, level)
    _report("criterion-1", started, 1.0,
            "odometer(2) words a^m have all-or-nothing fixed ratios to depth 12")


def test_criterion_2_dihedral_farber_pass(dih):
    started = time.perf_counter()
    r = word(dih, "r")
    for level in range(1, 13):
        assert dih.fixed_count(r, level) == 2
    rep = ca.farber_check(dih, max_word_len=2, depth=12, tolerance=Fraction(1, 100))
    assert rep.overall == PASS
    _report("criterion-2", started, 5.0,
            "dihedral reflection fixes exactly 2 points per level; check passes at depth 12")


def test_criterion_3_heisenberg_no_essential_holonomy():
    started = time.perf_counter()
    hei2 = ca.heisenberg(2)  # fresh chain: the budget covers materialization
    B = word(hei2, "B")
    for level in range(1, 7):
        assert Fraction(hei2.fixed_count(B, level), hei2.size(level)) == Fraction(1, 2**level)
    for depth in range(1, 7):
        rep = ca.fixed_set_report(hei2, B, depth)
        assert rep.max_fixed_cylinders == ()
    rep6 = ca.fixed_set_report(hei2, B, 6)
    assert rep6.hol_estimate == Fraction(1, 64)
    search = ca.witness_search(hei2, 3, max_word_len=2, conj_len=1, depth=6,
                               max_candidates=64)
    for cls in search.classes:
        if cls.class_index >= 2:
            assert cls.best is None or cls.best.hol_estimate <= Fraction(1, 64)
    _report("criterion-3", started, 30.0,
            "heisenberg shear ratios are exactly 2^-l, no fixed cylinders, and "
            "class 2/3 witnesses stay below 2^-6 at depth 6")


def test_criterion_4_fragmented_gap(frag):
    started = time.perf_counter()
    g = word(frag, "g")
    classic = ca.farber_check(frag, max_word_len=1, depth=10, tolerance=Fraction(1, 64))
    entry = next(w for w in classic.words if w.word == g)
    assert entry.verdict == "fail-at-depth"
    assert [r for level, r in entry.trajectory if level >= 2] == [Fraction(1, 2)] * 9
    assert classic.overall == "fail-at-depth"
    # fails for every tolerance below the constant ratio
    wide = ca.farber_check(frag, words=[g], depth=10, tolerance=Fraction(49, 100))
    assert wide.words[0].verdict == "fail-at-depth"

    localized = ca.local_farber_check(frag, 1, max_word_len=4, depth=10,
                                      tolerance=Fraction(1, 64))
    assert localized.overall == PASS
    core_words = [w for w in localized.words if w.verdict == INDISTINGUISHABLE]
    assert any(w.word == g for w in core_words)

    for depth in range(1, 11):
        assert ca.fixed_set_report(frag, g, depth).hol_estimate == 0

    assert ca.lqa_scale_estimate(frag, 2, 8).scale_level == 1
    _report("criterion-4", started, 10.0,
            "fragmented action: classic check fails at 1/2, localized check passes, "
            "holonomy estimate is exactly 0, and the scale estimate is level 1")


def test_criterion_5_fat_cantor_essential_holonomy():
    started = time.perf_counter()
    fat = ca.fat_cantor()  # fresh chain: the budget covers materialization
    g = word(fat, "g")
    rep = ca.fixed_set_report(fat, g, 8)
    assert Fraction(1, 4) <= rep.hol_estimate <= Fraction(1, 2)
    visible = FatCantorPlan().punctures_visible_at(8)
    regions = {ancestor(fat, p.level, p.vertex, rep.interior_scan_max_level) for p in visible}
    ledger_value = (
        len(regions) * Fraction(1, fat.size(rep.interior_scan_max_level))
        - len(visible) * Fraction(2, 3**8)
    )
    assert abs(rep.hol_estimate - ledger_value) <= Fraction(2, 3**8)
    for cyl in rep.max_fixed_cylinders:
        for p in visible:
            if cyl.level > p.level:
                assert ancestor(fat, cyl.level, cyl.vertex, p.level) != p.vertex
    _report("criterion-5", started, 60.0,
            f"fat-Cantor holonomy estimate {rep.hol_estimate} lies in [1/4, 1/2], "
            "matches the puncture ledger, and no fixed cylinder survives below a puncture")


def test_criterion_6_fibration_identity(dih, hei2, odo2):
    started = time.perf_counter()
    cases = ((dih, (1, 2, 3, 4)), (hei2, (1, 2)), (odo2, (1, 2, 3, 4, 5, 6)))
    for chain, levels in cases:
        for w in ca.reduced_words(chain.alphabet, 2):
            for level in levels:
                rep = ca.stabilizer_count_oracle(chain, w, level, 200_000)
                assert rep.identity_holds
                assert rep.conjugacy_ratio == rep.fixed_ratio
    _report("criterion-6", started, 10.0,
            "stabilizer-count ratio equals the fixed ratio exactly on all oracle runs")


def _fuzz_chains():
    return [
        ca.odometer(2),
        ca.odometer(3),
        ca.dihedral(),
        ca.fragmented(),
        ca.heisenberg(2),
        ca.toral(2, 2),
    ]


def _random_word(rng, chain, max_len=4):
    m = len(chain.alphabet)
    letters = [(rng.randrange(m), rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1))]
    return ca.Word.of(2 * g + (s < 0) for g, s in letters)


def test_criterion_7_property_fuzz():
    started = time.perf_counter()
    rng = random.Random(0)
    chains = _fuzz_chains()
    for c in chains:
        c.level(5)
    cases = 10_000
    failures = 0
    for i in range(cases):
        chain = chains[rng.randrange(len(chains))]
        slot = i % 20
        try:
            if slot < 6:  # action axioms
                level = rng.randrange(1, 6)
                u, v = _random_word(rng, chain), _random_word(rng, chain)
                x = rng.randrange(chain.size(level))
                assert act(chain, u * v, level, x) == act(chain, u, level, act(chain, v, level, x))
                assert act(chain, u * u.inverse(), level, x) == x
            elif slot < 10:  # equivariance
                level = rng.randrange(1, 5)
                w = _random_word(rng, chain)
                lv = chain.level(level + 1)
                x = rng.randrange(chain.size(level + 1))
                assert lv.parent[act(chain, w, level + 1, x)] == act(chain, w, level, lv.parent[x])
            elif slot < 13:  # ratio monotonicity
                level = rng.randrange(1, 5)
                w = _random_word(rng, chain)
                up = Fraction(chain.fixed_count(w, level + 1), chain.size(level + 1))
                dn = Fraction(chain.fixed_count(w, level), chain.size(level))
                assert up <= dn
            elif slot < 16:  # conjugation invariance
                level = rng.randrange(1, 6)
                w, u = _random_word(rng, chain), _random_word(rng, chain)
                assert chain.fixed_count(u * w * u.inverse(), level) == chain.fixed_count(w, level)
            elif slot < 18:  # core monotonicity
                w = _random_word(rng, chain)
                base = rng.randrange(0, 2)
                level = rng.randrange(base + 2, 6)
                if core_membership(chain, w, base, level):
                    assert core_membership(chain, w, base, level - 1)
            elif slot < 19:  # ultrametric inequality
                depth = rng.randrange(1, 6)
                n = chain.size(depth)
                x, y, z = (ca.PointApprox(depth, rng.randrange(n)) for _ in range(3))
                dxy = distance(chain, x, y).value
                dyz = distance(chain, y, z).value
                assert distance(chain, x, z).value <= max(dxy, dyz)
            else:  # k = 0 reduction of the localized check
                depth = rng.randrange(2, 5)
                classic = ca.farber_check(chain, max_word_len=1, depth=depth)
                localized = ca.local_farber_check(chain, 0, max_word_len=1, depth=depth)
                assert classic.overall == localized.overall
                assert [(a.word, a.verdict, a.trajectory) for a in classic.words] == [
                    (b.word, b.verdict, b.trajectory) for b in localized.words
                ]
        except AssertionError:
            failures += 1
    assert failures == 0
    _report("criterion-7", started, 60.0,
            f"{cases} fuzz cases across seven property suites (seed 0): zero failures")


def test_criterion_8_mealy_exactness(odo2, adding):
    started = time.perf_counter()
    for level in range(1, 9):
        assert adding.level(level).perms["a"] == odo2.level(level).perms["a"]
        assert adding.level(level).parent == odo2.level(level).parent
    n8 = adding.size(8)
    for w in ca.reduced_words(adding.alphabet, 4):
        if ca.is_trivial(adding.mealy, state_word(adding, w)):
            assert adding.fixed_count(w, 8) == n8
    _report("criterion-8", started, 10.0,
            "adding-machine chain equals odometer(2) to depth 8 and the exact "
            "triviality oracle never contradicts depth-8 truncation")


CLI_COMMANDS = (
    ["build", "fragmented", "--depth", "8", "-o", "{tmp}/frag.json"],
    ["validate", "{chain}", "--depth", "8"],
    ["farber", "{chain}", "--max-word-len", "2", "--depth", "8"],
    ["local-farber", "{chain}", "--base-level", "1", "--max-word-len", "2", "--depth", "8"],
    ["holonomy", "{chain}", "--word", "g", "--depth", "6"],
    ["density", "{chain}", "--word", "g", "--point", "sample", "--depth", "6"],
    ["lcs-witness", "{chain}", "--class", "2", "--max-word-len", "2", "--depth", "5"],
    ["oracle", "stab-count", "{chain}", "--level", "3", "--word", "g", "--max-order", "1000"],
)


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    tmp = str(tmp_path)
    chain_path = f"{tmp}/frag.json"

    def run(cmd, threads, tag):
        argv = [c.format(tmp=tmp, chain=chain_path) for c in cmd]
        out = f"{tmp}/{tag}.out"
        if argv[0] == "build":
            argv[-1] = f"{tmp}/{tag}-chain.json"
            out = argv[-1]
        else:
            argv += ["-o", out]
        proc = subprocess.run(
            [sys.executable, "-m", "cantoract", *argv, "--threads", str(threads)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return open(out, "rb").read()

    # seed the chain file used by the analysis commands
    subprocess.run(
        [sys.executable, "-m", "cantoract", "build", "fragmented", "--depth", "8",
         "-o", chain_path],
        capture_output=True, check=True,
    )
    for idx, cmd in enumerate(CLI_COMMANDS):
        runs = [run(cmd, threads, f"{idx}-{threads}-{rep}")
                for threads in (1, 2, 8) for rep in (0, 1)]
        assert all(r == runs[0] for r in runs[1:]), f"non-deterministic output: {cmd[0]}"
    _report("criterion-9", started, 120.0,
            "all eight commands emit byte-identical reports across reruns and "
            "thread counts 1, 2, 8")
