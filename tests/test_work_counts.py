"""Exact kernel work of the benchmark's three in-process inputs.

Work counts, unlike times, do not move with the host: each input is built,
validated and analysed with the calls of the benchmark's in-process
workloads (variant 0), of a localized check at a deep base level, or of a
small Heisenberg or ``fat_cantor`` LCS search, and every
``compose`` the chain and holonomy modules make is counted.  A change to a
count is a change to the kernel's work; the record is updated with it and
the reason given.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import cantoract as ca
import cantoract.chain as chain_module
import cantoract.holonomy as holonomy_module
from cantoract.mealy import load_machine

_GRIGORCHUK = Path(__file__).resolve().parents[1] / "bench" / "grigorchuk.json"
_TOLERANCE = Fraction(1, 4)


def _farber_classic():
    chain = ca.fragmented()
    return chain, 12, 0, lambda: ca.farber_check(chain, max_word_len=6, depth=12,
                                              tolerance=_TOLERANCE)


def _local_farber():
    chain = ca.fragmented()
    return chain, 10, 1, lambda: ca.local_farber_check(chain, 1, max_word_len=4, depth=10,
                                                    tolerance=_TOLERANCE)


def _local_farber_deep():
    chain = ca.fragmented()
    return chain, 12, 5, lambda: ca.local_farber_check(chain, 5, max_word_len=2, depth=12,
                                                    tolerance=_TOLERANCE)


def _lcs_grigorchuk():
    chain = ca.mealy_chain(load_machine(str(_GRIGORCHUK)), name="grigorchuk")
    return chain, 13, 0, lambda: ca.witness_search(chain, 3, max_word_len=1, conj_len=1,
                                                depth=13, max_candidates=128)


def _lcs_heisenberg():
    chain = ca.heisenberg(2)
    return chain, 6, 0, lambda: ca.witness_search(chain, 2, max_word_len=1, conj_len=1,
                                               depth=6, max_candidates=32)


def _lcs_fat_cantor():
    chain = ca.fat_cantor()
    return chain, 8, 0, lambda: ca.witness_search(chain, 3, max_word_len=2, conj_len=1,
                                               depth=8, max_candidates=32)


# per input: (compose calls, points gathered) in set-up and in the analysis,
# the analysis's gathers of a whole deepest level of what it walks (the
# chain's, or at a base level the tower's, of ``size(depth) // size(base)``
# points), and the points it scans one at a time (``fixed_among``, the
# kernel's per-point fixed test).  A level's tested points are kept whole
# when their image equals them, a deferred word is settled column by column
# of its ``descendants`` table instead of by a scan of its whole image, and
# a ``children`` table in the digit layout is read as slices: the analyses
# went (2,179, 229,304) → (2,445, 308,154) (farber-classic), (1,494,
# 47,954) → (1,804, 66,968) and (18,004, 325,072) → (31,888, 539,266) (the
# localized rows, whose towers are small, so their columns are many and
# short), (1,389, 516,372) → (1,433, 560,406) (Grigorchuk), (117, 28,508)
# → (119, 34,648) (Heisenberg) and (654, 594,908) → (728, 656,510)
# (fat_cantor), the gathers of each descendants table and of its columns.
# The representatives are the descendants' first column; built on their
# own, one gather per level from the deep side, the Grigorchuk search made
# (1,435, 563,478) and no other row differed.
# The scans those gathers replace read 88,406, 14,170, 141,276, 60,912,
# 4,704 and 130,488 points in the same row order, and the children sort by
# parent keyed 8,190, 3,066, 8,382, 16,382, 5,460 and 9,840 more; only
# Heisenberg's torus layout still sorts, 5,456 points.  The localized rows
# read 53 and 1,394 whole levels before: the chain's level-10 and level-8
# ``children`` checks each gathered two columns of 512 and 128 points, the
# size of the tower's deepest level, and the slice read checks nothing.
# Of the localized rows' 51 and 1,392, 12 and 432 build the
# tower's deepest level and check its letters for involutions, and the rest
# image words in the walk; when this column counted the chain's deepest
# level there, both read 0.  When the tower numbered each fiber in
# increasing order, its parent arrays cost two gathers of each level
# (one of its deepest), and the localized analyses made (1,512, 49,998)
# with 55 whole levels and (18,018, 325,580) with 1,396.  Set-up's letter tables gather a level once
# per generator that maps the images of its first and last points back to
# them, the pre-check of an involution (all four of Grigorchuk's
# generators pass it).  When it read the first point
# alone, fragmented's g passed it at levels 3 and up and heisenberg's B at
# levels 2 and up, and the set-ups gathered (61, 40,952) (farber-classic),
# (51, 10,232) (local-farber) and (44, 38,228) (lcs-heisenberg).  When the
# class keys read level 0's one-point letter table, the analyses built it,
# one gather per generator: farber-classic made (2,181, 229,306), the
# Grigorchuk search (1,393, 516,376) and the Heisenberg one (120, 28,511).
# The localized inputs walk the tower of fibers over the base level's
# basepoint, built from the Schreier generators; when they walked each
# candidate's spelling over the chain's levels, local-farber made (3,088,
# 120,472) with 71 whole levels and the deep row (166,497, 4,910,014) with
# none.  Each walk call starts with one one-point gather per level-1
# child of the basepoint, and the LCS search walks once per class; when it
# walked once per key, the Grigorchuk search made (1,412, 514,482) and the
# Heisenberg one (131, 31,339).  Before the deepest level's per-point rule the Grigorchuk search
# gathered 750,078 points, 71 whole levels among them.  The ancestor tables
# are built coarse-first, and only the (level, base level) pairs read; when
# each request built every table from its level's parent array down to its
# base, the Grigorchuk search made (1,386, 514,456) with 40 whole levels
# (three of its seven tables unread) and the Heisenberg one (119, 31,327)
# with 5.  A deferred word whose tested points' representatives are
# fixed, but not every point under them, is read from the image one level
# below its tested points; read from the tested points themselves, the
# fat_cantor search made (677, 618,965) with 59 whole levels, and no other
# row differed.  A class winner that is not its key's first word takes its
# key's report, its cylinders moved by the conjugator (one gather of their
# vertices per level per letter); when each such winner was walked again,
# the LCS rows made (1,433, 560,406) with 38 whole levels and 19,270
# scanned points (Grigorchuk), (119, 34,648) with 268 scanned (Heisenberg)
# and (728, 656,510) with 58 whole levels and 45,939 scanned (fat_cantor)
RECORD = {
    "farber-classic": (_farber_classic, (51, 32_768), (2_445, 308_154), 40, 514),
    "local-farber": (_local_farber, (43, 8_192), (1_804, 66_968), 51, 292),
    "local-farber-deep": (_local_farber_deep, (51, 32_768), (31_888, 539_266), 1_392, 264),
    "lcs-grigorchuk": (_lcs_grigorchuk, (156, 196_584), (1_196, 511_358), 35, 16_326),
    "lcs-heisenberg": (_lcs_heisenberg, (39, 32_772), (110, 34_628), 4, 264),
    "lcs-fat-cantor": (_lcs_fat_cantor, (40, 49_200), (668, 600_024), 54, 39_378),
}


@pytest.mark.parametrize("name", RECORD)
def test_bench_inputs_do_the_recorded_kernel_work(name, monkeypatch):
    build, setup, analysis, full, scanned = RECORD[name]
    tally = {"calls": 0, "points": 0, "full": 0, "scanned": 0}
    size = None
    compose, fixed_among = chain_module.compose, chain_module.fixed_among

    def counting(p, q):
        tally["calls"] += 1
        tally["points"] += len(q)
        tally["full"] += len(q) == size
        return compose(p, q)

    def scanning(points, got):
        tally["scanned"] += len(points)
        return fixed_among(points, got)

    for module in (chain_module, holonomy_module):
        monkeypatch.setattr(module, "compose", counting)
    monkeypatch.setattr(chain_module, "fixed_among", scanning)
    chain, depth, base, analyse = build()
    chain.level(depth)
    assert ca.validate_chain(chain, depth).ok
    assert (tally["calls"], tally["points"]) == setup
    size = chain.size(depth) // chain.size(base)
    tally.update(calls=0, points=0, full=0, scanned=0)
    analyse()
    assert (tally["calls"], tally["points"]) == analysis
    assert (tally["full"], tally["scanned"]) == (full, scanned)


def test_ancestor_tables_are_built_only_for_the_pairs_read(monkeypatch):
    """One request memoizes its own pair alone, in fewer gathered points than
    two of its level, and the Grigorchuk search builds only the tables it reads."""
    gathered, compose = [], chain_module.compose
    monkeypatch.setattr(chain_module, "compose",
                        lambda p, q: gathered.append(len(q)) or compose(p, q))
    for base in (0, 1, 5, 8, 9):
        chain = ca.odometer(2)
        chain.level(9)
        gathered.clear()
        table = chain.ancestors(9, base)
        assert list(chain._ancestor_tables) == [(9, base)]
        assert sum(gathered) < 2 * chain.size(9)
        assert chain.ancestors(9, base) is table and len(gathered) == 9 - base
    chain, _, _, analyse = _lcs_grigorchuk()
    analyse()
    assert sorted(chain._ancestor_tables) == [(13, 6), (13, 10), (13, 11), (13, 12)]


# the witness scan of fragmented's 1,456 reduced words up to length 6 at
# depth 14: (words walked per walk call, fiber builds) for its 192
# witnesses.  It walks the first words of the 117 conjugacy keys and builds
# the fiber of each of the 2 distinct cylinders once; when it walked every
# word and built a fiber per witness, it made ([1,456], 192)
WITNESS_SCAN = ([117], 2)


def test_witness_scan_walks_once_per_key_and_builds_each_fiber_once(monkeypatch):
    walks, fibers = [], []
    walk, fiber = chain_module.ChainAction.walk, chain_module.ChainAction.fiber
    monkeypatch.setattr(chain_module.ChainAction, "walk",
                        lambda self, words, *args: walks.append(len(words)) or walk(self, words, *args))
    monkeypatch.setattr(chain_module.ChainAction, "fiber",
                        lambda self, *args: fibers.append(args) or fiber(self, *args))
    assert len(ca.partial_triviality_witnesses(ca.fragmented(), 6, 14)) == 192
    assert (walks, len(fibers)) == WITNESS_SCAN
