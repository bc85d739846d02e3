from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantoract as ca
import cantoract.chain as chain_module
import cantoract.lcs as lcs_module
from cantoract.chain import compose, invert
from cantoract.lcs import gamma_candidates, witness_search
from cantoract.mealy import machine_from_dict
from cantoract.oracle import closure, image_group
from cantoract.words import conjugate

from conftest import GRIGORCHUK, ORACLE_CHAINS, word
from oracles import pairs


def _reference_candidates(alphabet, n, max_word_len, conj_len, max_candidates):
    """Class-``n`` words and truncation flag by the definition, rebuilding
    classes 1..n-1 recursively: commutators ``[w, u]`` of a generator word
    with a class-(n-1) word, each followed by its conjugates, deduplicated
    and cut off at ``max_candidates``."""
    gen_words = list(ca.reduced_words(alphabet, max_word_len))
    if n == 1:
        return gen_words[:max_candidates], len(gen_words) > max_candidates
    prev, truncated = _reference_candidates(alphabet, n - 1, max_word_len, conj_len,
                                            max_candidates)
    out = []
    for u in prev:
        for w in gen_words:
            x = ca.commutator(w, u)
            if not x:
                continue
            for y in [x] + [conjugate(t, x) for t in ca.reduced_words(alphabet, conj_len)]:
                if y in out:
                    continue
                if len(out) == max_candidates:
                    return out, True
                out.append(y)
    return out, truncated


def _best(reports):
    return min(reports, key=lambda r: (-r.hol_estimate, len(r.word), r.word.key()),
               default=None)


def image_lower_central_series(elements: list[tuple[int, ...]]) -> list[set]:
    """Lower central series of a small finite permutation group, by closure.

    Verifies that candidate words land in the right class of the finite
    image; sizes beyond a few hundred elements get slow.
    """
    if not elements:
        raise ValueError("empty group")
    n = len(elements[0])
    group = set(elements)
    series = [group]
    current = group
    while True:
        comms = {
            compose(compose(g, x), compose(invert(g), invert(x)))
            for g in group
            for x in current
        }
        nxt = closure(comms, n)
        if nxt == current:
            break
        series.append(nxt)
        current = nxt
        if len(current) == 1:
            break
    return series


def test_commutator_examples(odo2, hei2):
    a = word(odo2, "a")
    assert ca.commutator(a, a) == ca.Word.identity()
    assert ca.commutator(a, a.power(2)) == ca.Word.identity()
    A, B, C = (word(hei2, n) for n in "ABC")
    for level in range(1, 5):
        assert hei2.word_permutation(ca.commutator(B, A), level) == hei2.word_permutation(C, level)


def test_class1_candidates_are_generator_words(hei2):
    stream = gamma_candidates(hei2.alphabet, 1, 2, 1, max_candidates=64)
    expected = list(ca.reduced_words(hei2.alphabet, 2))
    assert list(stream.words) == expected[:64]
    assert stream.truncated == (len(expected) > 64)


def test_class2_heisenberg_contains_central_word(hei2):
    stream = gamma_candidates(hei2.alphabet, 2, 2, 1, max_candidates=128)
    C = word(hei2, "C")
    target = hei2.word_permutation(C, 4)
    assert any(hei2.word_permutation(w, 4) == target for w in stream.words)


def test_class2_odometer_empty(odo2):
    # one generator: all commutators reduce freely to the identity
    stream = gamma_candidates(odo2.alphabet, 2, 3, 2, max_candidates=64)
    assert stream.words == ()


def test_class3_heisenberg_trivial_at_small_depth(hei2):
    stream = gamma_candidates(hei2.alphabet, 3, 2, 1, max_candidates=64)
    for w in stream.words:
        for level in range(1, 5):
            assert hei2.fixed_count(w, level) == hei2.size(level), ca.render_word(
                w, hei2.alphabet
            )


def test_candidate_stream_deterministic_and_deduplicated(hei2):
    s1 = gamma_candidates(hei2.alphabet, 2, 2, 1, max_candidates=100)
    s2 = gamma_candidates(hei2.alphabet, 2, 2, 1, max_candidates=100)
    assert s1.words == s2.words
    assert len({w.letters for w in s1.words}) == len(s1.words)


def test_candidates_have_commutator_shape(frag):
    # every class-2 candidate is a commutator or a conjugate of one, so its
    # exponent sums over every generator vanish
    stream = gamma_candidates(frag.alphabet, 2, 2, 2, max_candidates=200)
    for w in stream.words:
        for gen in range(len(frag.alphabet)):
            assert sum(s for g, s in pairs(w) if g == gen) == 0


def test_witness_search_heisenberg(hei2):
    rep = witness_search(hei2, 3, max_word_len=2, conj_len=1, depth=6, max_candidates=64)
    by_class = {c.class_index: c for c in rep.classes}
    assert by_class[1].nonvanishing  # shear words carry positive estimates
    assert by_class[2].best.hol_estimate <= Fraction(1, 64)
    assert by_class[3].best.hol_estimate <= Fraction(1, 64)
    assert by_class[3].all_indistinguishable  # two-step nilpotent: class 3 acts trivially


def test_negative_max_candidates_is_refused(odo2):
    with pytest.raises(ValueError, match="max_candidates must be at least 1, got -1"):
        witness_search(odo2, 1, max_word_len=1, depth=3, max_candidates=-1)
    with pytest.raises(ValueError, match="max_candidates"):
        gamma_candidates(odo2.alphabet, 2, 1, 1, max_candidates=-1)


@pytest.mark.parametrize("cap", ["max_class", "max_word_len", "max_candidates"])
def test_a_zero_cap_is_refused(frag, cap):
    """A cap of 0 would report classes of no word (``examined`` 0, every
    class all-indistinguishable), so it is refused like a negative one."""
    caps = {"max_class": 2, "max_word_len": 1, "max_candidates": 8, cap: 0}
    with pytest.raises(ValueError, match=f"{cap} must be at least 1, got 0"):
        witness_search(frag, caps["max_class"], max_word_len=caps["max_word_len"], depth=5,
                       max_candidates=caps["max_candidates"])
    with pytest.raises(ValueError, match=f"{cap} must be at least 1, got 0"):
        gamma_candidates(frag.alphabet, caps["max_class"], caps["max_word_len"], 1,
                         max_candidates=caps["max_candidates"])


def test_class_letters_are_charged_against_the_memory_budget():
    """Class 1's 160 words up to length 4 hold 568 letters, and class 2's
    candidates pass 1,000 before the class is built."""
    chain = ca.fragmented(memory_budget=1_000)
    message = "class 2 candidates hold more than 1000 letters"
    with pytest.raises(ca.BudgetError, match=message) as exc:
        witness_search(chain, 3, depth=3)
    assert exc.value.budget == "memory_budget"


def test_witness_search_odometer_reports_no_candidates(odo2):
    rep = witness_search(odo2, 2, max_word_len=3, conj_len=2, depth=8)
    cls2 = rep.classes[1]
    assert cls2.examined == 0
    assert not cls2.nonvanishing
    assert cls2.best_word is None


def test_witness_search_fat_cantor_class1(fat):
    rep = witness_search(fat, 1, max_word_len=2, conj_len=1, depth=8, max_candidates=64)
    cls1 = rep.classes[0]
    assert cls1.nonvanishing
    assert cls1.best.hol_estimate >= Fraction(1, 4)
    assert cls1.best_word == word(fat, "g")


def test_image_membership_of_candidates(dih, hei2):
    """Class-n candidates land in the n-th lower-central subgroup of the
    finite image, verified by commutator closure on small images."""
    for chain, level, max_order in ((dih, 3, 64), (hei2, 2, 128)):
        elements = image_group(chain, level, max_order)
        series = image_lower_central_series(elements)
        for n in (1, 2, 3):
            stream = gamma_candidates(chain.alphabet, n, 2, 1, max_candidates=48)
            stage = series[min(n, len(series)) - 1] if n <= len(series) else {tuple(range(chain.size(level)))}
            for w in stream.words:
                image = chain.word_permutation(w, level)
                if n <= len(series):
                    assert image in stage
                else:
                    assert image == tuple(range(chain.size(level)))


def test_image_lcs_shapes(dih, hei2):
    dih_series = image_lower_central_series(image_group(dih, 3, 64))
    assert len(dih_series[0]) == 16
    # image of the infinite dihedral group: commutator subgroup is the even rotations
    assert len(dih_series[1]) == 4
    hei_series = image_lower_central_series(image_group(hei2, 2, 128))
    assert len(hei_series[0]) == 64
    assert len(hei_series[1]) == 4  # central shifts mod 4
    assert len(hei_series[-1]) == 1  # nilpotent image terminates


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_CHAINS), st.data())
def test_best_reports_match_words(family, data):
    """The search's best report per class is the best ``fixed_set_report``
    over that class's ``gamma_candidates`` words, each reported on its own."""
    chain, max_depth = family
    depth = data.draw(st.integers(1, max_depth), label="depth")
    max_word_len = data.draw(st.integers(1, 2), label="max_word_len")
    conj_len = data.draw(st.integers(0, 1), label="conj_len")
    max_candidates = data.draw(st.integers(1, 24), label="max_candidates")
    report = witness_search(chain, 3, max_word_len=max_word_len, conj_len=conj_len,
                            depth=depth, max_candidates=max_candidates)
    for cls in report.classes:
        stream = gamma_candidates(chain.alphabet, cls.class_index, max_word_len, conj_len,
                                  max_candidates=max_candidates)
        words, truncated = _reference_candidates(chain.alphabet, cls.class_index,
                                                 max_word_len, conj_len, max_candidates)
        assert (list(stream.words), stream.truncated) == (words, truncated)
        reports = [ca.fixed_set_report(chain, w, depth) for w in stream.words]
        assert (cls.examined, cls.truncated) == (len(stream.words), stream.truncated)
        assert cls.best == _best(reports)
        assert cls.all_indistinguishable == all(r.indistinguishable for r in reports)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_CHAINS), st.data())
def test_class_scores_equal_a_report_per_key(family, data):
    """``_score_class`` builds every key's report from one class walk.  A
    ``fixed_set_report`` walk of each key's first word, each word ranked by
    its key's report, gives the same best report and indistinguishability."""
    chain, max_depth = family
    depth = data.draw(st.integers(1, max_depth), label="depth")
    n = data.draw(st.integers(1, 3), label="class")
    words = list(gamma_candidates(chain.alphabet, n, 2, 1, max_candidates=24).words)
    keys = chain_module.class_keys(words)
    per_key = {}
    for key, w in zip(keys, words):
        per_key.setdefault(key, ca.fixed_set_report(chain, w, depth))
    best = _best([per_key[key]._replace(word=w) for key, w in zip(keys, words)])
    expected = (best and ca.fixed_set_report(chain, best.word, depth),
                all(r.indistinguishable for r in per_key.values()))
    assert lcs_module._score_class(chain, words, depth) == expected


def test_search_makes_at_most_three_full_level_gathers_per_candidate(monkeypatch):
    """Work count, not time: at depth 13 the Grigorchuk class-1..3 search
    makes at most three gathers of a whole level per candidate, 35 in all
    (a key word that runs out of budget only at the deepest level is
    finished point by point there), and calls the walk once per class, on
    its 16 keys' first words in all.  No winner is walked again, not even
    the two that are not their key's first word: their cylinders are
    their key's, moved by the conjugator."""
    chain = ca.mealy_chain(machine_from_dict(GRIGORCHUK), name="grigorchuk")
    # set up as the benchmark does: validation builds the letter tables,
    # whose involution checks gather each level once per generator
    assert ca.validate_chain(chain, 13).ok
    n = chain.size(13)
    gathers = []
    walks = []
    compose = chain_module.compose
    walk = chain_module.ChainAction.walk

    def counting(p, q):
        if len(q) == n:
            gathers.append(1)
        return compose(p, q)

    def counting_walk(self, words, *args, **kwargs):
        walks.append(len(words))
        return walk(self, words, *args, **kwargs)

    monkeypatch.setattr(chain_module, "compose", counting)
    monkeypatch.setattr(chain_module.ChainAction, "walk", counting_walk)
    winners = []
    monkeypatch.setattr(lcs_module, "fixed_set_report", lambda chain, w, depth: (
        winners.append(w) or ca.fixed_set_report(chain, w, depth)))
    report = witness_search(chain, 3, max_word_len=1, conj_len=1, depth=13, max_candidates=128)
    examined = sum(c.examined for c in report.classes)
    assert examined == 8 + 128 + 128
    assert len(gathers) <= 3 * examined
    assert winners == []
    assert (len(walks), sum(walks)) == (3, 16)
    assert len(gathers) <= 35


def test_best_word_breaks_ties_in_canonical_order(dih):
    """Eight class-2 commutators tie on estimate 0 and length 4; the
    canonically least wins, not the first the stream yields."""
    report = witness_search(dih, 2, max_word_len=2, conj_len=1, depth=4, max_candidates=24)
    first = gamma_candidates(dih.alphabet, 2, 2, 1, max_candidates=24).words[0]
    assert ca.render_word(first, dih.alphabet) == "r*a*r^-1*a^-1"
    assert ca.render_word(report.classes[1].best_word, dih.alphabet) == "a*r*a^-1*r^-1"
