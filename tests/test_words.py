import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from cantoract.errors import BudgetError, SchemaError
from cantoract.parse import MAX_NESTING, parse_word
from cantoract.words import (
    DEFAULT_WORD_BUDGET,
    MAX_QUOTED,
    MAX_WORD_LETTERS,
    GeneratorAlphabet,
    Word,
    check_word_budget,
    commutator,
    conjugate,
    distinct,
    free_reduce,
    join,
    reduced_words,
    render_word,
    spelled_words,
    take,
)

import oracles

AB = GeneratorAlphabet(("a", "b"))


def w(text):
    return parse_word(text, AB)


def test_free_reduction():
    assert Word.of([0, 1]) == Word.identity()
    assert Word.of([0, 2, 3, 1]) == Word.identity()
    assert Word.of([0, 0, 1]) == Word.generator(0)


def test_multiplication_and_inverse():
    u = w("a*b")
    assert u * u.inverse() == Word.identity()
    assert u.inverse() == w("b^-1*a^-1")
    assert w("a").power(3) == w("a^3")
    assert w("a").power(-2) == w("a^-2")
    assert w("a").power(0) == Word.identity()


def test_commutator_reduces():
    assert commutator(w("a"), w("a")) == Word.identity()
    assert commutator(w("a"), w("a^2")) == Word.identity()
    assert commutator(w("a"), w("b")) == w("a*b*a^-1*b^-1")


def test_alphabet_rejects_bad_names():
    with pytest.raises(SchemaError):
        GeneratorAlphabet(("a", "a"))
    with pytest.raises(SchemaError):
        GeneratorAlphabet(("e",))
    with pytest.raises(SchemaError):
        GeneratorAlphabet(("a b",))
    with pytest.raises(SchemaError):
        GeneratorAlphabet(())


def test_parse_render_round_trip():
    for text in ("e", "a", "a^-1", "a^3*b^-2", "a*b*a^-1*b^-1", "b^5"):
        word = w(text)
        assert parse_word(render_word(word, AB), AB) == word
    # rendering is canonical regardless of input spelling
    assert render_word(w("a*a*a"), AB) == "a^3"
    assert render_word(w("a*a^-1"), AB) == "e"
    assert render_word(w("[a,b]"), AB) == "a*b*a^-1*b^-1"
    assert render_word(w("(a*b)^-1"), AB) == "b^-1*a^-1"


def test_parse_errors():
    for bad in ("a^", "[a,b", "(a", "a**b", "3a", "a,b", "c"):
        with pytest.raises(SchemaError):
            w(bad)


def test_enumeration_order_and_counts():
    words = list(reduced_words(AB, 2))
    rendered = [render_word(x, AB) for x in words]
    assert rendered[:4] == ["a", "a^-1", "b", "b^-1"]
    # length 2: 4 letters * 3 non-cancelling continuations
    assert len(words) == 4 + 12
    assert all(len(x) == 1 for x in words[:4])
    assert all(len(x) == 2 for x in words[4:])
    # canonical order is strictly increasing
    keys = [x.key() for x in words]
    assert keys == sorted(keys)


def test_take_and_distinct():
    a, b, e = w("a"), w("b"), Word.identity()
    stream = [a, e, b, a, w("a*b"), b, e, w("a*b"), w("b^-1")]
    unique = [a, b, w("a*b"), w("b^-1")]
    # first occurrence order, identity dropped
    assert list(distinct(stream)) == unique
    assert list(distinct([e, e])) == []
    assert take(distinct(stream), 0) == ([], True)
    assert take(distinct(stream), 2) == ([a, b], True)
    assert take(distinct(stream), 4) == (unique, False)
    assert take(distinct(stream), 9) == (unique, False)
    assert take([], 0) == ([], False)
    assert take(distinct([e]), 3) == ([], False)


_reduced = st.lists(st.integers(0, 5), max_size=6).map(free_reduce)  # over three generators
ABC = GeneratorAlphabet(("a", "b", "c"))


@given(_reduced.map(Word))
def test_int_letters_render_parse_and_invert_as_pairs(word):
    """Letter ``2g`` is generator ``g`` and ``2g + 1`` its inverse: a word
    renders and parses back to itself, and inverting flips each letter's
    low bit in reverse order, as the pairs' signs flip."""
    assert parse_word(render_word(word, ABC), ABC) == word
    assert word.inverse().letters == tuple(x ^ 1 for x in reversed(word.letters))
    assert oracles.pairs(word.inverse()) == tuple((g, -s) for g, s in reversed(oracles.pairs(word)))
    assert oracles.from_pairs(oracles.pairs(word)) == word


@given(st.lists(_reduced.map(Word), min_size=2, max_size=8))
def test_key_orders_words_as_the_pair_key(words):
    """Int order of the letters is the classic order of ``(gen, sign)``
    pairs, each generator's ``+1`` before its ``-1``."""
    keys = [oracles.pair_key(oracles.pairs(word)) for word in words]
    for a, ka in zip(words, keys):
        for b, kb in zip(words, keys):
            assert (a.key() < b.key()) == (ka < kb)
            assert (a.key() == b.key()) == (ka == kb) == (a == b)


@pytest.mark.parametrize("k, max_len", [(1, 6), (2, 4), (3, 3)])
def test_enumeration_is_the_pair_enumeration(k, max_len):
    """``reduced_words`` lists the reduced words of ``(gen, sign)`` pairs,
    built and sorted independently, in the same order."""
    words = list(reduced_words(range(k), max_len))
    assert [oracles.pairs(w) for w in words] == oracles.pair_words(k, max_len)


@settings(deadline=None)
@given(st.lists(_reduced, min_size=1, max_size=3), st.integers(0, 4))
def test_image_words_are_the_reduced_flattened_images(images, max_len):
    """Each word over ``len(images)`` letters, in the classic order, comes
    with the reduced product of its letters' images (an inverse letter
    reads the image backwards with each letter inverted)."""
    inverses = [Word(image).inverse().letters for image in images]
    words = list(reduced_words(images, max_len))
    expected = [free_reduce([x for j, s in oracles.pairs(seq)
                             for x in (images[j] if s > 0 else inverses[j])])
                for seq in words]
    pairs = list(spelled_words(images, max_len))
    assert [word for word, _ in pairs] == words
    assert [spelled.letters for _, spelled in pairs] == expected


@given(_reduced, _reduced)
def test_join_reduces_at_the_junction(u, v):
    assert join(u, v) == free_reduce(u + v)


@given(_reduced.map(Word), _reduced.map(Word), st.data())
def test_commutators_and_conjugates_are_the_flattened_words_reduced(u, v, data):
    """Joined at their junctions, ``[u, v]``, ``u v u^-1`` and ``v u v^-1``
    are their flattened letters reduced from scratch; ``v`` may share
    letters with ``u`` so that a junction cancels past a whole factor."""
    v = data.draw(st.sampled_from([v, u, u.inverse(), u * v, u.inverse() * v, v * u,
                                   v * u.inverse()]))
    assert commutator(u, v) == oracles.commutator(u, v)
    assert conjugate(u, v) == oracles.conjugate(u, v)
    assert conjugate(v, u) == oracles.conjugate(v, u)


def test_take_pulls_at_most_one_word_past_the_cut():
    pulled = []

    def counted(words):
        for word in words:
            pulled.append(word)
            yield word

    # 4 * 3^19 reduced words of length 20 alone: far too many to list
    for n in (0, 1, 5, 48):
        pulled.clear()
        words, more = take(counted(reduced_words(AB, 20)), n)
        assert more and words == list(reduced_words(AB, 3))[:n]
        assert len(pulled) == n + 1


def _power_by_products(word, k):
    base = word if k > 0 else word.inverse()
    out = Word.identity()
    for _ in range(abs(k)):
        out = out * base
    return out


def test_power_matches_repeated_product():
    rng = random.Random(7)
    for _ in range(300):
        word = Word.of(2 * rng.randrange(2) + (rng.choice((1, -1)) < 0)
                       for _ in range(rng.randrange(9)))
        k = rng.randrange(-5, 6)
        assert word.power(k) == _power_by_products(word, k)


def test_power_is_linear():
    started = time.perf_counter()
    word = w("a^100000")
    assert word.letters == (0,) * 100000
    assert w("(b*a^2*b^-1)^50000") == Word.of([2] + [0] * 100000 + [3])
    assert time.perf_counter() - started < 2.0


def test_product_parse_is_linear():
    started = time.perf_counter()
    assert w("a*" * 100000 + "b") == Word.of([0] * 100000 + [2])
    assert w("a*a^-1*" * 50000 + "b") == w("b")
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("text", [
    "a^1000001",
    "a^-1000001",
    "a^600000*a^600000",
    "b*a^999999*b^-1",
    "[a^300000,b^300000]",
    "a^999999999999999999999",
])
def test_word_letters_are_bounded(text):
    assert MAX_WORD_LETTERS == 10**6
    with pytest.raises(BudgetError, match=f"more than the limit of {MAX_WORD_LETTERS}") as info:
        w(text)
    assert info.value.budget == "word_letters"


def test_commutators_and_conjugates_keep_the_letter_limit():
    # the LCS word operations refuse before building, like the parser
    half = w("a^250000")
    b = Word.generator(1)
    assert len(commutator(half, w("b^250000"))) == MAX_WORD_LETTERS
    assert len(conjugate(half, w("b^500000"))) == MAX_WORD_LETTERS
    for build, letters in ((lambda: commutator(half, w("b^250001")), 1000002),
                           (lambda: conjugate(b, w("a^999999")), 1000001)):
        with pytest.raises(BudgetError, match=f"expands to {letters} letters") as info:
            build()
        assert info.value.budget == "word_letters"


def test_word_at_the_letter_limit_parses():
    assert len(w("a^500000*a^500000")) == MAX_WORD_LETTERS
    assert len(Word.generator(1).power(-MAX_WORD_LETTERS)) == MAX_WORD_LETTERS
    with pytest.raises(BudgetError):
        Word.generator(1).power(MAX_WORD_LETTERS + 1)


def test_bracket_nesting_is_bounded():
    inner = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert w(inner) == w("a")
    for deep in ("(" * 3000 + "a" + ")" * 3000, "[a," * 3000 + "b" + "]" * 3000,
                 "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1)):
        with pytest.raises(SchemaError, match=f"deeper than {MAX_NESTING}"):
            w(deep)


def test_parse_errors_quote_a_bounded_excerpt():
    text = "a*" * 50000 + "+"
    with pytest.raises(SchemaError) as err:
        w(text)
    message = str(err.value)
    assert f"column {len(text) - 1}" in message
    assert f"({len(text)} characters)" in message
    assert len(message) < 2 * MAX_QUOTED + 100
    for bad in ("(" + "a*" * 50000 + "a", "[a," + "b*" * 50000 + "b", "a^" + "x" * 50000,
                "c" * 50000):
        with pytest.raises(SchemaError) as err:
            w(bad)
        assert len(str(err.value)) < 2 * MAX_QUOTED + 100
    for names in (("a" * 50000 + "-",), ("a" * 50000,) * 2):
        with pytest.raises(SchemaError) as err:
            GeneratorAlphabet(names)
        assert len(str(err.value)) < 2 * MAX_QUOTED + 100
    with pytest.raises(SchemaError, match=r"^unexpected '\+' at column 3 in word 'a\*b\+'$"):
        w("a*b+")


class _SliceCounter(str):
    """A string that counts the characters its slices copy."""

    copied = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            _SliceCounter.copied += len(range(*key.indices(len(self))))
        return str.__getitem__(self, key)


def test_exponents_do_not_copy_the_rest_of_the_word():
    # each exponent used to be matched against a copy of the remaining
    # text, so k factors a^1 cost O(k^2)
    text = _SliceCounter("a^1*" * 2000 + "b^-2")
    _SliceCounter.copied = 0
    assert parse_word(text, AB) == Word.of([0] * 2000 + [3] * 2)
    assert _SliceCounter.copied <= len(text)


@settings(deadline=None)
@given(st.integers(0, 3), st.integers(0, 5))
def test_word_count_is_the_closed_form(letters, max_len):
    # at most 4,686 words here, inside the budget
    assert check_word_budget(letters, max_len) == len(list(reduced_words(range(letters), max_len)))


@pytest.mark.parametrize("letters, max_len, count", [
    (2, 8, 13120), (2, 9, 39364), (3, 6, 23436), (1, DEFAULT_WORD_BUDGET // 2, DEFAULT_WORD_BUDGET),
])
def test_word_budget_admits_counts_up_to_it(letters, max_len, count):
    assert check_word_budget(letters, max_len) == count


@pytest.mark.parametrize("letters, max_len", [
    (2, 10), (3, 7), (1, DEFAULT_WORD_BUDGET // 2 + 1), (1, 10**9), (65, 10**9), (10**6, 1),
])
def test_word_budget_refuses_past_it_at_once(letters, max_len):
    started = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        check_word_budget(letters, max_len)
    assert err.value.budget == "word_budget"
    assert str(err.value) == f"word enumeration exceeded budget of {DEFAULT_WORD_BUDGET} words"
    assert time.perf_counter() - started < 0.1
