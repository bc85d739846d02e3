"""Freely reduced words over a finite generating alphabet.

A word is a tuple of int letters, ``2*g`` for generator ``g`` and ``2*g + 1``
for its inverse (so ``x ^ 1`` inverts ``x``), kept freely reduced: no ``x, x ^ 1``
pair is adjacent.  The empty word is the identity and renders as ``e``.
"""

from __future__ import annotations

import re
from itertools import groupby, islice
from typing import Iterable, Iterator, NamedTuple

from .errors import BudgetError, SchemaError

IDENTITY_SYMBOL = "e"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Most letters a word may expand to before free reduction; a power, a
# product or a commutator past it is refused before its letters are built.
MAX_WORD_LETTERS = 10**6

# Longest input an error message quotes in full; longer text is cut.
MAX_QUOTED = 60

DEFAULT_WORD_BUDGET = 50_000  # most words one enumeration or candidate list may hold

Letter = int  # 2*gen for a generator, 2*gen + 1 for its inverse


def _quote(text: str) -> str:
    """``repr(text)``, cut to :data:`MAX_QUOTED` characters for error messages."""
    if len(text) <= MAX_QUOTED:
        return repr(text)
    return f"{text[:MAX_QUOTED]!r}... ({len(text)} characters)"


class GeneratorAlphabet:
    """Ordered, distinct generator names; each has an implicit formal inverse.

    Immutable; equal to an alphabet with the same names, and hashed as
    the one-field tuple ``(names,)``.
    """

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        if not names:
            raise SchemaError("alphabet must contain at least one generator")
        seen = set()
        for name in names:
            if not name or not _NAME_RE.fullmatch(name):
                raise SchemaError(f"bad generator name: {_quote(name)}")
            if name == IDENTITY_SYMBOL:
                raise SchemaError(f"{IDENTITY_SYMBOL!r} is reserved for the identity word")
            if name in seen:
                raise SchemaError(f"duplicate generator name: {_quote(name)}")
            seen.add(name)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"GeneratorAlphabet(names={self.names!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash((self.names,))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"unknown generator: {_quote(name)}") from None


def free_reduce(letters) -> tuple:
    """Cancel adjacent ``x, x ^ 1`` pairs of int letters (a letter and its inverse)."""
    stack: list = []
    for x in letters:
        if stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word(NamedTuple):
    """A freely reduced word; build via :meth:`of` or the word operations.

    ``len`` counts letters, so the tuple helpers ``_make`` and ``_replace``,
    which check ``len`` against the one field, do not apply to a word.
    """

    letters: tuple[Letter, ...]

    @staticmethod
    def of(letters) -> "Word":
        return _word(free_reduce(letters))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @staticmethod
    def generator(index: int, sign: int = 1) -> "Word":
        return Word((2 * index + (sign <= 0),))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return _word(free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return _word(tuple(x ^ 1 for x in reversed(self.letters)))

    def power(self, k: int) -> "Word":
        """``self^k`` in O(k |self|): with self = u*c*u^-1 and c cyclically
        reduced, self^k = u * c^k * u^-1 and c^k needs no reduction.  Raises
        a ``word_letters`` BudgetError, before building anything, when that
        is more than :data:`MAX_WORD_LETTERS` letters."""
        base = self if k > 0 else self.inverse()
        letters = base.letters
        m, core = cyclic_core(letters)
        _check_letters(2 * m + len(core) * abs(k))
        return Word.of(letters[:m] + core * abs(k) + letters[len(letters) - m:])

    def key(self) -> tuple:
        # canonical order: length first, then letters, each generator before its inverse
        return (len(self.letters), self.letters)


def _word(letters: tuple) -> Word:
    """``Word(letters)`` without the Python frame of the named tuple's ``__new__``."""
    return tuple.__new__(Word, (letters,))


def cyclic_core(letters: tuple) -> tuple[int, tuple]:
    """``(m, core)`` with ``letters = u + core + u^-1`` for the first ``m``
    letters ``u`` of a reduced word and ``core`` cyclically reduced."""
    m = 0
    while 2 * m + 1 < len(letters) and letters[m] == letters[-1 - m] ^ 1:
        m += 1
    return m, letters[m:len(letters) - m]


def _check_letters(count: int) -> None:
    if count > MAX_WORD_LETTERS:
        raise BudgetError("word_letters", f"word expands to {count} letters, "
                                          f"more than the limit of {MAX_WORD_LETTERS}")


def commutator(u: Word, v: Word) -> Word:
    """Reduced word ``u * v * u^-1 * v^-1``, its reduced factors :func:`join`-ed
    at their three junctions; a ``word_letters`` BudgetError, before
    building it, past :data:`MAX_WORD_LETTERS` letters."""
    _check_letters(2 * (len(u) + len(v)))
    return _word(join(join(join(u.letters, v.letters), u.inverse().letters), v.inverse().letters))


def conjugate(t: Word, x: Word) -> Word:
    """Reduced word ``t * x * t^-1``, joined at its two junctions, under the
    same letter limit as :func:`commutator`."""
    _check_letters(2 * len(t) + len(x))
    return _word(join(join(t.letters, x.letters), t.inverse().letters))


def render_word(word: Word, alphabet: GeneratorAlphabet) -> str:
    """Render with repeated letters collapsed into powers, e.g. ``a^3*b^-1``."""
    runs = ((alphabet.names[x >> 1], len(tuple(run)) * (-1 if x & 1 else 1))
            for x, run in groupby(word.letters))
    return "*".join(name if n == 1 else f"{name}^{n}" for name, n in runs) or IDENTITY_SYMBOL


def join(u: tuple, v: tuple) -> tuple:
    """``free_reduce(u + v)`` for reduced ``u`` and ``v``: they cancel only
    where they meet, so only the junction is compared."""
    c, m = 0, min(len(u), len(v))
    while c < m and u[-1 - c] == v[c] ^ 1:
        c += 1
    return u[:len(u) - c] + v[c:]


def reduced_words(alphabet: GeneratorAlphabet, max_len: int) -> Iterator[Word]:
    """Yield all nonempty freely reduced words up to ``max_len`` in canonical order.

    Canonical order is by length, then lexicographic in int letter order:
    gen 0 < gen 0 inverse < gen 1 < ...  Only ``len(alphabet)`` is read, so
    any sized collection of generators works.
    """
    steps = [(x, (x,)) for x in range(2 * len(alphabet))]
    new = tuple.__new__  # ``Word(word)`` without the Python frame of its ``__new__``
    words: list[tuple[int, tuple]] = [(-1, ())]  # (letter that backtracks, word)
    for _ in range(max_len):
        nxt = []
        for back, prod in words:
            for x, letter in steps:
                if x != back:
                    word = prod + letter
                    yield new(Word, (word,))
                    nxt.append((x ^ 1, word))
        words = nxt


def spelled_words(images, max_len: int) -> Iterator[tuple[Word, Word]]:
    """Yield ``(word, spelled)`` for every word :func:`reduced_words` yields
    over ``len(images)`` letters, in its order: ``spelled`` is the reduced
    product of the letters' reduced ``images[j]``, its prefix's product with
    one image :func:`join`-ed on.  Set-up is O(k) and runs at the first word.
    """
    steps = []  # (letter, as a word, image, last letter that cancels it)
    for j, image in enumerate(map(tuple, images)):
        inverse = tuple(x ^ 1 for x in reversed(image))
        steps += [(2 * j, (2 * j,), image, inverse[-1:]),
                  (2 * j + 1, (2 * j + 1,), inverse, image[-1:])]
    new = tuple.__new__
    products: list[tuple[int, tuple, tuple]] = [(-1, (), ())]  # (backtrack, word, product)
    for _ in range(max_len):
        nxt = []
        for back, seq, prod in products:
            last = prod[-1:]
            for x, letter, image, cancels in steps:
                if x != back:
                    word = seq + letter
                    spelled = join(prod, image) if last == cancels and last else prod + image
                    yield new(Word, (word,)), new(Word, (spelled,))
                    nxt.append((x ^ 1, word, spelled))
        products = nxt


def check_word_budget(letters: int, max_len: int) -> int:
    """The number of reduced words of length 1..``max_len`` over ``letters``
    generators, the sum of 2k(2k-1)^(i-1); past :data:`DEFAULT_WORD_BUDGET`
    a ``word_budget`` BudgetError.  Summed term by term while within the
    budget, so a huge ``max_len`` costs a few steps and builds no huge power."""
    count, term = (2 * letters * max_len, 0) if letters < 2 else (0, 2 * letters)
    while term and max_len and count <= DEFAULT_WORD_BUDGET:
        count, term, max_len = count + term, term * (2 * letters - 1), max_len - 1
    if count > DEFAULT_WORD_BUDGET:
        raise BudgetError("word_budget",
                          f"word enumeration exceeded budget of {DEFAULT_WORD_BUDGET} words")
    return count


def distinct(words: Iterable[Word]) -> Iterator[Word]:
    """Yield each non-identity word of ``words`` once, at its first occurrence."""
    seen: set[tuple] = set()
    for word in words:
        if word.letters and word.letters not in seen:
            seen.add(word.letters)
            yield word


def take(words: Iterable[Word], n: int) -> tuple[list[Word], bool]:
    """The first ``n`` words of ``words``, and whether it holds more; at
    most ``n + 1`` words are pulled."""
    it = iter(words)
    head = list(islice(it, n))
    return head, next(it, None) is not None
