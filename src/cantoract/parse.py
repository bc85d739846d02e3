"""The word parser: text such as ``[a,b]*(a*b)^-2`` into a :class:`~cantoract.words.Word`."""

from __future__ import annotations

import re

from .errors import SchemaError
from .words import (IDENTITY_SYMBOL, _NAME_RE, GeneratorAlphabet, Word, _check_letters, _quote,
                    commutator)

_INT_RE = re.compile(r"-?\d+")

# Deepest bracket nesting the word parser accepts; each level costs three
# Python frames, so this stays far below the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser for the word syntax.

    grammar:  expr := factor ('*' factor)*
              factor := atom ('^' int)?
              atom := name | 'e' | '[' expr ',' expr ']' | '(' expr ')'

    Brackets nest at most :data:`MAX_NESTING` deep, and a word expands to
    at most :data:`MAX_WORD_LETTERS` letters.  Error messages quote
    at most :data:`MAX_QUOTED` characters of the word.
    """

    def __init__(self, text: str, alphabet: GeneratorAlphabet):
        self.text = text
        self.pos = 0
        self.alphabet = alphabet

    def parse(self) -> Word:
        nesting = 0
        for column, ch in enumerate(self.text):
            nesting += (ch in "([") - (ch in ")]")
            if nesting > MAX_NESTING:
                raise SchemaError(f"brackets nest deeper than {MAX_NESTING} at column {column}")
        word = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise SchemaError(f"unexpected {self.text[self.pos]!r} at column {self.pos} in word {_quote(self.text)}")
        return word

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> Word:
        word = self._factor()
        if self._peek() != "*":
            return word  # a factor is already reduced
        # reduce the product once, not once per factor
        letters = list(word.letters)
        while self._peek() == "*":
            self.pos += 1
            factor = self._factor().letters
            _check_letters(len(letters) + len(factor))
            letters += factor
        return Word.of(letters)

    def _factor(self) -> Word:
        atom = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return atom.power(self._int())
        return atom

    def _int(self) -> int:
        self._skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            raise SchemaError(f"expected integer exponent at column {self.pos} in {_quote(self.text)}")
        self.pos = m.end()
        return int(m.group())

    def _atom(self) -> Word:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            word = self._expr()
            if self._peek() != ")":
                raise SchemaError(f"missing ')' at column {self.pos} in word {_quote(self.text)}")
            self.pos += 1
            return word
        if ch == "[":
            self.pos += 1
            u = self._expr()
            if self._peek() != ",":
                raise SchemaError(f"missing ',' in commutator at column {self.pos} in {_quote(self.text)}")
            self.pos += 1
            v = self._expr()
            if self._peek() != "]":
                raise SchemaError(f"missing ']' at column {self.pos} in word {_quote(self.text)}")
            self.pos += 1
            return commutator(u, v)
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise SchemaError(f"expected generator name at column {self.pos} in {_quote(self.text)}")
        self.pos = m.end()
        name = m.group()
        if name == IDENTITY_SYMBOL:
            return Word(())
        return Word.generator(self.alphabet.index(name))


def parse_word(text: str, alphabet: GeneratorAlphabet) -> Word:
    return _Parser(text, alphabet).parse()
