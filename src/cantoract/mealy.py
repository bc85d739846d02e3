"""Invertible letter transducers acting on a rooted d-ary tree.

A machine state transduces strings letter by letter: it outputs an image
letter and hands the rest of the string to a successor state.  Invertible
machines (each state's output row is a permutation) define tree
automorphisms, and products of states and their inverses form a group.
Unlike truncated towers, these admit exact answers: the section of a word
at a vertex governs the whole subtree below it, so subtree triviality is
decidable by closing the word under sections.
"""

from __future__ import annotations

from .errors import BudgetError, SchemaError, expect, read_json
from .words import free_reduce

StateLetter = tuple[str, int]  # (state name, sign)
StateWord = tuple[StateLetter, ...]

# Most distinct sections :func:`is_trivial` closes a word under before it
# gives up with a ``section_closure`` budget error.
MAX_CLOSURE = 100_000


class MealyMachine:
    def __init__(
        self,
        alphabet_size: int,
        states: tuple[str, ...],
        transitions: dict,
        outputs: dict,
        generator_map: dict,
    ):
        if alphabet_size < 2:
            raise SchemaError(f"alphabet size must be >= 2, got {alphabet_size}")
        self.alphabet_size = alphabet_size
        self.states = tuple(states)
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise SchemaError("duplicate state names")
        try:
            self.transitions = {q: dict(transitions[q]) for q in self.states}
            self.outputs = {q: dict(outputs[q]) for q in self.states}
        except KeyError as exc:
            raise SchemaError(f"no transition or output row for state {exc}") from exc
        self.generator_map = dict(generator_map)
        # a range, so that a huge alphabet costs nothing before a row refutes it
        letters = range(alphabet_size)
        for q in self.states:
            if any(len(row) != alphabet_size or set(row) != set(letters)
                   for row in (self.transitions[q], self.outputs[q])):
                raise SchemaError(f"state {q!r} is not total over the alphabet")
            for c in letters:
                if self.transitions[q][c] not in state_set:
                    raise SchemaError(f"state {q!r} transitions to unknown state on letter {c}")
            if sorted(self.outputs[q].values()) != list(letters):
                raise SchemaError(f"state {q!r} output row is not a permutation (machine not invertible)")
        for gen, q in self.generator_map.items():
            if q not in state_set:
                raise SchemaError(f"generator {gen!r} maps to unknown state {q!r}")
        self._inverse_outputs = {
            q: {v: c for c, v in self.outputs[q].items()} for q in self.states
        }

    def state_word(self, gen: str, sign: int = 1) -> StateWord:
        return ((self.generator_map[gen], 1 if sign > 0 else -1),)

    def step(self, word: StateWord, letter: int) -> tuple[int, StateWord]:
        """Transduce one letter: image letter and the section word below it.

        The rightmost factor reads the input letter first, matching the
        right-to-left action convention for words.
        """
        sections: list[StateLetter] = []
        cur = letter
        for state, sign in reversed(word):
            if sign > 0:
                sections.append((self.transitions[state][cur], 1))
                cur = self.outputs[state][cur]
            else:
                pre = self._inverse_outputs[state][cur]
                sections.append((self.transitions[state][pre], -1))
                cur = pre
        return cur, free_reduce(reversed(sections))

    def section(self, word: StateWord, vertex: tuple[int, ...]) -> StateWord:
        """The state word governing the subtree below ``vertex``."""
        for letter in vertex:
            _, word = self.step(word, letter)
        return word

    def transduce(self, word: StateWord, string: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for letter in string:
            img, word = self.step(word, letter)
            out.append(img)
        return tuple(out)


def identity_states(machine: MealyMachine) -> frozenset[str]:
    """States acting as the identity on the whole tree (greatest fixed point)."""
    candidates = {
        q
        for q in machine.states
        if all(machine.outputs[q][c] == c for c in range(machine.alphabet_size))
    }
    changed = True
    while changed:
        changed = False
        for q in list(candidates):
            if any(machine.transitions[q][c] not in candidates for c in range(machine.alphabet_size)):
                candidates.discard(q)
                changed = True
    return frozenset(candidates)


def is_trivial(machine: MealyMachine, word: StateWord) -> bool:
    """Exactly decide whether ``word`` acts as the identity on the whole tree.

    Closes the word under sections, at most :data:`MAX_CLOSURE` of them; the
    action is trivial iff every reachable section fixes every letter at its
    root.
    """
    trivial = identity_states(machine)
    start = _strip_identity(word, trivial)
    seen: set[StateWord] = set()
    stack = [start]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        if len(seen) > MAX_CLOSURE:
            raise BudgetError(
                "section_closure",
                f"section closure exceeded {MAX_CLOSURE} words while deciding triviality",
            )
        for c in range(machine.alphabet_size):
            img, sec = machine.step(w, c)
            if img != c:
                return False
            sec = _strip_identity(sec, trivial)
            if sec not in seen:
                stack.append(sec)
    return True


def _strip_identity(word: StateWord, trivial: frozenset[str]) -> StateWord:
    return free_reduce(l for l in word if l[0] not in trivial)


def _rows(table, name: str, kind: type) -> dict:
    """A machine-file table, state -> letter -> ``kind``, with int letters."""
    where = f"machine file: {name}"
    return {
        q: {int(c): expect(v, kind, f"{where}[{q!r}][{c!r}]")
            for c, v in expect(row, dict, f"{where}[{q!r}]").items()}
        for q, row in expect(table, dict, where).items()
    }


def machine_from_dict(data: dict) -> MealyMachine:
    """The machine a machine file describes, type-checked so that a wrong
    JSON type is a one-line ``SchemaError``."""
    expect(data, dict, "machine file")
    try:
        alphabet, states, transitions, outputs, generators = [
            data[key] for key in ("alphabet", "states", "transitions", "outputs", "generators")]
        states = tuple(expect(q, str, f"machine file: states[{i}]")
                       for i, q in enumerate(expect(states, list, "machine file: states")))
        transitions = _rows(transitions, "transitions", str)
        outputs = _rows(outputs, "outputs", int)
        generators = {g: expect(q, str, f"machine file: generators[{g!r}]")
                      for g, q in expect(generators, dict, "machine file: generators").items()}
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"malformed machine file: {exc}") from exc
    return MealyMachine(expect(alphabet, int, "machine file: alphabet"), states,
                        transitions, outputs, generators)


def load_machine(path) -> MealyMachine:
    with open(path, "r", encoding="utf-8") as fh:
        return machine_from_dict(read_json(fh.read(), f"machine file {path} is not valid JSON"))
