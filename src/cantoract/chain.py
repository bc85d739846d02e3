"""Tower data model: finite permutation levels with compatible projections.

A chain is a sequence of finite level actions.  Level ``L`` acts on
``{0, ..., n_L - 1}``; a parent array projects level ``L`` onto level
``L - 1`` equivariantly; level 0 is the implicit one-point space.  Point 0
at every level is the basepoint, and the point-0 stabilizers form the
descending subgroup chain the tower encodes.  Levels are immutable once
materialized and safe to share across threads; materialization is memoized
and serialized per chain.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import eq, itemgetter

from .errors import BudgetError, InvalidChainError
from .words import GeneratorAlphabet, Word

DEFAULT_DEPTH_LIMIT = 24
DEFAULT_MEMORY_BUDGET = 4_000_000  # total stored points across levels

PRNG_ALGORITHM = "mt19937-rejection"


def compose(p, q) -> tuple[int, ...]:
    """The image array of ``p`` after ``q``: ``compose(p, q)[x] == p[q[x]]``.

    One C-level gather; ``p`` may be any sequence, ``q`` any index array.
    """
    if len(q) == 1:
        return (p[q[0]],)
    return itemgetter(*q)(p)


def invert(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def count_fixed(image, points=None) -> int:
    """Fixed points of an image array, among ``points`` when given."""
    if points is None:
        return sum(map(eq, image, range(len(image))))
    return sum(map(eq, compose(image, points), points))


def check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")


class LevelAction:
    """One finite level: sizes, parent projection, generator permutations."""

    __slots__ = ("level", "size", "parent", "perms", "_inverses")

    def __init__(self, level: int, size: int, parent: tuple[int, ...], perms: dict):
        self.level = level
        self.size = size
        self.parent = parent
        self.perms = {name: tuple(p) for name, p in perms.items()}
        self._inverses: dict[str, tuple[int, ...]] = {}
        if len(parent) != size:
            raise InvalidChainError(f"level {level}: parent array length {len(parent)} != size {size}")
        for name, perm in self.perms.items():
            if len(perm) != size:
                raise InvalidChainError(f"level {level}: perm {name!r} length {len(perm)} != size {size}")

    def inverse_perm(self, name: str) -> tuple[int, ...]:
        inv = self._inverses.get(name)
        if inv is None:
            inv = invert(self.perms[name])
            self._inverses[name] = inv
        return inv


@dataclass(frozen=True)
class PointApprox:
    """A depth-``depth`` truncation of a boundary point (a cylinder of points)."""

    depth: int
    index: int


@dataclass(frozen=True)
class Cylinder:
    """All boundary points over one level-``level`` vertex."""

    level: int
    vertex: int


@dataclass(frozen=True)
class Distance:
    """Ultrametric distance between equal-depth truncations.

    ``agreement_level`` is the deepest level at which the truncations
    coincide; ``value`` is 2^-agreement_level.  ``indistinguishable`` marks
    truncations equal at full depth (never asserted to be the same point).
    """

    value: Fraction
    agreement_level: int
    indistinguishable: bool


@dataclass(frozen=True)
class Violation:
    invariant: str
    level: int
    generator: str | None
    point: int | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    depth: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ChainAction:
    """A lazily materialized tower of level actions.

    ``provider(level)`` must return the :class:`LevelAction` for ``level``
    (1-based) and must be pure; levels are cached under a lock so at most
    one builder runs per level.  ``depth_limit`` and ``memory_budget`` are
    hard budgets: exceeding them raises a budget error, never truncates.

    The permutation kernel every analysis calls lives here: word images
    built over shared prefixes (:meth:`images`), projection of one deep
    image to every coarser level (:meth:`level_images`) and memoized
    ancestor tables (:meth:`ancestors`).
    """

    def __init__(
        self,
        alphabet: GeneratorAlphabet,
        provider,
        *,
        name: str,
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        mealy=None,
        metadata: dict | None = None,
    ):
        self.alphabet = alphabet
        self.name = name
        self.depth_limit = depth_limit
        self.memory_budget = memory_budget
        self.mealy = mealy
        self.metadata = metadata or {}
        self._provider = provider
        self._levels: list[LevelAction] = []
        self._stored_points = 0
        self._lock = threading.Lock()
        self._ancestor_tables: dict[tuple[int, int], tuple[int, ...]] = {}
        self._sections: dict[int, tuple[int, ...]] = {}

    def level(self, level: int) -> LevelAction:
        if level < 1:
            raise ValueError("levels are 1-based; level 0 is the implicit one-point space")
        if level > self.depth_limit:
            raise BudgetError(
                "depth_limit",
                f"level {level} exceeds depth_limit={self.depth_limit} for chain {self.name!r}",
            )
        if level <= len(self._levels):
            return self._levels[level - 1]
        with self._lock:
            while len(self._levels) < level:
                nxt = len(self._levels) + 1
                built = self._provider(nxt)
                if built.level != nxt:
                    raise InvalidChainError(f"provider returned level {built.level}, expected {nxt}")
                if self._stored_points + built.size > self.memory_budget:
                    raise BudgetError(
                        "memory_budget",
                        f"materializing level {nxt} ({built.size} points) exceeds "
                        f"memory_budget={self.memory_budget} for chain {self.name!r}",
                    )
                self._levels.append(built)
                self._stored_points += built.size
        return self._levels[level - 1]

    def size(self, level: int) -> int:
        if level == 0:
            return 1
        return self.level(level).size

    def materialized_depth(self) -> int:
        return len(self._levels)

    def apply_letter(self, level: int, gen: int, sign: int, x: int) -> int:
        if level == 0:
            return 0
        lv = self.level(level)
        name = self.alphabet.names[gen]
        perm = lv.perms[name] if sign > 0 else lv.inverse_perm(name)
        return perm[x]

    def act(self, word: Word, level: int, x: int) -> int:
        """Apply ``word`` at ``level``: the rightmost letter acts first."""
        if level == 0:
            return 0
        lv = self.level(level)
        if not 0 <= x < lv.size:
            raise ValueError(f"point {x} out of range at level {level}")
        names = self.alphabet.names
        for gen, sign in reversed(word.letters):
            name = names[gen]
            perm = lv.perms[name] if sign > 0 else lv.inverse_perm(name)
            x = perm[x]
        return x

    def act_point(self, word: Word, point: PointApprox) -> PointApprox:
        return PointApprox(point.depth, self.act(word, point.depth, point.index))

    def word_permutation(self, word: Word, level: int) -> tuple[int, ...]:
        """The full permutation of ``word`` at ``level`` as an image array."""
        for _, image in self.images([word], level):
            return image

    def images(self, words, level: int):
        """Yield ``(i, image)``: the level-``level`` image array of each ``words[i]``.

        Words are visited in lexicographic letter order.  The appended
        letter acts first, so extending a prefix by one letter costs one
        gather, and the stack keeps only the prefix images the next word
        shares: at most ``max(len(w))`` images are alive at once.  Callers
        store results by ``i`` to keep input order.
        """
        if level == 0:
            for i in range(len(words)):
                yield i, (0,)
            return
        lv = self.level(level)
        perms = {}
        for gen, name in enumerate(self.alphabet.names):
            perms[(gen, 1)] = lv.perms[name]
            perms[(gen, -1)] = lv.inverse_perm(name)
        order = sorted(range(len(words)), key=lambda i: words[i].letters)
        # stack[t]: image of the current word's first t letters; None stands
        # for the identity, so a word's first letter costs no gather
        stack = [None]
        for pos, i in enumerate(order):
            letters = words[i].letters
            following = words[order[pos + 1]].letters if pos + 1 < len(order) else ()
            keep = 0
            for a, b in zip(letters, following):
                if a != b:
                    break
                keep += 1
            image = stack[-1]
            for t in range(len(stack) - 1, len(letters)):
                perm = perms[letters[t]]
                image = perm if image is None else compose(image, perm)
                if t < keep:
                    stack.append(image)
            del stack[keep + 1:]
            yield i, tuple(range(lv.size)) if image is None else image

    def level_images(self, image, level: int) -> list[tuple[int, ...]]:
        """Entry ``L`` is the level-``L`` image of the permutation given at ``level``.

        Equivariance gives ``perm_{L-1}[v] = parent_L[perm_L[s_L(v)]]`` for
        any level-``L`` point ``s_L(v)`` over ``v``, so one deep image
        yields every coarser one at O(n_L) per level.
        """
        out = [image]
        for lvl in range(level, 0, -1):
            lv = self.level(lvl)
            sections = self._sections.get(lvl)
            if sections is None:
                over = [0] * self.size(lvl - 1)
                # a perm lists every point once, and reusing its int objects
                # keeps this cache to one pointer per point
                for x in lv.perms[self.alphabet.names[0]]:
                    over[lv.parent[x]] = x
                sections = self._sections[lvl] = tuple(over)
            image = compose(lv.parent, compose(image, sections))
            out.append(image)
        out.reverse()
        return out

    def stabilizer_contains(self, word: Word, level: int) -> bool:
        """Membership in the level-``level`` basepoint stabilizer subgroup."""
        return self.act(word, level, 0) == 0

    def index(self, level: int) -> int:
        """Index of the level-``level`` stabilizer = number of level points."""
        return self.size(level)

    def fixed_count(self, word: Word, level: int) -> int:
        return count_fixed(self.word_permutation(word, level))

    def ancestors(self, level: int, base_level: int) -> tuple[int, ...]:
        """``table[x]``: the level-``base_level`` ancestor of level-``level`` point ``x``.

        Memoized per (level, base level); each table is one gather of the
        table a level below through the parent array.
        """
        if not 0 <= base_level <= level:
            raise ValueError("ancestor levels must satisfy 0 <= base_level <= level")
        key = (level, base_level)
        table = self._ancestor_tables.get(key)
        if table is None:
            if base_level == 0:
                table = (0,) * self.size(level)
            elif base_level == level:
                table = tuple(range(self.size(level)))
            else:
                table = compose(self.ancestors(level - 1, base_level), self.level(level).parent)
            self._ancestor_tables[key] = table
        return table

    def ancestor(self, level: int, x: int, to_level: int) -> int:
        """Iterated parent of a level-``level`` point down to ``to_level``."""
        return self.ancestors(level, to_level)[x]

    def fiber(self, base_level: int, level: int, vertex: int) -> tuple[int, ...]:
        """All level-``level`` points over ``vertex`` at ``base_level``."""
        if base_level > level:
            raise ValueError("fiber requires base_level <= level")
        if not 0 <= vertex < self.size(base_level):
            raise ValueError(f"vertex {vertex} out of range at level {base_level}")
        return tuple(x for x, a in enumerate(self.ancestors(level, base_level)) if a == vertex)


def transversal(chain: ChainAction, level: int) -> list[Word]:
    """Coset representatives: ``t[x]`` moves the basepoint to ``x``.

    Breadth-first over generator moves, so words are shortest; ties are
    broken by discovery order with generators in alphabet order and sign +1
    tried before -1.  Deterministic.
    """
    n = chain.size(level)
    reps: list[Word | None] = [None] * n
    reps[0] = Word.identity()
    if n == 1:
        return [Word.identity()]
    queue = deque([0])
    found = 1
    while queue and found < n:
        x = queue.popleft()
        for gen in range(len(chain.alphabet)):
            for sign in (1, -1):
                y = chain.apply_letter(level, gen, sign, x)
                if reps[y] is None:
                    reps[y] = Word.of(((gen, sign),) + reps[x].letters)
                    queue.append(y)
                    found += 1
    if found < n:
        raise InvalidChainError(
            f"chain {chain.name!r} is not transitive at level {level}: "
            f"orbit of the basepoint has {found} of {n} points"
        )
    return reps  # type: ignore[return-value]


def schreier_generators(chain: ChainAction, level: int) -> list[Word]:
    """A generating set for the level-``level`` basepoint stabilizer.

    For each point ``x`` and generator ``g`` the element moving the
    basepoint to ``x``, through ``g``, and back from ``g.x`` stabilizes the
    basepoint; the reduced non-identity words are returned deduplicated in
    scan order.
    """
    reps = transversal(chain, level)
    n = chain.size(level)
    out: list[Word] = []
    seen: set[tuple] = set()
    for x in range(n):
        for gen in range(len(chain.alphabet)):
            y = chain.apply_letter(level, gen, 1, x)
            word = reps[y].inverse() * Word.generator(gen) * reps[x]
            if word.letters and word.letters not in seen:
                seen.add(word.letters)
                out.append(word)
    return out


def distance(chain: ChainAction, x: PointApprox, y: PointApprox) -> Distance:
    """2^-m where m is the deepest level at which the truncations agree."""
    if x.depth != y.depth:
        raise ValueError(f"depth mismatch: {x.depth} != {y.depth}")
    depth = x.depth
    a, b = x.index, y.index
    if a == b:
        return Distance(Fraction(1, 2**depth), depth, True)
    m = depth
    while a != b:
        lv = chain.level(m)
        a, b = lv.parent[a], lv.parent[b]
        m -= 1
        if m == 0:
            a = b = 0
    return Distance(Fraction(1, 2**m), m, False)


def cylinder_measure(chain: ChainAction, cylinder: Cylinder) -> Fraction:
    """Exact invariant measure 1/n_level of a cylinder (equal coset weights)."""
    n = chain.size(cylinder.level)
    if not 0 <= cylinder.vertex < n:
        raise ValueError(f"vertex {cylinder.vertex} out of range at level {cylinder.level}")
    return Fraction(1, n)


def sample_uniform(chain: ChainAction, depth: int, seed: int) -> PointApprox:
    """Uniform level-``depth`` point from a seeded Mersenne Twister source.

    Rejection sampling on ``getrandbits`` (algorithm id ``mt19937-rejection``)
    so the draw is uniform and reproducible across platforms.
    """
    n = chain.size(depth)
    rng = random.Random(seed)
    bits = max(1, (n - 1).bit_length())
    while True:
        r = rng.getrandbits(bits)
        if r < n:
            return PointApprox(depth, r)


def validate_chain(chain: ChainAction, depth: int) -> ValidationReport:
    """Check every model invariant at levels 1..depth.

    Lists each violated invariant once with its first offending
    (level, generator, point).  An empty list means the chain is a valid
    tower to the requested depth.
    """
    violations: list[Violation] = []
    kinds_seen: set[str] = set()

    def add(invariant: str, level: int, generator: str | None, point: int | None, detail: str):
        if invariant not in kinds_seen:
            kinds_seen.add(invariant)
            violations.append(Violation(invariant, level, generator, point, detail))

    prev: LevelAction | None = None
    prev_size = 1
    for level in range(1, depth + 1):
        lv = chain.level(level)
        n = lv.size
        if n <= prev_size:
            add("size-increase", level, None, None,
                f"size {n} does not exceed size {prev_size} at level {level - 1}")
        if n % prev_size != 0:
            add("fiber-constancy", level, None, None,
                f"size {n} is not a multiple of {prev_size}")
        expected = set(chain.alphabet.names)
        if set(lv.perms) != expected:
            add("generator-set", level, None, None,
                f"permutations present for {sorted(lv.perms)}, expected {sorted(expected)}")
            break
        # equivariance and transitivity index through the perms and parents,
        # so they are skipped on a level whose arrays are already broken
        broken = False
        for name in chain.alphabet.names:
            perm = lv.perms[name]
            seen = [False] * n
            for x, v in enumerate(perm):
                if not 0 <= v < n or seen[v]:
                    add("bijectivity", level, name, x, f"perm[{x}] = {v} breaks bijectivity")
                    broken = True
                    break
                seen[v] = True
        for x, p in enumerate(lv.parent):
            if not 0 <= p < prev_size:
                add("parent-range", level, None, x, f"parent[{x}] = {p} not a level-{level - 1} point")
                broken = True
                break
        if lv.parent[0] != 0:
            add("basepoint", level, None, 0, f"parent of basepoint is {lv.parent[0]}, expected 0")
        counts = [0] * prev_size
        for p in lv.parent:
            if 0 <= p < prev_size:
                counts[p] += 1
        fiber_size = n // prev_size if prev_size else 0
        for v, c in enumerate(counts):
            if c != fiber_size:
                add("fiber-constancy", level, None, v,
                    f"level-{level - 1} point {v} has {c} preimages, expected {fiber_size}")
                break
        if broken:
            prev = lv
            prev_size = n
            continue
        if prev is not None:
            done = False
            for name in chain.alphabet.names:
                perm = lv.perms[name]
                below = prev.perms[name]
                for x in range(n):
                    if lv.parent[perm[x]] != below[lv.parent[x]]:
                        add("equivariance", level, name, x,
                            f"parent(g.{x}) = {lv.parent[perm[x]]} but g.parent({x}) = {below[lv.parent[x]]}")
                        done = True
                        break
                if done:
                    break
        # transitivity: orbit of the basepoint under all generator moves
        reached = [False] * n
        reached[0] = True
        queue = deque([0])
        total = 1
        while queue:
            x = queue.popleft()
            for name in chain.alphabet.names:
                for perm in (lv.perms[name], lv.inverse_perm(name)):
                    y = perm[x]
                    if not reached[y]:
                        reached[y] = True
                        total += 1
                        queue.append(y)
        if total != n:
            add("transitivity", level, None, None,
                f"orbit of basepoint covers {total} of {n} points")
        prev = lv
        prev_size = n
    return ValidationReport(depth, tuple(violations))
