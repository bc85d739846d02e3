"""Tower data model: finite permutation levels with compatible projections.

A chain is a sequence of finite level actions.  Level ``L`` acts on
``{0, ..., n_L - 1}``; a parent array projects level ``L`` onto level
``L - 1`` equivariantly; level 0 is the implicit one-point space.  Point 0
at every level is the basepoint, and the point-0 stabilizers form the
descending subgroup chain the tower encodes.  Levels are immutable once
materialized, and materialization is memoized per chain.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import compress
from math import inf
from operator import eq, itemgetter
from typing import NamedTuple

from .errors import BudgetError, InvalidChainError
from .words import GeneratorAlphabet, Word, cyclic_core, join

DEFAULT_DEPTH_LIMIT = 24
DEFAULT_MEMORY_BUDGET = 4_000_000  # total stored points across levels

PRNG_ALGORITHM = "mt19937-rejection"

# the share of its deepest level a word's tested points may reach in the
# first pass of ``ChainAction.walk`` before the word is imaged instead
DEFER_SHARE = 0.125


def compose(p, q) -> tuple[int, ...]:
    """The image array of ``p`` after ``q``: ``compose(p, q)[x] == p[q[x]]``.

    One C-level gather; ``p`` may be any sequence, ``q`` any index array.
    """
    if len(q) > 1:
        return itemgetter(*q)(p)
    return (p[q[0]],) if q else ()


def invert(p, points=None) -> tuple[int, ...] | None:
    """The inverse of ``p`` made of ``points``' ints (equal to ``range(len(p))``,
    the default), or None when ``p`` permutes no ``range(len(p))``."""
    n, out = len(p), [None] * len(p)
    try:
        for x, v in zip(points or range(n), p):
            out[v] = x
        # a hole (entries equal mod n) fails the first sum, and a negative
        # entry takes n off the second
        return tuple(out) if sum(out) + sum(p) == n * (n - 1) else None
    except (IndexError, TypeError):
        return None


def fixed_among(points, got) -> tuple[int, ...]:
    """The ``points`` their images ``got`` leave in place: the kernel's
    one per-point scan."""
    return tuple(compress(points, map(eq, got, points)))


def count_fixed(image) -> int:
    """Fixed points of an image array."""
    return sum(map(eq, image, range(len(image))))


def check_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")


class LevelAction:
    """One finite level: sizes, parent projection, generator permutations."""

    __slots__ = ("level", "size", "parent", "perms")

    def __init__(self, level: int, size: int, parent: tuple[int, ...], perms: dict):
        self.level = level
        self.size = size
        self.parent = parent
        self.perms = {name: tuple(p) for name, p in perms.items()}
        if len(parent) != size:
            raise InvalidChainError(f"level {level}: parent array length {len(parent)} != size {size}")
        for name, perm in self.perms.items():
            if len(perm) != size:
                raise InvalidChainError(f"level {level}: perm {name!r} length {len(perm)} != size {size}")


class PointApprox(NamedTuple):
    """A depth-``depth`` truncation of a boundary point (a cylinder of points)."""

    depth: int
    index: int


class Cylinder(NamedTuple):
    """All boundary points over one level-``level`` vertex."""

    level: int
    vertex: int


class Violation(NamedTuple):
    invariant: str
    level: int
    generator: str | None
    point: int | None
    detail: str


class ValidationReport(NamedTuple):
    depth: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ChainAction:
    """A lazily materialized tower of level actions.

    ``provider(level)`` returns the :class:`LevelAction` for ``level``
    (1-based).  It is called once per level and in increasing level order,
    so it may carry state from the level below; it is not required to be
    pure, but a repeated call for a level (after an error) must return an
    equal level.  ``level_size(level)`` is the closed-form size of a level:
    the memory budget is checked against the sizes of every level a request
    needs before the provider builds any.  ``depth_limit`` and
    ``memory_budget`` are hard budgets: exceeding them raises a budget
    error, never truncates.  ``mealy`` is the
    :class:`~cantoract.mealy.MealyMachine` whose action on length-``L``
    strings each level ``L`` is, for a chain built from one.

    The permutation kernel every analysis calls lives here: the letter
    table, each letter's image array at a level (:meth:`letter_perms`),
    the images of a few points under a word (:meth:`apply`), word images
    built over shared prefixes (:meth:`images`), the memoized
    :meth:`ancestors`, :meth:`children`, :meth:`representatives` and
    :meth:`descendants` tables, and :meth:`walk`, the one reading of a
    word's fixed counts and deepest fixed set.  Every memoized table holds
    only the ints a level's :meth:`points` hold, so a gather through one
    makes no int, and an ancestor or descendant table is built only for
    the (level, base level) pair a caller reads.
    """

    def __init__(
        self,
        alphabet: GeneratorAlphabet,
        provider,
        *,
        name: str,
        level_size,
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
        mealy=None,
    ):
        self.alphabet = alphabet
        self.name = name
        self.depth_limit = depth_limit
        self.memory_budget = memory_budget
        self.mealy = mealy
        self._provider = provider
        self._level_size = level_size
        self._levels: list[LevelAction] = []
        self._stored_points = 0
        self._ancestor_tables: dict[tuple[int, int], tuple] = {}
        self._children: dict[int, tuple] = {}
        self._points: dict[int, tuple] = {}
        self._root = LevelAction(0, 1, (0,), dict.fromkeys(alphabet.names, (0,)))  # level 0
        self._descendants: dict[tuple[int, int], tuple] = {}
        self._letter_perms: dict[int, list] = {}

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
        # refuse before building anything, not after the levels below
        sizes = {nxt: self._level_size(nxt) for nxt in range(len(self._levels) + 1, level + 1)}
        total = self._stored_points
        for nxt, size in sizes.items():
            total += size
            if total > self.memory_budget:
                raise BudgetError(
                    "memory_budget",
                    f"materializing level {nxt} ({size} points) exceeds "
                    f"memory_budget={self.memory_budget} for chain {self.name!r}",
                )
        for nxt, size in sizes.items():
            built = self._provider(nxt)
            if built.level != nxt or built.size != size:
                raise InvalidChainError(
                    f"provider returned level {built.level} of size {built.size}, "
                    f"expected level {nxt} of size {size}"
                )
            self._levels.append(built)
            self._stored_points += size
        return self._levels[level - 1]

    def size(self, level: int) -> int:
        return self.level(level).size if level else 1

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
        perms = self.letter_perms(level)
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
            yield i, self.points(level) if image is None else image

    def points(self, level: int) -> tuple[int, ...]:
        """``range(size(level))`` as a memoized tuple of the int objects the
        level's first generator holds (its inverse keyed by its own entries),
        so the tables built from it make none.  Callers must not mutate it."""
        points = self._points.get(level)
        if points is None:
            lv, name = self.level(level) if level else self._root, self.alphabet.names[0]
            points = self._points[level] = _checked_inverse(lv, name, lv.perms[name])
        return points

    def letter_perms(self, level: int) -> list:
        """``perms[x]``: letter ``x``'s image array, memoized per level, so a
        generator's is at ``2*gen`` and its inverse's at ``2*gen + 1`` (every
        letter is ``(0,)`` at level 0, the one-point space).  An involution,
        found by one gather of its perm through itself (skipped unless the
        perm maps the images of the first and the last point back to them),
        is its own inverse; any other inverse is made of :meth:`points`'
        ints, and a generator that is no bijection is an
        :class:`InvalidChainError`.  Callers must not mutate it."""
        perms = self._letter_perms.get(level)
        if perms is None:
            lv, points = self.level(level) if level else self._root, self.points(level)
            perms = []
            for name in self.alphabet.names:
                perm = lv.perms[name]
                try:  # an involution is its own inverse, so a bijection
                    own = (perm[perm[0]] == 0 and perm[perm[-1]] == len(perm) - 1
                           and compose(perm, perm) == points)
                except (IndexError, TypeError):
                    own = False
                perms += [perm, perm if own else _checked_inverse(lv, name, points)]
            self._letter_perms[level] = perms
        return perms

    def apply(self, word: Word, level: int, points) -> tuple[int, ...]:
        """The images of level-``level`` ``points`` under ``word``: one
        gather of the points per letter, the rightmost letter first."""
        perms = self.letter_perms(level)
        for letter in reversed(word.letters):
            points = compose(perms[letter], points)
        return tuple(points)

    def walk(self, words, level: int):
        """Yield ``(i, counts, fixed)`` for each ``words[i]``: its fixed
        counts at levels ``1..level`` and its level-``level`` fixed set, in
        no order.

        A point fixed at level ``L`` lies over a vertex fixed at ``L - 1``,
        so each level tests only the children (:meth:`children`) of the
        vertices fixed one level up, from every level-1 point.  Pass 1
        walks each word on its tested points alone (:meth:`apply`).  A word
        whose tested points, summed over the levels, would pass
        ``size(level) * DEFER_SHARE`` is deferred where it is; pass 2 images
        the deferred words over shared prefixes (:meth:`images`) and
        resumes each there.  An image costs a gather of the whole level per
        letter, so a word whose fixed set soon empties costs a small part
        of one, and a word that fixes most points wastes at most 1/8 of the
        image it needed.  At the deepest level an image saves no later
        level, so a word defers only above it, and one that runs out of
        budget there is finished point by point.

        Every fixed point lies under a tested point, so a deferred word
        fixes at most ``len(points) * size(level) // size(lvl)`` points, and
        that many only if it fixes every point under ``points``.  Pass 2
        gathers each column of the (level, ``lvl``) :meth:`descendants` over
        the tested points and compares it with its image; if every column is
        fixed, they are the fixed set and each count is read from the sizes.
        Otherwise the walk goes on from the tested points, or from their
        children when the first column (the representatives) is fixed,
        reading each point's image through its :meth:`representatives` and
        :meth:`ancestors`.  The descendants read :meth:`children` below the
        tested level, so a level without constant fibers is refused here
        too.  Pass 1 yields in input order; the deferred words follow in
        image order, so callers store results by ``i``.
        """
        if level < 1:
            raise ValueError("fixed counts need 1 <= level")
        start = (1, self._children_of(1, (0,)))
        sizes = [self.size(lvl) for lvl in range(level + 1)]
        size = sizes[level]
        budget = int(size * DEFER_SHARE)
        deferred = []
        for i, word in enumerate(words):
            counts = []
            fixed, resume = self._descend(partial(self.apply, word), level, start, counts, budget)
            if resume is None:
                yield i, counts, fixed
            else:
                deferred.append((i, resume, counts))
        for j, image in self.images([words[i] for i, _, _ in deferred], level):
            i, (lvl, points), counts = deferred[j]
            deferred[j] = None
            fixed = []
            for column in self.descendants(level, lvl):
                deep = compose(column, points)
                if compose(image, deep) != deep:
                    break
                fixed += deep
            else:
                counts.extend(len(points) * n // sizes[lvl] for n in sizes[lvl:])
                yield i, counts, tuple(fixed)
                continue
            if fixed:  # the first column, the representatives, is fixed
                counts.append(len(points))
                lvl += 1
                points = self._children_of(lvl, points)
            fixed, _ = self._descend(partial(self._read_image, image, level), level,
                                     (lvl, points), counts, inf)
            yield i, counts, fixed

    def _read_image(self, image, level: int, lvl: int, points) -> tuple[int, ...]:
        """The images of level-``lvl`` ``points`` read from a level-``level``
        ``image``: the ancestor at ``lvl`` of the image of a point over each."""
        if lvl == level:
            return compose(image, points)
        reps = compose(self.representatives(level, lvl), points)
        return compose(self.ancestors(level, lvl), compose(image, reps))

    def _descend(self, evaluate, level: int, start, counts: list, budget):
        """Walk one word down from ``start = (lvl, points)``, appending each
        level's fixed count to ``counts``; ``evaluate(lvl, points)`` gives
        the word's images of the points, and only a level where some point
        moves is scanned (:func:`fixed_among`).  Returns ``(fixed, None)``
        with the level-``level`` fixed set, padding ``counts`` with zeros
        once it empties, or ``(None, (lvl, points))`` when testing ``points``
        above ``level`` would take the tested total past ``budget``.
        """
        lvl, points = start
        while True:
            budget -= len(points)
            if budget < 0 and lvl < level:
                return None, (lvl, points)
            got = evaluate(lvl, points)
            fixed = points if got == points else fixed_among(points, got)
            counts.append(len(fixed))
            if lvl == level or not fixed:
                counts.extend([0] * (level - lvl))
                return fixed, None
            lvl += 1
            points = self._children_of(lvl, fixed)

    def _children_of(self, level: int, vertices) -> tuple[int, ...]:
        points = []
        for column in self.children(level):
            points += compose(column, vertices)
        return tuple(points)

    def fixed_count(self, word: Word, level: int) -> int:
        return count_fixed(self.word_permutation(word, level))

    def ancestors(self, level: int, base_level: int) -> tuple[int, ...]:
        """``table[x]``: the level-``base_level`` ancestor of level-``level`` point ``x``.

        Built coarse-first: from ``points(base_level)``, each finer parent
        array is gathered through the table so far, so a table costs fewer
        than two gathers of its level and is a tuple of ``points(base_level)``'s
        ints.  Only the requested (level, base level) pair is memoized;
        callers must not mutate it.
        """
        if not 0 <= base_level <= level:
            raise ValueError("ancestor levels must satisfy 0 <= base_level <= level")
        table = self._ancestor_tables.get((level, base_level))
        if table is None:
            table = self.points(base_level)
            for lvl in range(base_level + 1, level + 1):
                table = compose(table, self.level(lvl).parent)
            self._ancestor_tables[level, base_level] = table
        return table

    def children(self, level: int) -> tuple:
        """``table[j][v]``: the ``j``-th level-``level`` point over vertex ``v`` one level up.

        The points over one vertex are listed in increasing order, and
        every vertex must have the same number of them (fiber constancy).
        In the digit layout (a parent array of ``points(level - 1)`` repeated,
        as all but the torus-based builders make it) the columns are slices
        of :meth:`points`; any other is sorted by parent and checked.  A
        level without fiber constancy, or whose first generator (the array :meth:`points`
        is read from) is no bijection, is an :class:`InvalidChainError`.
        The columns are memoized tuples of :meth:`points`' ints, so a gather
        through them makes no int; callers must not mutate them.
        """
        table = self._children.get(level)
        if table is None:
            lv = self.level(level)
            n, below = lv.size, self.size(level - 1)
            parent, k = lv.parent, n // below
            points, above = self.points(level), self.points(level - 1)
            if parent == above * k:  # the digit layout: point j * below + v
                columns = [points[j * below:(j + 1) * below] for j in range(k)]
            else:
                # a stable sort of the increasing points keeps siblings ascending
                order = sorted(points, key=parent.__getitem__)
                columns = [order[j::k] for j in range(k)]
                if k * below != n or not all(compose(parent, c) == above for c in columns):
                    _, detail = (_first_offender("fiber-constancy", lv, below)
                                 or _first_offender("parent-range", lv, below))
                    raise InvalidChainError(f"level {level}: {detail}")
            table = self._children[level] = tuple(map(tuple, columns))
        return table

    def representatives(self, level: int, base_level: int) -> tuple:
        """``table[v]``: one level-``level`` point over level-``base_level``
        vertex ``v``, the first column of :meth:`descendants`."""
        return self.descendants(level, base_level)[0]

    def descendants(self, level: int, base_level: int) -> tuple:
        """``table[j][v]``: the ``j``-th level-``level`` point over
        level-``base_level`` vertex ``v``, the deepest :meth:`children`
        column the top digit of ``j``, so ``table[0]`` takes the first child
        at every level.  Built coarse-first, one gather per column, and
        memoized per pair at one pointer per point; do not mutate it."""
        if not 0 <= base_level < level:
            raise ValueError("descendant levels must satisfy 0 <= base_level < level")
        table = self._descendants.get((level, base_level))
        if table is None:
            table = self.children(base_level + 1)
            for lvl in range(base_level + 2, level + 1):
                table = tuple(compose(c, col) for c in self.children(lvl) for col in table)
            self._descendants[level, base_level] = table
        return table

    def fiber(self, base_level: int, level: int, vertex: int) -> tuple[int, ...]:
        """All level-``level`` points over ``vertex`` at ``base_level``, in
        increasing order, read level by level from the ``children`` columns."""
        if not 0 <= base_level <= level:
            raise ValueError("ancestor levels must satisfy 0 <= base_level <= level")
        if not 0 <= vertex < self.size(base_level):
            raise ValueError(f"vertex {vertex} out of range at level {base_level}")
        points = (vertex,)
        for below in range(base_level + 1, level + 1):
            points = self._children_of(below, points)
        return tuple(sorted(points))


def _least_start(seq: tuple) -> int:
    """Where the lexicographically least rotation of ``seq`` starts, in
    linear time: two candidate starts in the doubled sequence, each
    comparison run moving one past it."""
    n = len(seq)
    doubled = seq + seq
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def class_keys(words: list[Word]) -> list[tuple]:
    """Per nonempty reduced word, its cyclic core up to rotation and
    inversion (the least rotation of the core or of its inverse): the
    conjugacy key of the Farber checks and the LCS witness search.  A key
    is stored under every rotation of the core and of its inverse while the
    ``2 n^2`` letters so copied stay within twice the words' total letters,
    so time and memory stay linear in those letters.
    """
    spare = 2 * sum(len(w.letters) for w in words)
    memo = {}
    keys = []
    for (core,) in words:  # a word's one field, its letters
        if core[0] == core[-1] ^ 1:  # else it is its own cyclic core
            core = cyclic_core(core)[1]
        key = memo.get(core)
        if key is None:
            n = len(core)
            inverse = tuple(x ^ 1 for x in reversed(core))
            key = memo[core] = min(c[i:] + c[:i] for c in (core, inverse) for i in [_least_start(c)])
            if 2 * n * n <= spare:
                spare -= 2 * n * n
                for r in range(n):
                    memo[core[r:] + core[:r]] = memo[inverse[r:] + inverse[:r]] = key
        keys.append(key)
    return keys


def conjugator(first: Word, word: Word) -> tuple:
    """The letters of a ``g`` with ``word = g first^e g^-1`` (``e = ±1``) for
    words of one :func:`class_keys` key, in linear time; words of different
    keys are a ValueError.  With cyclic cores ``first = u c u^-1`` and ``word
    = v d v^-1``, ``d = X^-1 c^e X`` for ``X`` the letters of ``c^e`` before
    the offset of the two least rotation starts, so ``g = v X^-1 u^-1``."""
    (m, core), (k, target) = cyclic_core(first.letters), cyclic_core(word.letters)
    s = _least_start(target)
    for c in (core, Word(core).inverse().letters):
        t = _least_start(c)
        if len(c) == len(target) and c[t:] + c[:t] == target[s:] + target[:s]:
            x, u = Word(c[:(t - s) % len(c)]), Word(first.letters[:m])
            return (Word(word.letters[:k]) * x.inverse() * u.inverse()).letters
    raise ValueError("the words have different conjugacy keys")


def walk_classes(chain: ChainAction, words: list[Word], level: int):
    """``(keys, walks)``: the :func:`class_keys` of ``words``, and ``(key,
    word, counts, fixed)`` once per key, as :meth:`ChainAction.walk` yields
    it for the key's first word; the first words are walked in one call, in
    order of first occurrence.  Words with one key are conjugate, up to
    inversion, by some ``t``, and ``Fix(t w t^-1) = t Fix(w)``, so every
    count and cylinder level of the walk holds for each word of the key.
    """
    keys = class_keys(words)
    firsts = {}
    for key, word in zip(keys, words):
        firsts.setdefault(key, word)
    firsts = list(firsts.items())
    return keys, ((*firsts[i], counts, fixed)
                  for i, counts, fixed in chain.walk([w for _, w in firsts], level))


def restrict(chain: ChainAction, base_level: int, words: list[Word]) -> ChainAction:
    """The tower of fibers over the basepoint at ``base_level``: level ``j``
    holds the level-``base_level + j`` points over it, numbered column by
    column of the ``children`` tables (so the basepoint stays 0, and the
    parent array repeats ``range`` of the level above), and letter ``i``
    acts as ``words[i]`` does there.  A word must fix the basepoint, so
    that it maps each fiber onto itself; one that does not is a ValueError
    when a level is built.  Levels are built on first use, in C-level
    passes (the ``children`` columns, :meth:`ChainAction.apply` and a dict
    of positions), and charged against the budget the chain has left.
    """
    names = tuple(f"s{i}" for i in range(len(words)))
    fibers = {0: (0,)}  # level -> its chain points, in the tower's order

    def provider(j: int) -> LevelAction:
        level, above = base_level + j, fibers[j - 1]
        fiber = chain._children_of(level, above)
        at = dict(zip(fiber, range(len(fiber))))
        try:
            perms = {name: compose(at, chain.apply(w, level, fiber)) for name, w in zip(names, words)}
        except KeyError:
            raise ValueError(f"a word moves the basepoint at level {base_level}") from None
        fibers[j] = fiber
        parent = tuple(range(len(above))) * (len(fiber) // len(above))
        return LevelAction(j, len(fiber), parent, perms)

    return ChainAction(GeneratorAlphabet(names), provider, name=f"{chain.name} over level {base_level}",
                       level_size=lambda j: chain.size(base_level + j) // chain.size(base_level),
                       depth_limit=chain.depth_limit - base_level,
                       memory_budget=chain.memory_budget - chain._stored_points)


def _orbit(chain: ChainAction, level: int) -> tuple[list, list, int]:
    """``(source, via, reached)`` of a level's breadth-first walk from the
    basepoint over the letter tables (in letter order, an involution's one
    table read once): ``source[y]`` and ``via[y]`` are the point and the
    letter ``y`` was first reached from (None off the orbit, and ``via[0]``
    None), and ``reached`` is the orbit's size.  The walk stops once the
    orbit holds every point."""
    n, perms = chain.size(level), chain.letter_perms(level)
    steps = [(x, perm) for x, perm in enumerate(perms) if not x & 1 or perm is not perms[x ^ 1]]
    source, via, orbit = [None] * n, [None] * n, [0]
    source[0] = 0
    for x in orbit:  # the orbit grows while it is read, so each point is visited
        if len(orbit) == n:
            break
        for letter, perm in steps:
            y = perm[x]
            if source[y] is None:
                source[y], via[y] = x, letter
                orbit.append(y)
    return source, via, len(orbit)


def _spell(source: list, via: list, x: int) -> tuple:
    """The letters of the tree path that moves the basepoint to ``x``."""
    letters = []
    while x:
        letters.append(via[x])
        x = source[x]
    return tuple(letters)


def schreier_generators(chain: ChainAction, level: int, max_generators: float = inf) -> list[Word]:
    """A free basis of the level-``level`` basepoint stabilizer: per point
    ``x`` and generator ``g`` in scan order, ``t(g.x)^-1 * g * t(x)`` with
    ``t(x)`` the shortest word moving the basepoint to ``x`` on the
    breadth-first tree of :func:`_orbit`, spelled by junction joins for the
    edges off that tree (on it, the word is the identity).  That is
    ``size(level) * (k - 1) + 1`` words over ``k`` generators, a count
    refused past ``max_generators`` before the orbit is walked."""
    n, k = chain.size(level), len(chain.alphabet)
    count = n * (k - 1) + 1
    if count > max_generators:
        raise BudgetError("schreier_generators", f"{count} Schreier generators at level "
                          f"{level} exceed the cap of {max_generators}")
    source, via, reached = _orbit(chain, level)
    if reached < n:
        raise InvalidChainError(
            f"chain {chain.name!r} is not transitive at level {level}: "
            f"orbit of the basepoint has {reached} of {n} points"
        )
    perms = chain.letter_perms(level)
    gens = []
    for x in range(n):
        for plus in range(0, 2 * k, 2):
            y = perms[plus][x]
            # the letter that enters a point fixes the point it came from, so
            # these are the tree edges x -> y by g and y -> x by g^-1
            if via[y] != plus and via[x] != plus + 1:
                back = tuple(z ^ 1 for z in reversed(_spell(source, via, y)))
                gens.append(Word(join(join(back, (plus,)), _spell(source, via, x))))
    return gens


def _checked_inverse(lv: LevelAction, name: str, points) -> tuple[int, ...]:
    """``invert`` of ``lv``'s generator ``name``; a generator that is no
    bijection is refused with validation's offender and violation."""
    inverse = invert(lv.perms[name], points)
    if inverse is None:
        point, detail = _first_offender("bijectivity", lv, 1, name)
        raise InvalidChainError(f"level {lv.level}: {detail}", ValidationReport(
            lv.level, (Violation("bijectivity", lv.level, name, point, detail),)))
    return inverse


def _first_offender(invariant: str, lv: LevelAction, prev_size: int, name=None, below=None):
    """``(point, detail)`` for the first point of ``lv`` that breaks
    ``invariant`` (for generator ``name``, whose array one level down is
    ``below``), or None.  A per-point scan, so :func:`validate_chain` and
    the kernel tables call it only to name the offender on a level that
    failed a C-level check."""
    n, parent, k = lv.size, lv.parent, lv.size // prev_size
    if invariant == "bijectivity":
        seen = set()
        for x, v in enumerate(lv.perms[name]):
            if not 0 <= v < n or v in seen:
                return x, f"perm[{x}] = {v} breaks bijectivity"
            seen.add(v)
    elif invariant == "parent-range":
        for x, p in enumerate(parent):
            if not 0 <= p < prev_size:
                return x, f"parent[{x}] = {p} not a level-{lv.level - 1} point"
    elif invariant == "fiber-constancy":
        counts = Counter(parent)
        for v in range(prev_size):
            if counts[v] != k:
                return v, f"level-{lv.level - 1} point {v} has {counts[v]} preimages, expected {k}"
    else:
        perm = lv.perms[name]
        for x in range(n):
            if parent[perm[x]] != below[parent[x]]:
                return x, f"parent(g.{x}) = {parent[perm[x]]} but g.parent({x}) = {below[parent[x]]}"
    return None


def validate_chain(chain: ChainAction, depth: int) -> ValidationReport:
    """Check every model invariant at levels 1..depth.

    Lists each violated invariant once with its first offending
    (level, generator, point); an empty list means a valid tower to
    ``depth``.  Each invariant is one pass per level (the letter tables'
    inversions, ``min``/``max``, slices of the sorted parents, two gathers
    per generator), and only a level that fails one reaches the per-point
    ``_first_offender``.  Transitivity reads the size of the basepoint's
    orbit from :func:`_orbit`, the breadth-first walk whose tree
    :func:`schreier_generators` spells.  Parents are equivariant and onto,
    so a tower with no other violation is transitive at every level if it
    is at ``depth``, and only that orbit is walked; otherwise each level's
    is, up to the first that fails.
    """
    violations: list[Violation] = []

    def add(invariant: str, level: int, generator: str | None, point: int | None, detail: str):
        if invariant not in {v.invariant for v in violations}:
            violations.append(Violation(invariant, level, generator, point, detail))

    def offend(invariant: str, lv: LevelAction, name=None, below=None) -> bool:
        found = _first_offender(invariant, lv, prev_size, name, below)
        if found:
            add(invariant, lv.level, name, *found)
        return True

    chain.level(depth)  # a budget error comes before any level is built
    names = chain.alphabet.names
    prev = chain._root
    walkable = {}  # level action -> violations found before its transitivity check
    for level in range(1, depth + 1):
        lv = chain.level(level)
        n, parent, prev_size = lv.size, lv.parent, prev.size
        if n <= prev_size:
            add("size-increase", level, None, None,
                f"size {n} does not exceed size {prev_size} at level {level - 1}")
        if n % prev_size != 0:
            add("fiber-constancy", level, None, None,
                f"size {n} is not a multiple of {prev_size}")
        if set(lv.perms) != set(names):
            add("generator-set", level, None, None,
                f"permutations present for {sorted(lv.perms)}, expected {sorted(names)}")
            break
        # equivariance and transitivity index through the perms and parents,
        # so they are skipped on a level whose arrays are already broken
        broken = False
        try:  # the letter tables, built here in set-up, refuse a non-bijection
            chain.letter_perms(level)
        except InvalidChainError as exc:
            add(*exc.report.violations[0])
            broken = True
        if not (min(parent) >= 0 and max(parent) < prev_size):
            broken = offend("parent-range", lv)
        if parent[0] != 0:
            add("basepoint", level, None, 0, f"parent of basepoint is {parent[0]}, expected 0")
        # each vertex's run of k sorted parents starts and ends on it; the
        # size test comes first, as a slice step of 0 raises
        k = n // prev_size
        ordered, vertices = sorted(parent), list(range(prev_size))
        if not (k * prev_size == n and ordered[::k] == vertices == ordered[k - 1::k]):
            offend("fiber-constancy", lv)
        if not broken:
            for name in names:
                below = prev.perms[name]
                if compose(parent, lv.perms[name]) != compose(below, parent):
                    offend("equivariance", lv, name, below)
                    break
            walkable[lv] = len(violations)
        prev = lv
    if violations or _orbit(chain, depth)[2] < chain.size(depth):
        for lv, at in walkable.items():
            reached = _orbit(chain, lv.level)[2]
            if reached < lv.size:
                violations.insert(at, Violation("transitivity", lv.level, None, None,
                                                f"orbit of basepoint covers {reached} of "
                                                f"{lv.size} points"))
                break
    return ValidationReport(depth, tuple(violations))
