"""Test-only cross-checks that no command or documented library call needs.

The point-wise action here reads a level's generator permutations directly
and inverts a letter with ``perm.index``, so it shares no code with the
kernel's letter tables (``ChainAction.letter_perms``) or word images;
``ancestor`` walks one point up the parent arrays, where the kernel
gathers whole tables (``ChainAction.ancestors``), and ``density_entries``
is the density profile from those two, point by point.
``children_table`` and ``descendant`` read the kernel's ``children`` and
``descendants`` tables (and so ``representatives``, the descendants'
first column) one parent entry at a time, and ``relabel`` renames every
level's points by bijections that fix the basepoint, a copy of a tower
whose children no longer sit in the digit layout.
``core_membership`` is the depth-truncated core test the Farber checks
apply to a candidate's counts, asked of one word at a time.  ``walk`` is
the kernel's fixed walk as it was when it took a base level and counted
over the fiber of the basepoint there, and ``local_farber_check`` scores
the localized Farber candidates with it and with the pair keys below:
the reference path of the localized check, which now runs the classic
check on the base fiber's own tower.
``validate_chain_pointwise`` checks a tower one point at a time, as
``validate_chain`` did before its C-level passes, and must give the same
report.  ``class_keys`` is the conjugacy key as it was before pairs were
coded as ints: least rotations of ``(letter, state)`` tuples, computed for
every word; the kernel's keys must group words the same way.
``root_permutation`` is a transducer word's action on the first letter;
``state_word`` and ``vertex_path`` read a chain word and a vertex of a
chain built from a machine in the machine's terms, and ``machine_to_dict``
writes a machine file.  ``moved_measure_at`` is the fat-Cantor ledger's
measure of the points its visible punctures move.  ``transversal``,
``schreier_generators`` and ``local_candidates`` are the coset
representatives, the Schreier formula and the localized-Farber candidate
builder as they were before the kernel spelled only non-tree edges and
joined candidates at one junction: a whole transversal, every
point-generator pair reduced from scratch, and every candidate flattened
and reduced from scratch.  ``commutator`` and ``conjugate`` likewise
flatten the LCS candidates' factors and reduce them from scratch, where
the word layer joins the factors at their junctions.  ``lqa_scale_level``
is the LQA scale by its definition, read from every scan word's image,
where the library walks one word per conjugacy key.
``partial_triviality_witnesses`` is the witness scan by its definition:
every scan word walked and its own maximal fixed cylinders read, each
witness re-checked on a fiber built for it alone, where the library walks
one word per key and moves its cylinders by the conjugator.
``adding_machine`` and ``adding_machine_chain`` build the binary-odometer
transducer and its chain, the Mealy twin of ``odometer``.  ``affine_element`` and
``affine_fixed_count`` give a word's fixed counts on the four affine
families (``odometer``, ``toral``, ``dihedral``, ``heisenberg``) in closed
form, from the group's normal form alone: no level array is read.
Every reference reads a word as ``(gen, sign)`` pairs (:func:`pairs`
decodes the kernel's int letters, :func:`from_pairs` encodes them) and
reduces pairs with its own :func:`reduce_pairs`, so none of them shares
the kernel's letter arithmetic; ``pair_key`` and ``pair_words`` are the
canonical order and the word enumeration over pairs.
"""

from fractions import Fraction
from functools import partial
from itertools import compress
from math import gcd
from operator import eq
from typing import NamedTuple

import cantoract.chain as chain_module
from cantoract.builders import mealy_chain
from cantoract.chain import ChainAction, LevelAction, PointApprox, ValidationReport, Violation
from cantoract.farber import FAIL, INDISTINGUISHABLE, PASS, FarberReport, WordVerdict
from cantoract.holonomy import _maximal_fixed_cylinders
from cantoract.mealy import MealyMachine, StateWord
from cantoract.punctured import FatCantorPlan
from cantoract.scans import TrivialityWitness, _mealy_exact
from cantoract.words import Word, cyclic_core, distinct, reduced_words


def pairs(word: Word) -> tuple:
    """``word``'s letters as ``(gen, sign)`` pairs: letter ``2*gen`` is
    ``(gen, 1)`` and letter ``2*gen + 1`` is ``(gen, -1)``."""
    return tuple((x // 2, -1 if x % 2 else 1) for x in word.letters)


def reduce_pairs(letters) -> tuple:
    """Cancel adjacent ``(g, s), (g, -s)`` pairs, from scratch."""
    stack = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


def from_pairs(letters) -> Word:
    """The word of the ``(gen, sign)`` pairs ``letters``, reduced as pairs."""
    return Word(tuple(2 * g + (1 if s < 0 else 0) for g, s in reduce_pairs(letters)))


def _inverse(word: Word) -> tuple:
    """The pairs of ``word``'s inverse."""
    return tuple((g, -s) for g, s in reversed(pairs(word)))


def pair_key(letters) -> tuple:
    """The canonical order of ``(gen, sign)`` words: length first, then
    letters, each generator's ``+1`` before its ``-1``."""
    return len(letters), tuple((g, 0 if s > 0 else 1) for g, s in letters)


def pair_words(k: int, max_len: int) -> list[tuple]:
    """Every nonempty reduced word of ``(gen, sign)`` pairs over ``k``
    generators up to ``max_len`` letters, extended letter by letter and
    sorted by :func:`pair_key`."""
    letters = [(g, s) for g in range(k) for s in (1, -1)]
    words, out = [()], []
    for _ in range(max_len):
        words = [w + (x,) for w in words for x in letters if not w or w[-1] != (x[0], -x[1])]
        out += words
    return sorted(out, key=pair_key)


class Distance(NamedTuple):
    """Ultrametric distance between equal-depth truncations.

    ``agreement_level`` is the deepest level at which the truncations
    coincide; ``value`` is 2^-agreement_level.  ``indistinguishable`` marks
    truncations equal at full depth (never asserted to be the same point).
    """

    value: Fraction
    agreement_level: int
    indistinguishable: bool


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


def ancestor(chain: ChainAction, level: int, x: int, base_level: int) -> int:
    """The level-``base_level`` ancestor of level-``level`` point ``x``,
    one parent array at a time."""
    while level > base_level:
        x = chain.level(level).parent[x]
        level -= 1
    return x if base_level > 0 else 0


def act(chain: ChainAction, word: Word, level: int, x: int) -> int:
    """Apply ``word`` to level-``level`` point ``x``, the rightmost letter first."""
    if level == 0:
        return 0
    perms = chain.level(level).perms
    for gen, sign in reversed(pairs(word)):
        perm = perms[chain.alphabet.names[gen]]
        x = perm[x] if sign > 0 else perm.index(x)
    return x


def children_table(chain: ChainAction, level: int) -> list[tuple]:
    """``table[j][v]``: the ``j``-th smallest level-``level`` point whose
    parent is ``v``, read one parent entry at a time."""
    over = [[] for _ in range(chain.size(level - 1))]
    for x, v in enumerate(chain.level(level).parent):
        over[v].append(x)
    assert len({len(points) for points in over}) == 1, "fibers are not constant"
    return list(zip(*over))


def descendant(chain: ChainAction, level: int, base_level: int, j: int, v: int) -> int:
    """The ``j``-th level-``level`` point over level-``base_level`` vertex
    ``v``: going down from ``v``, the child taken at each level ``L`` is
    digit ``j * size(base_level) // size(L - 1) % k`` of the ``k``
    :func:`children_table` entries over the point reached (the deepest
    level's digit the most significant), so ``j = 0`` is the point reached
    by the first child at every level."""
    x = v
    for lvl in range(base_level + 1, level + 1):
        table = children_table(chain, lvl)
        x = table[j * chain.size(base_level) // chain.size(lvl - 1) % len(table)][x]
    return x


def relabel(chain: ChainAction, depth: int, sigma: list) -> ChainAction:
    """``chain`` to ``depth`` with each level-``L`` point ``x`` renamed
    ``sigma[L][x]`` (``sigma[0] == [0]``, and each ``sigma[L]`` fixes the
    basepoint): the parent of ``sigma[L][x]`` is ``sigma[L-1]`` of the parent
    of ``x``, and each generator maps ``sigma[L][x]`` to ``sigma[L]`` of its
    image of ``x``, so the copy is the same action with other point names."""
    def provider(level: int) -> LevelAction:
        lv, names, up = chain.level(level), sigma[level], sigma[level - 1]
        back = [0] * lv.size
        for x, y in enumerate(names):
            back[y] = x
        parent = tuple(up[lv.parent[x]] for x in back)
        perms = {g: tuple(names[p[x]] for x in back) for g, p in lv.perms.items()}
        return LevelAction(level, lv.size, parent, perms)

    return ChainAction(chain.alphabet, provider, name=f"{chain.name} relabelled",
                       level_size=chain.size, depth_limit=depth)


def density_entries(chain: ChainAction, word: Word, depth: int, center: int) -> list[Fraction]:
    """Per level 0..``depth``, the share of the depth fiber over the ancestor
    of level-``depth`` point ``center`` that ``word`` fixes, point by point."""
    fixed = {y for y in range(chain.size(depth)) if act(chain, word, depth, y) == y}
    entries = []
    for level in range(depth + 1):
        vertex = ancestor(chain, depth, center, level)
        fiber = [y for y in range(chain.size(depth)) if ancestor(chain, depth, y, level) == vertex]
        entries.append(Fraction(len(fixed.intersection(fiber)), len(fiber)))
    return entries


def stabilizer_contains(chain: ChainAction, word: Word, level: int) -> bool:
    """Membership in the level-``level`` basepoint stabilizer subgroup."""
    return act(chain, word, level, 0) == 0


def core_membership(chain: ChainAction, word: Word, base_level: int, level: int) -> bool:
    """Membership in the depth-truncated core at ``base_level``.

    True iff the word fixes every level-``level`` point over the basepoint
    at ``base_level`` (and so stabilizes that basepoint), i.e. it acts
    trivially on the coset space between the two stabilizers: the test
    the Farber checks use for "indistinguishable".
    """
    if base_level > level:
        raise ValueError("core membership needs base_level <= level")
    if not level:
        return True
    fixed = next(walk(chain, [word], level, base_level))[1][-1]
    return fixed * chain.size(base_level) == chain.size(level)


def walk(chain: ChainAction, words, level: int, base_level: int = 0):
    """Yield ``(i, counts, fixed)`` for each ``words[i]``: its fixed counts
    at levels ``max(base_level, 1)..level`` among the points over the
    basepoint at ``base_level``, and its level-``level`` fixed set among
    them, in no order.

    ``ChainAction.walk`` as it was with a base level: pass 1 walks each word
    from the basepoint at ``base_level`` (every level-1 point at base level
    0) on its tested points, deferring it above the deepest level past
    ``DEFER_SHARE`` of that level; pass 2 images the deferred words and
    settles each word whose deep representatives are fixed by one pass over
    the image's base fiber, or else reads the image level by level, from
    below its tested points when the representatives show them fixed.  ``DEFER_SHARE`` and ``compose`` are read from the chain
    module at each call, so a test that patches them there patches this
    walk too.
    """
    if not 0 <= base_level <= level or level < 1:
        raise ValueError("fixed counts need 1 <= level and 0 <= base_level <= level")
    compose, share = chain_module.compose, chain_module.DEFER_SHARE
    start = (base_level, (0,)) if base_level else (1, chain._children_of(1, (0,)))
    size = chain.size(level)
    budget = int(size * share)
    deferred = []
    for i, word in enumerate(words):
        counts = []
        fixed, resume = chain._descend(partial(chain.apply, word), level, start, counts, budget)
        if resume is None:
            yield i, counts, fixed
        else:
            deferred.append((i, resume, counts))
    fiber = None
    for j, image in chain.images([words[i] for i, _, _ in deferred], level):
        i, (lvl, points), counts = deferred[j]
        reps = compose(chain.representatives(level, lvl), points)
        if compose(image, reps) == reps:
            if fiber is None:
                fiber = chain.fiber(base_level, level, 0) if base_level else chain.points(level)
            got = compose(image, fiber) if base_level else image
            fixed = tuple(compress(got, map(eq, got, fiber)))
            if len(fixed) * chain.size(lvl) == len(points) * size:
                counts.extend(len(points) * chain.size(l) // chain.size(lvl)
                              for l in range(lvl, level + 1))
                yield i, counts, fixed
                continue
            counts.append(len(points))
            lvl += 1
            points = chain._children_of(lvl, points)
        fixed, _ = chain._descend(partial(chain._read_image, image, level), level,
                                  (lvl, points), counts, float("inf"))
        yield i, counts, fixed


def local_farber_check(chain: ChainAction, base_level: int, max_word_len: int, depth: int,
                       tolerance: Fraction) -> FarberReport:
    """The localized Farber report as it was built before the restricted
    tower: the spelled candidates of :func:`local_candidates`, one
    :func:`walk` over the base fiber per pair key (:func:`class_keys` at
    ``base_level``), and each trajectory over levels ``max(base_level,
    1)..depth``."""
    words = local_candidates(chain, base_level, max_word_len)
    keys = class_keys(chain, base_level, words)
    firsts = {}
    for key, w in zip(keys, words):
        firsts.setdefault(key, w)
    order = list(firsts)
    walked = {order[i]: counts
              for i, counts, _ in walk(chain, list(firsts.values()), depth, base_level)}
    levels = range(max(base_level, 1), depth + 1)
    verdicts = []
    for w, key in zip(words, keys):
        traj = tuple((level, Fraction(count, chain.size(level) // chain.size(base_level)))
                     for level, count in zip(levels, walked[key]))
        last = traj[-1][1]
        verdict = INDISTINGUISHABLE if last == 1 else PASS if last < tolerance else FAIL
        verdicts.append(WordVerdict(w, verdict, traj))
    return FarberReport(kind="local-farber", base_level=base_level, depth=depth,
                        max_word_len=max_word_len, tolerance=tolerance, words=tuple(verdicts),
                        overall=FAIL if any(v.verdict == FAIL for v in verdicts) else PASS)


def root_permutation(machine: MealyMachine, word: StateWord) -> tuple[int, ...]:
    """The permutation of the first letter that ``word`` applies."""
    return tuple(machine.step(word, c)[0] for c in range(machine.alphabet_size))


def state_word(chain: ChainAction, word: Word) -> StateWord:
    """``word`` as a reduced word in the states of ``chain.mealy``."""
    names, states = chain.alphabet.names, chain.mealy.generator_map
    return reduce_pairs((states[names[gen]], sign) for gen, sign in pairs(word))


def vertex_path(chain: ChainAction, vertex: int, level: int) -> tuple[int, ...]:
    """The string of a level-``level`` vertex of a machine chain: its base-d
    digits, least significant first."""
    d = chain.mealy.alphabet_size
    return tuple(vertex // d**i % d for i in range(level))


def machine_to_dict(machine: MealyMachine) -> dict:
    """The machine file that describes ``machine``."""
    letters = range(machine.alphabet_size)
    return {
        "alphabet": machine.alphabet_size,
        "states": list(machine.states),
        "transitions": {q: {str(c): machine.transitions[q][c] for c in letters}
                        for q in machine.states},
        "outputs": {q: {str(c): machine.outputs[q][c] for c in letters} for q in machine.states},
        "generators": dict(machine.generator_map),
    }


def moved_measure_at(plan: FatCantorPlan, depth: int) -> Fraction:
    """The measure of the points that the punctures ``plan`` makes visible
    at ``depth`` move: each swaps two subtrees one level below its vertex."""
    return sum((Fraction(2, 3 ** (p.level + 1)) for p in plan.punctures_visible_at(depth)),
               Fraction(0))


def validate_chain_pointwise(chain: ChainAction, depth: int) -> ValidationReport:
    """The model check of ``validate_chain``, one Python loop per point for
    every invariant, with transitivity from a breadth-first orbit under the
    generators and their inverses.  Lists each violated invariant once with
    its first offending (level, generator, point)."""
    violations: list[Violation] = []
    kinds_seen: set[str] = set()

    def add(invariant: str, level: int, generator: str | None, point: int | None, detail: str):
        if invariant not in kinds_seen:
            kinds_seen.add(invariant)
            violations.append(Violation(invariant, level, generator, point, detail))

    chain.level(depth)  # a budget error comes before any level is built
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
        steps = [*lv.perms.values(), *(dict(zip(perm, range(n))) for perm in lv.perms.values())]
        orbit, seen = [0], {0}
        for x in orbit:  # grows while it is read
            for perm in steps:
                if perm[x] not in seen:
                    seen.add(perm[x])
                    orbit.append(perm[x])
        total = len(orbit)
        if total != n:
            add("transitivity", level, None, None,
                f"orbit of basepoint covers {total} of {n} points")
        prev = lv
        prev_size = n
    return ValidationReport(depth, tuple(violations))


def _least_rotation(seq: list) -> tuple:
    """The lexicographically least rotation of ``seq``, in linear time
    (two candidate starts, each comparison run moving one past it)."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
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
    start = min(i, j)
    return tuple(seq[start:] + seq[:start])


def class_keys(chain: ChainAction, base_level: int, words: list[Word]) -> list[tuple]:
    """Per word, a key shared only by words with the same fixed ratios,
    the one conjugacy key of the Farber checks and the LCS witness search.

    Words must be nonempty, reduced and in the basepoint stabilizer ``G_b``
    at ``base_level`` (every word is, at base level 0).  A word is
    ``u c u^-1`` with ``c`` cyclically reduced, so it fixes as many points
    over the basepoint as ``c`` fixes over the level-``b`` vertex
    ``q = u^-1(basepoint)``.  The rotation ``Z X`` of ``c = X Z`` is
    ``Z c Z^-1`` and counts over ``Z(q)``; ``c^-1`` counts over ``q``.  The
    key is the least rotation of the pairs ``(c[i], c[i:](q))``, or of the
    same pairs for ``c^-1``: words with one key are conjugate, up to
    inversion, by an element of ``G_b``.  Time and memory are linear in the
    word's length.
    """
    tables = chain.letter_perms(base_level)
    perms = {(g, s): tables[2 * g + (1 if s < 0 else 0)]
             for g in range(len(chain.alphabet)) for s in (1, -1)}
    keys = []
    for word in words:
        m, letters = cyclic_core(word.letters)[0], pairs(word)
        head, core = letters[:m], letters[m:len(letters) - m]
        x = 0
        for g, s in head:
            x = perms[g, -s][x]
        states = [0] * len(core)
        for i in range(len(core) - 1, -1, -1):
            x = states[i] = perms[core[i]][x]
        n = len(core)
        forward = list(zip(core, states))
        backward = [((g, -s), states[(n - j) % n]) for j, (g, s) in enumerate(reversed(core))]
        keys.append(min(_least_rotation(forward), _least_rotation(backward)))
    return keys


def transversal(chain: ChainAction, level: int) -> list[Word]:
    """The breadth-first coset representatives, built point by point by
    the point-wise action (generators in alphabet order, +1 before -1),
    each reduced from scratch."""
    n, k = chain.size(level), len(chain.alphabet)
    reps, queue = {0: Word.identity()}, [0]
    for x in queue:
        for gen in range(k):
            for sign in (1, -1):
                y = act(chain, Word.generator(gen, sign), level, x)
                if y not in reps:
                    reps[y] = from_pairs(((gen, sign),) + pairs(reps[x]))
                    queue.append(y)
    assert len(reps) == n, "not transitive"
    return [reps[x] for x in range(n)]


def schreier_generators(chain: ChainAction, level: int) -> list[Word]:
    """``t(g.x)^-1 * g * t(x)`` for every point ``x`` and generator ``g``,
    reduced and deduplicated in scan order, with ``t`` the :func:`transversal`."""
    reps = transversal(chain, level)
    return list(distinct(reps[act(chain, Word.generator(gen), level, x)].inverse()
                         * Word.generator(gen) * reps[x]
                         for x in range(len(reps)) for gen in range(len(chain.alphabet))))


def local_candidates(chain: ChainAction, base_level: int, max_word_len: int) -> list[Word]:
    """The reduced words over the Schreier letters up to ``max_word_len``,
    each letter replaced by its generator's letters, the whole reduced, and
    deduplicated in enumeration order."""
    gens = schreier_generators(chain, base_level)
    images = {1: [pairs(g) for g in gens], -1: [_inverse(g) for g in gens]}
    return list(distinct(from_pairs(letter for j, s in pairs(seq) for letter in images[s][j])
                         for seq in reduced_words(gens, max_word_len)))


def commutator(u: Word, v: Word) -> Word:
    """``u * v * u^-1 * v^-1``, its letters flattened and reduced from scratch."""
    return from_pairs(pairs(u) + pairs(v) + _inverse(u) + _inverse(v))


def conjugate(t: Word, x: Word) -> Word:
    """``t * x * t^-1``, its letters flattened and reduced from scratch."""
    return from_pairs(pairs(t) + pairs(x) + _inverse(t))


def lqa_scale_level(chain: ChainAction, max_word_len: int, depth: int) -> int:
    """The LQA scale over every reduced word up to ``max_word_len``, by the
    per-vertex, per-ancestor scan: one more than the deepest level whose
    fiber moves above a wholly fixed vertex of levels 1..``depth // 2``."""
    cap = depth // 2
    deepest = -1
    for w in reduced_words(chain.alphabet, max_word_len):
        perm = chain.word_permutation(w, depth)
        moved_points = [x for x, y in enumerate(perm) if x != y]
        moved = [{ancestor(chain, depth, x, level) for x in moved_points}
                 for level in range(cap + 1)]
        if not moved[0]:
            continue
        for m in range(1, cap + 1):
            for u in range(chain.size(m)):
                if u in moved[m]:
                    continue
                for k in range(m - 1, -1, -1):
                    if ancestor(chain, m, u, k) in moved[k]:
                        deepest = max(deepest, k)
                        break
    return deepest + 1


def partial_triviality_witnesses(chain: ChainAction, max_word_len: int,
                                 depth: int) -> list[TrivialityWitness]:
    """Every reduced word up to ``max_word_len`` that moves a point, with each
    of its own maximal fixed cylinders of levels 1..``depth // 2``, in word
    order; each witness applied to its cylinder's fiber, and exact where the
    chain's machine certifies its section there."""
    words = list(reduced_words(chain.alphabet, max_word_len))
    found = [[] for _ in words]
    for i, _, fixed in chain.walk(words, depth):
        cylinders = _maximal_fixed_cylinders(chain, fixed, depth, depth // 2)
        if not cylinders or not cylinders[0].level:
            continue
        for cyl in cylinders:
            fiber = chain.fiber(cyl.level, depth, cyl.vertex)
            if chain.apply(words[i], depth, fiber) != fiber:
                raise AssertionError("witness failed direct re-check")
            exact = chain.mealy is not None and _mealy_exact(chain, words[i], cyl)
            found[i].append(TrivialityWitness(word=words[i], cylinder=cyl, exact=exact))
    return [w for witnesses in found for w in witnesses]


def adding_machine(base: int = 2) -> MealyMachine:
    """The +1 odometer on base-``base`` strings (least significant letter first)."""
    states = ("add", "id")
    transitions = {
        "add": {c: ("add" if c == base - 1 else "id") for c in range(base)},
        "id": {c: "id" for c in range(base)},
    }
    outputs = {
        "add": {c: (c + 1) % base for c in range(base)},
        "id": {c: c for c in range(base)},
    }
    return MealyMachine(base, states, transitions, outputs, {"a": "add"})


def adding_machine_chain(base: int = 2, **budgets) -> ChainAction:
    return mealy_chain(adding_machine(base), name=f"adding-machine({base})", **budgets)


def affine_element(family: str, letters, dim: int = 1) -> tuple:
    """The element of a word, given as ``(gen, sign)`` pairs, over an affine
    family's generators, in the group's normal form: the product of its
    letters' elements taken left to right, as a word acts right to left.  ``odometer`` and ``toral`` give
    the translation ``(k_1, ..., k_dim)`` of (Z/p^L)^dim, ``dihedral`` gives
    ``(e, k)`` for ``x -> e x + k`` (``a = (1, 1)``, ``r = (-1, 0)``), and
    ``heisenberg`` gives ``(a, b, c)`` for ``(x, y) -> (x + a, y + b x +
    c)``, where ``(a, b, c)(a', b', c') = (a + a', b + b', c + c' + b a')``."""
    if family in ("odometer", "toral"):
        shift = [0] * dim
        for gen, sign in letters:
            shift[gen] += sign
        return tuple(shift)
    if family == "dihedral":
        e, k = 1, 0
        for gen, sign in letters:  # (e, k)(e', k') = (e e', e k' + k)
            if gen == 0:
                k += e * sign
            else:
                e = -e
        return e, k
    a = b = c = 0
    for gen, sign in letters:  # right products by (s, 0, 0), (0, s, 0), (0, 0, s)
        if gen == 0:
            a, c = a + sign, c + b * sign
        elif gen == 1:
            b += sign
        else:
            c += sign
    return a, b, c


def affine_fixed_count(family: str, element: tuple, base: int, level: int) -> int:
    """How many level-``level`` points, with ``m = base**level``, the
    :func:`affine_element` ``element`` fixes.  A translation of (Z/m)^d
    fixes all ``m^d`` points or none; ``x -> -x + k`` fixes the ``gcd(2,
    m)`` roots of ``2x = k`` if there are any; and ``(a, b, c)`` fixes ``m
    * gcd(b, m)`` points (every ``y`` over each root of ``b x = -c``) when
    ``m`` divides ``a`` and ``gcd(b, m)`` divides ``c``, else none."""
    m = base**level
    if family in ("odometer", "toral"):
        return m ** len(element) if all(k % m == 0 for k in element) else 0
    if family == "dihedral":
        e, k = element
        roots = m if e == 1 else gcd(2, m)
        return roots if k % roots == 0 else 0
    a, b, c = element
    roots = gcd(b, m)
    return m * roots if a % m == 0 and c % roots == 0 else 0
