"""Canonical chain families and chain file I/O.

Families:
  odometer(p)      +1 on Z/p^L at each level; free at every level.
  toral(d, p)      d independent +1 coordinates on (Z/p^L)^d.
  dihedral()       +1 and negation on Z/2^L.
  heisenberg(p)    (x,y) -> (x+1,y), (x,y+x), (x,y+1) on (Z/p^L)^2.
  fragmented()     +1 together with "shift odd points by 2" on Z/2^L.
  fat_cantor(s)    ternary tree with a sparsely punctured fixed set; see
                   :mod:`cantoract.punctured`.
  mealy(machine)   transduction action of an invertible letter transducer.

Chain files hold static levels: :func:`load_chain` reads one and
:func:`save_chain` writes one.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .chain import ChainAction, LevelAction, compose, validate_chain
from .errors import InvalidChainError, SchemaError, expect, json_type, read_json
from .words import GeneratorAlphabet

if TYPE_CHECKING:
    from .mealy import MealyMachine


def _check_base(p: int):
    if p < 2:
        raise SchemaError(f"base must be >= 2, got {p}")


def _strings(base: int, names: tuple, name: str, perms, **budgets) -> ChainAction:
    """A chain whose level ``L`` is the length-``L`` strings over ``base``
    letters, least significant first, so the parent of ``x`` is
    ``x % base**(L-1)``.  ``perms(level, points)`` returns the arrays of
    ``names`` in order, sliced from ``points = tuple(range(base**level))``
    so that every array shares its int objects."""
    def provider(level: int) -> LevelAction:
        points = tuple(range(base**level))
        n = len(points)
        return LevelAction(level, n, points[: n // base] * base,
                           dict(zip(names, perms(level, points))))

    return ChainAction(GeneratorAlphabet(names), provider, name=name,
                       level_size=lambda level: base**level, **budgets)


def _torus(dim: int, base: int, level: int) -> tuple:
    """``(n, parent, shifts)`` of level ``level`` of the torus (Z/p^L)^dim:
    point ``x`` has coordinates ``x // m**i % m`` with ``m = p**L``, and
    ``shifts[i]`` adds 1 to coordinate ``i``."""
    m = base**level
    lower = m // base
    n = m**dim
    points = tuple(range(n))
    shifts = []
    for i in range(dim):
        stride = m**i
        # each run of m*stride points turns by stride
        perm = []
        for start in range(0, n, m * stride):
            perm += points[start + stride:start + m * stride] + points[start:start + stride]
        shifts.append(tuple(perm))
    # one coordinate at a time, each the most significant so far: a point
    # whose coordinate i is c has the parent of its lower coordinates plus
    # lower**i * (c % lower), gathered from a slice of the points
    parent = (0,)
    for i in range(dim):
        span = lower**i
        shifted = []
        for r in range(lower):
            shifted += compose(points[r * span:(r + 1) * span], parent)
        parent = tuple(shifted) * base
    return n, parent, shifts


def odometer(base: int = 2, **budgets) -> ChainAction:
    _check_base(base)
    return _strings(base, ("a",), f"odometer({base})",
                    lambda level, points: (points[1:] + points[:1],), **budgets)


def toral(dim: int = 2, base: int = 2, **budgets) -> ChainAction:
    _check_base(base)
    if dim < 1:
        raise SchemaError(f"dimension must be >= 1, got {dim}")
    names = tuple(f"t{i}" for i in range(dim))

    def provider(level: int) -> LevelAction:
        n, parent, shifts = _torus(dim, base, level)
        return LevelAction(level, n, parent, dict(zip(names, shifts)))

    return ChainAction(GeneratorAlphabet(names), provider, name=f"toral({dim},{base})",
                       level_size=lambda level: (base**level) ** dim, **budgets)


def dihedral(**budgets) -> ChainAction:
    return _strings(2, ("a", "r"), "dihedral",
                    lambda level, points: (points[1:] + points[:1], points[:1] + points[:0:-1]),
                    **budgets)


def heisenberg(base: int = 2, **budgets) -> ChainAction:
    """Coordinate action of the discrete Heisenberg generators on (Z/p^L)^2.

    A shifts x, C shifts y, and B shears y by x, so B's fixed points at
    level L are exactly the points with x = 0 mod p^L.  The point-0
    stabilizers here are non-normal, which is what makes the family
    interesting; a congruence-kernel tower would be normal and force a free
    action.
    """
    _check_base(base)

    def provider(level: int) -> LevelAction:
        n, parent, (a, c) = _torus(2, base, level)
        m = base**level
        # B turns column x (the points x + m*y) by x; C has already turned
        # it by one, so B turns C's column x - 1 more
        b = [0] * n
        for x in range(m):
            column = c[x::m]
            b[x::m] = column[x - 1:] + column[:x - 1]
        return LevelAction(level, n, parent, {"A": a, "B": b, "C": c})

    return ChainAction(GeneratorAlphabet(("A", "B", "C")), provider, name=f"heisenberg({base})",
                       level_size=lambda level: (base**level) ** 2, **budgets)


def fragmented(**budgets) -> ChainAction:
    """Binary odometer plus a generator fixing all evens and shifting odds by 2.

    The extra generator acts trivially on the even half of every level, so
    its fixed set is a clopen half of the space: the action is not
    topologically free, yet the restriction to either level-1 cylinder is a
    conjugated odometer.
    """
    def perms(level: int, points: tuple) -> tuple:
        frag = list(points)
        frag[1::2] = points[3::2] + points[1:2]
        return points[1:] + points[:1], frag

    return _strings(2, ("h", "g"), "fragmented", perms, **budgets)


def mealy_chain(machine: MealyMachine, name: str = "mealy", **budgets) -> ChainAction:
    """Levels are length-L strings (least significant letter first).

    The basepoint is the all-zeros string, index 0, so the output is already
    basepoint normalized.

    Levels are built from the level below by self-similarity.  A generator
    is a single state, and a state ``q`` acts below its first letter ``c``
    as its section ``r = machine.transitions[q][c]`` does: vertex ``c + d*y``
    (letter ``c``, then the string ``y``) maps to
    ``machine.outputs[q][c] + d*perm_r[y]``, where ``perm_r`` is the image
    array of ``r`` one level down.  Each (state, letter) pair a generator
    reaches is read once, and a level costs one pass over its vertices per
    reached state instead of transducing every string.
    """
    gen_names = tuple(machine.generator_map)
    if not gen_names:
        raise SchemaError("machine defines no generators")
    d = machine.alphabet_size
    # moves[q][c] = (image letter, section state) for every state reached
    # from a generator
    moves: dict[str, list[tuple[int, str]]] = {}
    todo = list(machine.generator_map.values())
    while todo:
        q = todo.pop()
        if q not in moves:
            moves[q] = [(machine.outputs[q][c], machine.transitions[q][c]) for c in range(d)]
            todo.extend(r for _, r in moves[q])

    # each reached state's image array at the last level built; levels come
    # in increasing order, and a repeated call for the last level returns
    # its arrays again.  Level 0 is the root.
    built = 0
    images = dict.fromkeys(moves, (0,))

    def perms(level: int, points: tuple) -> list:
        nonlocal built, images
        if built < level:
            below = {}
            for q, row in moves.items():
                perm = [0] * len(points)
                for c, (img, r) in enumerate(row):
                    perm[c::d] = compose(points[img::d], images[r])
                below[q] = tuple(perm)
            built, images = level, below
        return [images[q] for q in machine.generator_map.values()]

    return _strings(d, gen_names, name, perms, mealy=machine, **budgets)


_INT = frozenset({int})


def _int_array(values, where: str) -> tuple:
    """``values`` as a tuple, refused with a one-line ``SchemaError``
    unless it is an array of JSON integers (so no bool, float or str)."""
    if not isinstance(values, (list, tuple)):
        raise SchemaError(f"{where} must be an array, got {json_type(values)}")
    if not _INT.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) is not int)
        raise SchemaError(f"{where} entries must be integers, got {json_type(bad)}")
    return tuple(values)


def _level_fields(level: int, entry) -> tuple:
    """The size, parent and perms of a chain-file level entry, type-checked
    so that a wrong JSON type is a one-line ``SchemaError``."""
    if not isinstance(entry, dict):
        raise SchemaError(f"level {level}: expected an object, got {json_type(entry)}")
    try:
        size, parent, perms = entry["size"], entry["parent"], entry["perms"]
    except KeyError as exc:
        raise SchemaError(f"malformed level {level}: missing {exc}") from exc
    expect(size, int, f"level {level}: size")
    if parent is not None:
        if not isinstance(parent, (list, tuple)):
            raise SchemaError(f"level {level}: parent must be null or an array, "
                              f"got {json_type(parent)}")
        parent = _int_array(parent, f"level {level}: parent")
    perms = {str(g): _int_array(perm, f"level {level}: perms[{g!r}]")
             for g, perm in expect(perms, dict, f"level {level}: perms").items()}
    return size, parent, perms


def chain_from_dict(data: dict, *, validate: bool = True, **budgets) -> ChainAction:
    expect(data, dict, "chain file")
    try:
        name, generators, raw_levels = data["name"], data["generators"], data["levels"]
    except KeyError as exc:
        raise SchemaError(f"malformed chain file: {exc}") from exc
    if not expect(name, str, "chain file: name").isprintable():
        raise SchemaError("chain file: name must be printable, no control or surrogate characters")
    generators = tuple(expect(g, str, f"chain file: generators[{i}]")
                       for i, g in enumerate(expect(generators, list, "chain file: generators")))
    expect(raw_levels, list, "chain file: levels")
    if not raw_levels:
        raise SchemaError("chain file provides no levels")
    alphabet = GeneratorAlphabet(generators)
    levels: list[LevelAction] = []
    for i, entry in enumerate(raw_levels):
        size, parent, perms = _level_fields(i + 1, entry)
        if size < 1:
            raise SchemaError(f"level {i + 1}: size must be at least 1, got {size}")
        if set(perms) != set(generators):
            raise SchemaError(
                f"level {i + 1}: permutations given for {sorted(perms)}, expected {sorted(generators)}"
            )
        # every level has a permutation (the alphabet is never empty), so
        # this bounds the size by the file's own data before (0,) * size
        for g in generators:
            if len(perms[g]) != size:
                raise SchemaError(
                    f"level {i + 1}: size {size} disagrees with the {len(perms[g])} entries "
                    f"of permutation {g!r}"
                )
        if parent is None:
            if i != 0:
                raise SchemaError(f"level {i + 1}: only the first level may omit the parent array")
            parent = (0,) * size
        # the parser made an int per entry: share one per point between the
        # level's arrays, but leave an out-of-range one for validation to name
        points = tuple(range(size))
        parent, *arrays = [compose(points, a) if a and min(a) >= 0 and max(a) < size else a
                           for a in (parent, *perms.values())]
        perms = dict(zip(perms, arrays))
        levels.append(LevelAction(i + 1, size, parent, perms))

    def provider(level: int) -> LevelAction:
        return levels[level - 1]

    budgets.setdefault("depth_limit", len(levels))
    budgets["depth_limit"] = min(budgets["depth_limit"], len(levels))
    chain = ChainAction(alphabet, provider, name=name,
                        level_size=lambda level: levels[level - 1].size, **budgets)
    if validate:
        report = validate_chain(chain, len(levels))
        if not report.ok:
            v = report.violations[0]
            raise InvalidChainError(
                f"chain {name!r} failed validation: {v.invariant} at "
                f"(level={v.level}, generator={v.generator}, point={v.point}): {v.detail}",
                report=report,
            )
    return chain


def load_chain(path, *, validate: bool = True, **budgets) -> ChainAction:
    with open(path, "r", encoding="utf-8") as fh:
        data = read_json(fh.read(), f"chain file {path} is not valid JSON")
    return chain_from_dict(data, validate=validate, **budgets)


def chain_to_dict(chain: ChainAction, depth: int) -> dict:
    levels = []
    for level in range(1, depth + 1):
        lv = chain.level(level)
        levels.append(
            {
                "size": lv.size,
                "parent": None if level == 1 else list(lv.parent),
                "perms": {name: list(perm) for name, perm in sorted(lv.perms.items())},
            }
        )
    return {"name": chain.name, "generators": list(chain.alphabet.names), "levels": levels}


def save_chain(chain: ChainAction, depth: int, path) -> None:
    payload = chain_to_dict(chain, depth)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
