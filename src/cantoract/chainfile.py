"""Chain-file parsing and the per-point offender scan, which run only on
an untrusted or an invalid tower.  ``load_chain`` imports this module when
called, and the kernel only on a level that failed a C-level check, so
``validate`` and the report commands compile it, while ``build`` and the
in-process runs on built, valid chains never do."""

from collections import Counter

from .chain import ChainAction, LevelAction, compose, validate_chain
from .errors import InvalidChainError, SchemaError, expect, json_type
from .words import GeneratorAlphabet

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
