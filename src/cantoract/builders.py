"""The families the in-process runs build, ``fragmented()`` and
``mealy_chain(machine)``, on the string layout :func:`_strings` that the
affine (:mod:`cantoract.affine`) and fat-Cantor (:mod:`cantoract.punctured`)
families share too, and chain files: :func:`load_chain` reads one through
:mod:`cantoract.chainfile` and :func:`save_chain` writes one."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

# the bench tracer wraps ``validate_chain`` (now called from ``chainfile``) by this name:
# it stays until ROADMAP item 1, stage B, moves its spans
from .chain import ChainAction, LevelAction, compose, validate_chain
from .errors import SchemaError, read_json
from .words import GeneratorAlphabet

if TYPE_CHECKING:
    from .mealy import MealyMachine


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


def load_chain(path, *, validate: bool = True, **budgets) -> ChainAction:
    from .chainfile import chain_from_dict

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
    # json.dumps runs the C encoder; json.dump always runs the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
