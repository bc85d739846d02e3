"""The four affine families, ``odometer(p)``, ``toral(d, p)``,
``dihedral()`` and ``heisenberg(p)``: +1 shifts, negation and a shear on
(Z/p^L)^d.  ``import cantoract`` leaves this module out; it loads on the
first read of one of them from the package (``cantoract._LAZY``), so only a
process that builds an affine chain, such as ``cantoract build toral``,
compiles it."""

from .builders import _strings
from .chain import ChainAction, LevelAction, compose
from .errors import SchemaError
from .words import GeneratorAlphabet


def _check_base(p: int):
    if p < 2:
        raise SchemaError(f"base must be >= 2, got {p}")


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
