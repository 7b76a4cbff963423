"""Small catalog of standard polytopes used throughout the tests and demos."""

from __future__ import annotations

from fractions import Fraction

from .polytope import HPolytope


def projective_simplex(n: int, scale=1) -> HPolytope:
    """Moment simplex of CP^n scaled by `scale` (int or Fraction): -e_i and the all-ones normal."""
    normals = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    normals.append(tuple(1 for _ in range(n)))
    offsets = [0] * n + [scale]
    return HPolytope(n, tuple(normals), tuple(offsets))


def cp2(scale=3) -> HPolytope:
    return projective_simplex(2, scale)


def cp3(scale=1) -> HPolytope:
    return projective_simplex(3, scale)


def unit_square() -> HPolytope:
    return box([1, 1])


def box(lengths) -> HPolytope:
    """Product of intervals [0, L_i], each L_i an int or a Fraction."""
    n = len(lengths)
    normals = []
    offsets = []
    for i in range(n):
        normals.append(tuple(-1 if j == i else 0 for j in range(n)))
        offsets.append(0)
        normals.append(tuple(1 if j == i else 0 for j in range(n)))
        offsets.append(lengths[i])
    return HPolytope(n, tuple(normals), tuple(offsets))


def hirzebruch() -> HPolytope:
    """Hirzebruch trapezoid: normals (-1,0),(0,-1),(0,1),(1,1), offsets 0,0,1,2."""
    return HPolytope(
        2,
        ((-1, 0), (0, -1), (0, 1), (1, 1)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(2)),
    )


def non_delzant_triangle() -> HPolytope:
    """conv{(0,0),(1,0),(0,2)}: simple and rational but not smooth at (1,0)."""
    return HPolytope(
        2,
        ((-1, 0), (0, -1), (2, 1)),
        (Fraction(0), Fraction(0), Fraction(2)),
    )
