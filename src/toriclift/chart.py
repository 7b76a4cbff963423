"""Vertex-centered local models: facet-slack coordinates and circle weights.

At a Delzant vertex o with active facets f_1 < ... < f_n, the local model
is C^n and its moment coordinates are the slacks x_j = lambda_j - <a_j, p>
of those facets.  The primitive edge directions u_1..u_n (u_j relaxes f_j)
form a Z-basis U with <u_j, a_{f_k}> = -delta_jk, so U^{-1} has the rows
-a_{f_j} and p = o + U x: the vertex sits at 0 and the polytope locally
fills the nonnegative orthant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exactmath import IntVec, int_det, is_int, primitive
from .polytope import HPolytope, Point, PolytopeError, format_point


class CircleEmbedding:
    """Circle direction in the torus Lie-algebra lattice, stored primitive as K."""

    def __init__(self, K: Sequence[int]):
        k = tuple(K)
        bad = [x for x in k if not is_int(x)]  # a list, so that a None entry is named too
        if bad:
            raise ValueError(f"circle direction {k}: expected integers, got {bad[0]!r}")
        if not any(k):
            raise ValueError("circle direction must be nonzero (effective action)")
        self.K: IntVec = primitive(k)

    def __repr__(self):
        return f"CircleEmbedding({self.K})"


class VertexChart(NamedTuple):
    polytope: HPolytope
    vertex: Point
    columns: tuple[IntVec, ...]       # edge directions u_1..u_n (isotropy weights)
    active: tuple[int, ...]           # facets f_1 < ... < f_n through the vertex

    @property
    def n(self) -> int:
        return self.polytope.n

    @property
    def inverse(self) -> tuple[IntVec, ...]:
        """U^{-1}: its rows are the negated active normals."""
        return tuple(tuple(-x for x in self.polytope.normals[f]) for f in self.active)


def _chart(P: HPolytope, o: Point, active: Optional[frozenset[int]]) -> VertexChart:
    """Chart at the vertex o, found in P's records by `active`, the facets tight at o (None outside P): the
    active normals at a vertex have rank n, so no other point has its key.  Rejects any other point, a vertex
    that is not simple, and one that is not Delzant: U is unimodular exactly when the walk's D = det A_S is +-1."""
    key = active and tuple(sorted(active))
    o = tuple(map(Fraction, o))
    if key not in P._edges:
        raise PolytopeError(f"chart vertex {format_point(o)} is not a vertex of P")
    if len(key) != P.n:
        raise PolytopeError(f"vertex {format_point(o)} is not simple: {len(key)} active facets")
    cols, D = P._edges[key]
    if abs(D) != 1:
        raise PolytopeError(f"vertex {format_point(o)} is not Delzant: |det U| = {abs(int_det(cols))}")
    return VertexChart(P, o, cols, key)


def from_chart(chart: VertexChart, x: Sequence[Fraction]) -> Point:
    """Ambient point o + U x for chart coordinates x, the active facet slacks at that point."""
    n = chart.n
    return tuple(
        chart.vertex[i] + sum(Fraction(x[j]) * chart.columns[j][i] for j in range(n))
        for i in range(n)
    )

