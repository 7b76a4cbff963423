"""Vertex-centered local models: edge-basis coordinates and circle weights.

A chart at a Delzant vertex o uses the primitive edge directions as a
Z-basis; chart coordinates of a point p are U^{-1}(p - o), so the vertex
sits at 0 and the polytope locally fills the nonnegative orthant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import IntVec, dot, hnf, identity_matrix, int_det, primitive
from .polytope import (
    Face,
    HPolytope,
    Point,
    PolytopeError,
    edge_vectors_at_vertex,
)


@dataclass(frozen=True)
class CircleEmbedding:
    """Circle direction in the torus Lie-algebra lattice, stored primitive."""

    K: IntVec

    def __post_init__(self):
        k = tuple(int(x) for x in self.K)
        if not any(k):
            raise ValueError("circle direction must be nonzero (effective action)")
        object.__setattr__(self, "K", primitive(k))


@dataclass(frozen=True)
class VertexChart:
    polytope: HPolytope
    vertex: Point
    columns: tuple[IntVec, ...]       # edge directions u_1..u_n (isotropy weights)
    inverse: tuple[IntVec, ...]       # U^{-1}, integer rows
    active: tuple[int, ...]           # facet indices kept in Lambda_o

    @property
    def n(self) -> int:
        return self.polytope.n


def make_chart(P: HPolytope, o: Sequence[Fraction]) -> VertexChart:
    """Chart at a Delzant-valid vertex; rejects |det U| != 1.

    The Hermite form U V = H of the edge basis is the identity exactly when
    U is unimodular, and then V = U^{-1} is the chart's integer inverse.
    Charts are kept on P, one per vertex; a rejected vertex is not kept.
    """
    o = tuple(Fraction(x) for x in o)
    chart = P._charts.get(o)
    if chart is None:
        cols = edge_vectors_at_vertex(P, o)
        n = P.n
        U = [[cols[j][i] for j in range(n)] for i in range(n)]
        H, inv = hnf(U)
        if H != identity_matrix(n):
            raise PolytopeError(f"vertex {o} is not Delzant: |det U| = {abs(int_det(U))}")
        active = tuple(sorted(P.tight_facets(o)))
        chart = P._charts[o] = VertexChart(P, o, tuple(cols), tuple(tuple(r) for r in inv), active)
    return chart


def to_chart(chart: VertexChart, p: Sequence[Fraction]) -> Point:
    """Chart coordinates x = U^{-1}(p - o)."""
    diff = [Fraction(a) - b for a, b in zip(p, chart.vertex)]
    return tuple(sum(row[j] * diff[j] for j in range(chart.n)) for row in chart.inverse)


def from_chart(chart: VertexChart, x: Sequence[Fraction]) -> Point:
    """Ambient point o + U x; exact inverse of to_chart."""
    n = chart.n
    return tuple(
        chart.vertex[i] + sum(Fraction(x[j]) * chart.columns[j][i] for j in range(n))
        for i in range(n)
    )


def local_weights(chart: VertexChart, rho: CircleEmbedding) -> IntVec:
    """Circle weights k_j = <u_j, K> in the chart's edge basis."""
    return tuple(dot(u, rho.K) for u in chart.columns)


def q_set(chart: VertexChart, F: Face) -> frozenset[int]:
    """Indices of edge directions spanning the boundary face F.

    Zero-based chart coordinate indices; empty when F is the chart vertex.
    Requires F to be a proper face with the chart vertex among its vertices.
    """
    if not F.active:
        raise PolytopeError("q_set: the face is the whole polytope, not on the boundary")
    if chart.vertex not in F.vertices:
        raise PolytopeError(
            "q_set: chart vertex is not a vertex of the endpoint's minimal face; re-chart"
        )
    out = frozenset(
        j
        for j, u in enumerate(chart.columns)
        if all(dot(u, chart.polytope.normals[i]) == 0 for i in F.active)
    )
    assert len(out) == F.dim
    return out
