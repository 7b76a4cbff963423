"""Delzant polytope validation and the equivariant curve-lift criterion.

Exact decision machinery lives in `exactmath`, `polytope`, `chart`,
and `criterion`, which decides each endpoint in closed form from the
chart polynomials; the floating-point surface oracle in `surface`;
file formats in `io`; standard polytopes in `catalog`.
"""

from .chart import CircleEmbedding, VertexChart, make_chart, from_chart
from .criterion import CurveGraph, LiftVerdict, build_graph, check_lift
from .polytope import Face, HPolytope, validate_delzant

__all__ = [
    "CircleEmbedding",
    "CurveGraph",
    "Face",
    "HPolytope",
    "LiftVerdict",
    "VertexChart",
    "build_graph",
    "check_lift",
    "from_chart",
    "make_chart",
    "validate_delzant",
]

__version__ = "0.1.0"
