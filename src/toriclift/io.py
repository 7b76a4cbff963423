"""JSON file formats: polytopes, curves and facet-vector files.

Rationals serialize as strings "p/q" (or "p" when q = 1); decimal literals
are rejected so nothing silently loses exactness.  A reader checks the JSON
shape, the literals, a list wherever it builds a tuple and the domain order;
`HPolytope` and `CircleEmbedding` check n and the entries of a normal and K.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .exactmath import is_int
from .polytope import HPolytope

if TYPE_CHECKING:
    from .chart import CircleEmbedding

RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class FormatError(ValueError):
    """Schema violation or non-rational literal in an input file."""


def _read_json(path):
    """The JSON document in a file; one that does not decode is a FormatError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: not a JSON file: {exc}") from None


def parse_rational(s, field: str = "value") -> Fraction:
    if is_int(s):
        return Fraction(s)
    if not isinstance(s, str) or not RATIONAL_RE.match(s.strip()):
        raise FormatError(
            f"{field}: expected a rational literal like '3' or '1/2', got {s!r}")
    return Fraction(s.strip())


def parse_point(obj, field: str) -> tuple[Fraction, ...]:
    if not isinstance(obj, (list, tuple)):
        raise FormatError(f"{field}: expected a list of rationals")
    return tuple(parse_rational(v, f"{field}[{i}]") for i, v in enumerate(obj))


# ---------------------------------------------------------------------------
# polytopes


def polytope_from_dict(d: dict) -> HPolytope:
    try:
        n, facets = d["n"], d["facets"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"polytope: missing or malformed field ({exc})") from exc
    if not isinstance(facets, list):
        raise FormatError("facets: expected a list of facet objects")
    normals, offsets = [], []
    for i, f in enumerate(facets):
        if not isinstance(f, dict) or "normal" not in f or "offset" not in f:
            raise FormatError(f"facets[{i}]: need 'normal' and 'offset'")
        if not isinstance(f["normal"], list):
            raise FormatError(f"facets[{i}].normal: expected a list of integers")
        normals.append(tuple(f["normal"]))
        offsets.append(parse_rational(f["offset"], f"facets[{i}].offset"))
    return HPolytope(n, tuple(normals), tuple(offsets))


def load_polytope(path) -> HPolytope:
    return polytope_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# curves


class CurveSpec(NamedTuple):
    """Parsed curve file: polynomial coordinates, domain, circle, charts."""

    gamma: list[list[Fraction]]
    interval: tuple[Fraction, Fraction]
    circle: CircleEmbedding
    chart_vertices: tuple[Optional[tuple[Fraction, ...]], Optional[tuple[Fraction, ...]]]


def curve_from_dict(d: dict) -> CurveSpec:
    from .chart import CircleEmbedding  # only curve files need the chart module

    if not isinstance(d, dict):
        raise FormatError("curve: expected an object")
    try:
        coords = d["coords"]
        domain = d["domain"]
        circle = d["circle"]
    except KeyError as exc:
        raise FormatError(f"curve: missing field {exc}") from exc
    if not isinstance(coords, list) or not coords:
        raise FormatError("coords: expected a nonempty list of coefficient lists")
    gamma = [list(parse_point(coeffs, f"coords[{i}]")) for i, coeffs in enumerate(coords)]
    if not isinstance(domain, list) or len(domain) != 2:
        raise FormatError("domain: expected [start, end]")
    a = parse_rational(domain[0], "domain[0]")
    b = parse_rational(domain[1], "domain[1]")
    if not a < b:
        raise FormatError("domain: start must be < end")
    if not isinstance(circle, list):
        raise FormatError("circle: expected a list of integers")
    circle = CircleEmbedding(tuple(circle))
    charts: list[Optional[tuple[Fraction, ...]]] = [None, None]
    eps = d.get("endpoints")
    if eps is not None:
        if not isinstance(eps, list) or len(eps) > 2:
            raise FormatError("endpoints: expected up to two endpoint objects")
        for i, ep in enumerate(eps):
            if ep is not None and not isinstance(ep, dict):
                raise FormatError(f"endpoints[{i}]: expected an endpoint object or null")
            if ep and ep.get("chart_vertex") is not None:
                charts[i] = parse_point(ep["chart_vertex"], f"endpoints[{i}].chart_vertex")
    return CurveSpec(gamma, (a, b), circle, (charts[0], charts[1]))


def load_curve(path) -> CurveSpec:
    return curve_from_dict(_read_json(path))


def load_facet_vectors(path) -> list[tuple[int, ...]]:
    d = _read_json(path)
    vecs = d.get("vectors") if isinstance(d, dict) else None
    if not isinstance(vecs, list):
        raise FormatError("facet vectors: expected {'vectors': [[...], ...]}")
    out = []
    for i, v in enumerate(vecs):
        if not isinstance(v, list) or not all(is_int(x) for x in v):
            raise FormatError(f"vectors[{i}]: expected a list of integers")
        out.append(tuple(v))
    return out


def dumps_deterministic(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
