"""The lift decision procedure: endpoint graphs in vertex charts,
interior transversality and containment, and the combined verdict.

A polynomial curve gamma(s) with endpoints on the boundary is written, at
each endpoint, in the chart of a vertex of the endpoint's face as chart
polynomials x_j(tau), the slacks of the facets through that vertex, where
tau runs from the endpoint into the domain; the face coordinates are the
slacks of the facets that are not tight at the endpoint.
One coordinate x_p off the face has x_p(0) = 0 and x_p'(0) > 0 and serves
as the parameter.  The graph g_j = x_j o x_p^{-1} of every other
coordinate then has exactly the valuation of x_j and the sign of its
leading coefficient, so the weight and valuation conditions that decide
smoothness are read off the polynomials themselves, in closed form.
Every mathematical failure is a verdict with diagnostics, never an
exception; exceptions are reserved for malformed input.

The checks read only signs, roots and valuations of the facet slacks
lambda_i - <a_i, gamma(s)> and of <gamma', K>, which a factor D > 0 keeps.
So `check_lift` clears denominators once, D the lcm of those of gamma and
the offsets, and maps the scaled curve onto (0, 1) once, s = a + (b - a)t.
Each facet slack is read off it as an integer list, q_i(t) ~ D*slack_i(s),
and that one list serves every question asked of the slack: its sign at
the midpoint and at both ends, its root search, and the chart polynomials
q_i(tau/(b - a)) at a and q_i(1 - tau/(b - a)) at b, which stay integer
lists over one positive denominator.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import suppress
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from .chart import CircleEmbedding, VertexChart, _chart
from .exactmath import (
    RatPoly,
    _check_point,
    _compose_int,
    _integer_polys,
    _isolate,
    _shift1,
    is_int,
    is_rational,
    isolate_root,
    poly_deriv,
    poly_trim,
)
from .polytope import HPolytope, PolytopeError, _tight, format_point

Curve = list[RatPoly]  # one coefficient list per ambient coordinate
Interval = tuple[Fraction, Fraction]
_ChartVertices = tuple[Optional[Sequence[Fraction]], Optional[Sequence[Fraction]]]  # given per endpoint, or None
Mapped = namedtuple("Mapped", "D G a w WN Gm S")  # the curve and its facet slacks on (0, 1), from _map


class GraphBuildReject(Exception):
    """A curve/chart configuration ruled out by the criterion itself."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class CurveGraph(NamedTuple):
    """Per-endpoint chart data: coordinates re-indexed so the parameter is 1.

    Positions are 1-based in reports (parameter = 1); `num[i]` is `den`
    times the chart polynomial of position i+1 in tau, an integer list, so
    Fraction(c, den) are its coefficients.  `k` holds the circle weights
    with k[0] = k_1, `Q` the set of positions (2..n) spanning the
    endpoint's minimal face.
    """

    chart: VertexChart
    param_chart_index: int          # chart coordinate serving as the parameter
    other_chart_indices: tuple[int, ...]
    num: tuple[list[int], ...]      # den * (x_p, then the other chart coordinates), in tau
    den: int                        # > 0, shared by every chart polynomial
    k: tuple[int, ...]              # weights, parameter first
    Q: frozenset[int]               # subset of {2..n}
    x1_max: Fraction                # tau range b - a of the curve

    @property
    def n(self) -> int:
        return self.chart.n


class Condition(NamedTuple):
    condition: str
    location: str
    outcome: str  # holds | fails
    detail: str = ""


class Report(NamedTuple):
    name: str
    conditions: tuple[Condition, ...]

    @property
    def status(self) -> str:
        return "fails" if any(c.outcome == "fails" for c in self.conditions) else "holds"


class LiftVerdict(NamedTuple):
    verdict: str  # accept | reject
    reports: tuple[Report, ...]

    def report(self, name: str) -> Optional[Report]:
        return next((r for r in self.reports if r.name == name), None)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reports": [
                {
                    "name": r.name,
                    "status": r.status,
                    "conditions": [c._asdict() for c in r.conditions],
                }
                for r in self.reports
            ],
        }


# ---------------------------------------------------------------------------
# the curve and its facet slacks mapped onto (0, 1), with the denominators cleared


def _pairing(entries: Sequence[tuple[int, int]], G: Sequence[Sequence[int]], const: int = 0) -> list[int]:
    """const + sum of x*G[j] over the entries (j, x), which are not empty."""
    (j, x), *rest = entries
    p = [x * y for y in G[j]] or [0]
    for j, x in rest:
        g = G[j]
        p += [0] * (len(g) - len(p))
        p[:len(g)] = map(add, p, [x * y for y in g])
    p[0] += const
    return poly_trim(p)


def _check_coefficients(gamma: Curve) -> None:
    """Raise ValueError unless every curve coefficient is an int or a Fraction."""
    if all(type(c) is int or type(c) is Fraction for coeffs in gamma for c in coeffs):
        return
    for j, coeffs in enumerate(gamma):
        for k, c in enumerate(coeffs):
            if not is_rational(c):
                raise ValueError(f"curve coordinate {j + 1}, coefficient of s^{k}: "
                                 f"expected an int or a Fraction, got {c!r}")


def _check_input(P: HPolytope, gamma: Curve, interval: Interval, circle: CircleEmbedding,
                 chart_vertices: _ChartVertices, caller: str) -> tuple[Interval, list[Optional[VertexChart]]]:
    """The entry gate of `build_graph` and `check_lift`: ValueError for the interval, the number of chart
    vertices, a given one's coordinates, the lengths and the curve, in this order, then PolytopeError unless
    each given chart vertex is a simple Delzant vertex of P.  Returns (a, b) and each endpoint's chart or None."""
    try:
        a, b = interval
    except (TypeError, ValueError):
        raise ValueError(f"{caller}: interval: expected two ends, got {interval!r}") from None
    for k, x in enumerate((a, b)):
        if not is_rational(x):
            raise ValueError(f"{caller}: interval end {k}: expected an int or a Fraction, got {x!r}")
    if not a < b:
        raise ValueError(f"{caller}: empty parameter interval")
    try:
        count = len(chart_vertices)
    except TypeError:
        raise ValueError(f"{caller}: chart_vertices: expected a sequence of two entries, "
                         f"got {chart_vertices!r}") from None
    if count != 2:
        raise ValueError(f"{caller}: chart_vertices: expected two entries, got {count}")
    points = list(chart_vertices)  # each given entry read once, as a tuple
    for ep, o in enumerate(points):
        if o is not None:
            try:
                points[ep] = o = tuple(o)
            except TypeError:
                raise ValueError(f"{caller}: chart_vertices[{ep}]: expected a point or None, got {o!r}") from None
            _check_point(o, f"{caller}: chart_vertices[{ep}]")
    wrong = [f"{name} has length {len(x)}" for name, x in (("the curve", gamma), ("the circle", circle.K))
             if len(x) != P.n]
    wrong += [f"chart vertex {format_point(o)} has length {len(o)}" for o in points
              if o is not None and len(o) != P.n]
    if wrong:
        raise ValueError(f"the polytope has dimension {P.n}, but {' and '.join(wrong)}")
    _check_coefficients(gamma)
    return (a, b), [None if o is None else _chart(P, o, _tight(P, o)) for o in points]


def _map(P: HPolytope, gamma: Curve, interval: Interval) -> Mapped:
    """The curve mapped onto (0, 1) once, and every facet slack read off it.

    G = D*gamma, D > 0 the lcm of the denominators of gamma and of the
    offsets, its coordinates padded with zeros to one length N + 1, and
    Gm_j(t) = W^N G_j(a + w t) (`_compose_int`).  Slack i is the pairing
    S_i = W^N D lambda_i - <a_i, Gm>, with the signs and roots of
    lambda_i - <a_i, gamma(a + w t)>.
    """
    if P._cleared is None:
        L, (lam,) = _integer_polys(P.offsets)
        P._cleared = L, [(x, [(j, -y) for j, y in enumerate(a) if y]) for x, a in zip(lam, P.normals)]
    L, facets = P._cleared
    ratios = [[c.as_integer_ratio() for c in g] for g in gamma]
    D = lcm(L, *(d for r in ratios for _, d in r))
    size = max(1, *map(len, gamma))
    G = [[x * (D // d) for x, d in r] + [0] * (size - len(r)) for r in ratios]
    a = Fraction(interval[0])
    w = interval[1] - a
    Gm, (WN, *_) = zip(*[_compose_int(g, a, w) for g in G])
    c = WN * (D // L)
    return Mapped(D, G, a, w, WN, Gm, [_pairing(neg, Gm, x * c) for x, neg in facets])


# ---------------------------------------------------------------------------
# endpoint graph construction


def build_graph(P: HPolytope, gamma: Curve, interval: Interval, endpoint: int,
                circle: CircleEmbedding, chart_vertices: _ChartVertices = (None, None)) -> CurveGraph:
    """Write the curve near one endpoint as chart polynomials.

    endpoint 0 analyzes s = a, endpoint 1 analyzes s = b; tau runs into the domain.  Raises
    GraphBuildReject for criterion-level failures (endpoint outside P or interior to it, singular
    parametrisation, tangent parallel to the face, curve exiting the chart cone), and PolytopeError or
    ValueError for the endpoint and for what `check_lift` refuses: `_check_input`, then each endpoint's
    chart vertex, given or default, which must be a simple Delzant vertex of that endpoint's face (the
    other endpoint's is built first, and only its GraphBuildReject is dropped).
    """
    if not is_int(endpoint) or endpoint not in (0, 1):
        raise ValueError(f"build_graph: endpoint must be 0 or 1, got {endpoint!r}")
    interval, charts = _check_input(P, gamma, interval, circle, chart_vertices, "build_graph")
    m = _map(P, gamma, interval)
    with suppress(GraphBuildReject):
        _graph(P, m, 1 - endpoint, circle, charts[1 - endpoint])
    return _graph(P, m, endpoint, circle, charts[endpoint])


def _graph(P: HPolytope, m: Mapped, endpoint: int, circle: CircleEmbedding,
           given: Optional[VertexChart]) -> CurveGraph:
    """build_graph on the mapped curve and facet slacks (`_map`) and the given chart (`_check_input`)."""
    at_e = [sum(q) for q in m.S] if endpoint else [q[0] if q else 0 for q in m.S]  # the sign of slack_i(e)
    if min(at_e) < 0:
        raise GraphBuildReject("endpoint_outside_polytope",
                               f"endpoint {_point(m, endpoint)} lies outside the polytope")
    tight = frozenset([i for i, v in enumerate(at_e) if not v])
    if not tight:
        raise GraphBuildReject("endpoint_interior",
                               f"endpoint {_point(m, endpoint)} is not on the boundary")
    # the given chart, or the default one, kept on P by the endpoint's tight facets and built
    # at the first vertex record that holds them, which is a vertex of the endpoint's face
    if given is not None and not tight.issubset(given.active):
        raise PolytopeError(f"chart vertex {format_point(given.vertex)} is not a vertex of the endpoint face")
    chart = given or P._endpoint_charts.get(tight)
    if chart is None:
        chart = P._endpoint_charts[tight] = _chart(P, *next(rec for rec in P._vertices if rec[1] >= tight))
    active, n = chart.active, P.n

    # chart coordinate j is the slack of active facet j along gamma(e +- tau), in u = tau/w:
    # q(u) at a and q(1 - u) at b (one Taylor shift, then u -> -u), all over one denominator;
    # it vanishes at the endpoint exactly when facet j is tight there
    facets = [m.S[f] for f in active]
    N = max(map(len, facets)) - 1
    wn, wd = m.w.numerator, (m.w.denominator if endpoint == 0 else -m.w.denominator)
    scale = [wn ** N]  # wn^N (+-1/w)^k, by running products
    for _ in range(N):
        scale.append(scale[-1] // wn * wd)
    num = [list(map(mul, _shift1(q[::-1])[::-1] if endpoint else q, scale)) for q in facets]
    slope = [q[1] if len(q) > 1 else 0 for q in num]  # signs of x_j'(0)
    # the active normals are independent, so gamma'(e) = 0 exactly when every slope is 0; a
    # curve constant at the vertex has every active slack zero (N = -1), so reject before den
    if not any(slope):
        raise GraphBuildReject("singular_parametrisation",
                               f"the curve has zero velocity at endpoint {_point(m, endpoint)}")
    den = m.D * m.WN * scale[0]
    param = next((j for j in range(n) if slope[j] and active[j] in tight), None)
    if param is None:
        raise GraphBuildReject(
            "tangent_parallel_to_face",
            f"no chart coordinate off the face moves to first order at {_point(m, endpoint)}",
        )
    if slope[param] < 0:
        raise GraphBuildReject(
            "curve_exits_chart_cone",
            f"parameter coordinate {param + 1} decreases into the domain at {_point(m, endpoint)}",
        )

    others = (*range(param), *range(param + 1, n))
    order = (param, *others)
    k = tuple([sum(map(mul, chart.columns[j], circle.K)) for j in order])  # k_j = <u_j, K>
    Q = frozenset([pos for pos, j in enumerate(others, start=2) if active[j] not in tight])
    return CurveGraph(chart, param, others, tuple([num[j] for j in order]), den, k, Q, m.w)


def _point(m: Mapped, endpoint: int) -> str:
    """The curve point gamma(a) or gamma(b) for a reject message: Gm at t = 0 or 1 over W^N D."""
    return format_point([Fraction(sum(g) if endpoint else sum(g[:1]), m.WN * m.D) for g in m.Gm])


# ---------------------------------------------------------------------------
# individual checks


def _transversality(gamma: Curve, circle: CircleEmbedding, interval: Interval) -> Report:
    """<gamma'(s), K> must not vanish on the open parameter interval: one `isolate_root` call
    decides it and brackets the leftmost zero.  `check_lift` checks the input and passes D*gamma,
    whose factor D > 0 changes no root."""
    p = poly_deriv(_pairing([(j, x) for j, x in enumerate(circle.K) if x], gamma))
    root = isolate_root(p, *interval) if p else None
    if not p:
        outcome, detail = "fails", "pairing identically zero (degenerate: orthogonal everywhere)"
    elif root is None:
        outcome, detail = "holds", "no interior zero of <gamma', K>"
    else:
        outcome, detail = "fails", f"pairing vanishes in ({root[0]}, {root[1]})"
    return Report("transversality", (Condition("tangent_circle_pairing", "interior", outcome, detail),))


def _interior(a: Fraction, w: Fraction, S: list[list[int]]) -> Report:
    """The open curve must stay strictly inside the polytope: a check on the mapped slacks (`_map`).

    A slack negative at the midpoint, where q(1/2) has the sign of
    sum q_k 2^(d-k), fails; otherwise one `_isolate` call per slack
    decides whether it vanishes inside and brackets the leftmost contact.
    A facet slack that is identically zero means the curve runs inside
    that facet; by the z_i = 0 convention this is allowed and noted.
    """
    conditions = []
    for i, q in enumerate(S):
        loc = f"facet {i + 1}"
        if not q:
            conditions.append(Condition("facet_slack", loc, "holds", "curve lies inside the facet"))
            continue
        if min(q) < 0 and sum(x << k for k, x in enumerate(reversed(q))) < 0:
            conditions.append(Condition("facet_slack", loc, "fails", "curve leaves the polytope"))
            continue
        root = _isolate(q, a, w)
        if root is None:
            conditions.append(Condition("facet_slack", loc, "holds", "positive on the interior"))
        else:
            lo, hi = root
            conditions.append(Condition(
                "facet_slack", loc, "fails",
                f"interior boundary contact at s in ({lo}, {hi})"))
    return Report("interior", tuple(conditions))


def valuation(p: RatPoly) -> Optional[int]:
    """Lowest degree with a nonzero coefficient; None for the zero polynomial."""
    return next((i for i, c in enumerate(p) if c != 0), None)


def _divided_smoothness(x: RatPoly, v: Optional[int], m: int) -> Optional[str]:
    """Why sqrt(2 x(tau)) / r_1^|m| fails to be smooth and even at the tip, given v = valuation(x).

    None when it holds.  Near the tip the surface is z_j = f z_p^m for
    m >= 0 and z_j = f conj(z_p)^|m| for m < 0, with f = r_j / r_1^|m| a
    function of |z_p|^2 = r_1^2; every monomial z_p^a conj(z_p)^b of a
    smooth equivariant z_j has a - b = m, so r_j is at least of order
    r_1^|m|.  With x = c_v tau^v + ... and r_1^2/2 = x_p(tau) = c_1 tau + ...,
    c_1 > 0, the quotient is |r_1|^(v - |m|) times a smooth positive
    function of r_1^2 when c_v > 0: it holds iff x is identically zero, or
    c_v > 0, v >= |m| and v - m is even.
    """
    if v is None:
        return None
    if x[v] < 0:
        return "negative_leading"
    if v < abs(m):
        return "negative_power"
    if (v - m) % 2:
        return "parity"
    return None


def check_endpoint(graph: CurveGraph, name: str = "endpoint") -> Report:
    """Weight and valuation conditions of the endpoint criterion.

    A face coordinate needs only a vanishing weight: it is positive at the
    endpoint, so its radius sqrt(2 x_j) is smooth there.
    """
    conditions = []
    k1 = graph.k[0]
    conditions.append(Condition(
        "k1_nonzero", "x1", "holds" if k1 != 0 else "fails", f"k1 = {k1}"))
    for pos in range(2, graph.n + 1):
        ki = graph.k[pos - 1]
        loc = f"coordinate {pos}"
        if pos in graph.Q:
            conditions.append(Condition(
                "face_weight_vanishes", loc, "holds" if ki == 0 else "fails", f"k = {ki}"))
            continue
        if k1 == 0:
            conditions.append(Condition(
                "weight_ratio_integer", loc, "fails", "k1 = 0: ratio undefined"))
            continue
        if ki % k1 != 0:
            conditions.append(Condition(
                "weight_ratio_integer", loc, "fails", f"{ki}/{k1} not an integer"))
            continue
        m = ki // k1
        conditions.append(Condition("weight_ratio_integer", loc, "holds", f"m = {m}"))
        xi = graph.num[pos - 1]  # den > 0 keeps every valuation and sign
        v = valuation(xi)
        reason = _divided_smoothness(xi, v, m)
        detail = f"m = {m}" if v is None else f"m = {m}, valuation {v}"
        if reason:
            detail += f", {reason}"
        conditions.append(Condition("divided_smoothness", loc,
                                    "fails" if reason else "holds", detail))
    return Report(name, tuple(conditions))


# ---------------------------------------------------------------------------
# combined verdict


def check_lift(P: HPolytope, gamma: Curve, interval: Interval, circle: CircleEmbedding,
               chart_vertices: _ChartVertices = (None, None)) -> LiftVerdict:
    """Full criterion: containment, transversality, both endpoint analyses.

    The input, given chart vertices included, is checked first (`_check_input`).
    The curve is then mapped onto (0, 1) once (`_map`), and its facet slacks
    serve the interior check and both endpoint graphs alike.
    """
    interval, charts = _check_input(P, gamma, interval, circle, chart_vertices, "check_lift")
    m = _map(P, gamma, interval)  # m.G = D*gamma is transversal exactly where gamma is
    reports = [_interior(m.a, m.w, m.S), _transversality(m.G, circle, interval)]
    for ep in (0, 1):
        name = f"endpoint {ep + 1}"
        try:
            graph = _graph(P, m, ep, circle, charts[ep])
        except GraphBuildReject as exc:
            reports.append(Report(name, (Condition(exc.reason, name, "fails", exc.detail),)))
            continue
        reports.append(check_endpoint(graph, name))
    verdict = "reject" if any(r.status == "fails" for r in reports) else "accept"
    return LiftVerdict(verdict, tuple(reports))
