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
the offsets, and every check runs on integer lists: D*slack_i, D*gamma.
Each scaled slack is then mapped onto (0, 1) once, q_i(t) ~ D*slack_i(a +
(b - a)t), and that one list serves every question asked of the slack:
its sign at the midpoint and at both ends, its root search, and the chart
polynomials q_i(tau/(b - a)) at a and q_i(1 - tau/(b - a)) at b, which stay
integer lists over one positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .chart import CircleEmbedding, VertexChart, _chart, local_weights
from .exactmath import (
    RatPoly,
    _check_point,
    _compose_int,
    _eval_int,
    _integer_polys,
    _isolate,
    _shift1,
    is_rational,
    isolate_root,
    poly_deriv,
    poly_trim,
)
from .polytope import HPolytope, PolytopeError, format_point

Curve = list[RatPoly]  # one coefficient list per ambient coordinate
Interval = tuple[Fraction, Fraction]
Mapped = list[tuple[list[int], int]]  # (q, W^deg q) per facet slack, from _compose_int


class GraphBuildReject(Exception):
    """A curve/chart configuration ruled out by the criterion itself."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class CurveGraph(NamedTuple):
    """Per-endpoint chart data: coordinates re-indexed so the parameter is 1.

    Positions are 1-based in reports (parameter = 1); `num[i]` is `den`
    times the chart polynomial of position i+1 in tau, an integer list,
    and `x[i]` that polynomial in Fractions.  `k` holds the circle weights
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

    @property
    def x(self) -> tuple[RatPoly, ...]:
        """The chart polynomials x_p, then the other chart coordinates, in Fractions."""
        return tuple([Fraction(c, self.den) for c in p] for p in self.num)


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
# facet slacks with the denominators cleared


def _pairing(a: Sequence[int], G: Sequence[Sequence[int]], const: int = 0) -> list[int]:
    """const + <a, G(s)>, summed over the coordinates with a_j != 0 (a is nonzero)."""
    xs, coords = zip(*[(x, c) for x, c in zip(a, G) if x])
    p = [sum(map(mul, xs, coeffs)) for coeffs in zip_longest(*coords, fillvalue=0)] or [0]
    p[0] += const
    return poly_trim(p)


def _check_coefficients(gamma: Curve) -> None:
    """Raise ValueError unless every curve coefficient is an int or a Fraction."""
    for j, coeffs in enumerate(gamma):
        for k, c in enumerate(coeffs):
            if not is_rational(c):
                raise ValueError(f"curve coordinate {j + 1}, coefficient of s^{k}: "
                                 f"expected an int or a Fraction, got {c!r}")


def _check_interval(interval: Interval, caller: str) -> None:
    """Raise ValueError unless both ends are ints or Fractions and the first is the smaller."""
    for k, x in enumerate(interval):
        if not is_rational(x):
            raise ValueError(f"{caller}: interval end {k}: expected an int or a Fraction, got {x!r}")
    if not interval[0] < interval[1]:
        raise ValueError(f"{caller}: empty parameter interval")


def _slacks(P: HPolytope, gamma: Curve) -> tuple[int, list[list[int]], list[list[int]]]:
    """(D, G, S): G = D*gamma and S[i] = D*(lambda_i - <a_i, gamma(s)>) for every facet i.

    D > 0 is the lcm of the denominators of gamma and of the offsets.
    """
    _check_coefficients(gamma)
    D, (*G, offsets) = _integer_polys(*gamma, P.offsets)
    return D, G, [_pairing([-x for x in a], G, lam) for a, lam in zip(P.normals, offsets)]


def _map(S: list[list[int]], interval: Interval) -> tuple[Fraction, Fraction, Mapped]:
    """(a, w, maps): the interval's left end and width, and each slack mapped onto (0, 1).

    maps[i] = (q, W^deg) with q(t) = W^deg S[i](a + w t), W > 0 (`_compose_int`).
    """
    a = Fraction(interval[0])
    w = interval[1] - a
    return a, w, [_compose_int(s, a, w) for s in S]


# ---------------------------------------------------------------------------
# endpoint graph construction


def build_graph(P: HPolytope, gamma: Curve, interval: Interval, endpoint: int,
                circle: CircleEmbedding,
                chart_vertex: Optional[Sequence[Fraction]] = None) -> CurveGraph:
    """Write the curve near one endpoint as chart polynomials.

    endpoint 0 analyzes s = a, endpoint 1 analyzes s = b; tau runs into
    the domain.  Raises GraphBuildReject for criterion-level failures
    (endpoint outside the polytope or interior to it, singular
    parametrisation, tangent parallel to the face, curve exiting the chart
    cone) and PolytopeError/ValueError for malformed input.
    """
    if endpoint not in (0, 1):
        raise ValueError(f"build_graph: endpoint must be 0 or 1, got {endpoint!r}")
    _check_interval(interval, "build_graph")
    if chart_vertex is not None:
        _check_point(chart_vertex, "build_graph: chart_vertex")
    _check_dimensions(P, gamma, circle, (chart_vertex,))
    D, G, S = _slacks(P, gamma)
    return _graph(P, D, G, *_map(S, interval), endpoint, circle, chart_vertex)


def _graph(P: HPolytope, D: int, G: list[list[int]], a: Fraction, w: Fraction, maps: Mapped,
           endpoint: int, circle: CircleEmbedding, chart_vertex: Optional[Sequence[Fraction]]) -> CurveGraph:
    """build_graph on the scaled curve G = D*gamma and the mapped scaled facet slacks (`_map`)."""
    e = a if endpoint == 0 else a + w
    at_e = [sum(q[:1] if endpoint == 0 else q) for q, _ in maps]  # q(0) or q(1): the sign of slack_i(e)
    if any(v < 0 for v in at_e):
        raise GraphBuildReject("endpoint_outside_polytope",
                               f"endpoint {_point(D, G, e)} lies outside the polytope")
    tight = frozenset(i for i, v in enumerate(at_e) if v == 0)
    if not tight:
        raise GraphBuildReject("endpoint_interior",
                               f"endpoint {_point(D, G, e)} is not on the boundary")
    # the endpoint face's vertex records, sorted lexicographically: the first, or the chart vertex
    o = None if chart_vertex is None else tuple(chart_vertex)
    vertex = next(((v, act) for v, act in P._vertices if act >= tight and (o is None or v == o)), None)
    if vertex is None:
        raise PolytopeError(f"chart vertex {format_point(o)} is not a vertex of the endpoint face")
    if not any(_eval_int(poly_deriv(g), e) for g in G):
        raise GraphBuildReject("singular_parametrisation",
                               f"the curve has zero velocity at endpoint {_point(D, G, e)}")
    chart = _chart(P, *vertex)
    n = P.n

    # chart coordinate j is the slack of active facet j along gamma(e +- tau), in u = tau/w:
    # q(u) at a and q(1 - u) at b (one Taylor shift, then u -> -u), all over one denominator;
    # it vanishes at the endpoint exactly when facet j is tight there
    facets = [maps[f] for f in chart.active]
    N = max(len(q) for q, _ in facets) - 1
    WN = max(Dk for _, Dk in facets)  # W^N, from a facet of top degree
    wn, wd = w.numerator, (w.denominator if endpoint == 0 else -w.denominator)
    scale = [wd ** k * wn ** (N - k) for k in range(N + 1)]  # wn^N (+-1/w)^k
    num = []
    for q, Dk in facets:
        if endpoint:
            q = _shift1(q[::-1])[::-1]
        m = WN // Dk
        num.append([x * s * m for x, s in zip(q, scale)])
    den = D * WN * wn ** N
    slope = [q[1] if len(q) > 1 else 0 for q in num]  # signs of x_j'(0)
    Q0 = {j for j, f in enumerate(chart.active) if f not in tight}
    param = next((j for j in range(n) if j not in Q0 and slope[j]), None)
    if param is None:
        raise GraphBuildReject(
            "tangent_parallel_to_face",
            f"no chart coordinate off the face moves to first order at {_point(D, G, e)}",
        )
    if slope[param] < 0:
        raise GraphBuildReject(
            "curve_exits_chart_cone",
            f"parameter coordinate {param + 1} decreases into the domain at {_point(D, G, e)}",
        )

    others = tuple(j for j in range(n) if j != param)
    kw = local_weights(chart, circle)
    k = tuple(kw[j] for j in (param,) + others)
    Q = frozenset(pos for pos, j in enumerate(others, start=2) if j in Q0)
    return CurveGraph(chart, param, others, tuple(num[j] for j in (param,) + others), den, k, Q, w)


def _point(D: int, G: list[list[int]], e: Fraction) -> str:
    """The curve point gamma(e) for a reject message."""
    return format_point([Fraction(_eval_int(g, e), D * e.denominator ** max(len(g) - 1, 0)) for g in G])


def _check_dimensions(P: HPolytope, gamma: Curve, circle: CircleEmbedding,
                      chart_vertices: Sequence[Optional[Sequence[Fraction]]]) -> None:
    """Raise ValueError unless the curve, the circle and each given chart vertex have n entries."""
    sizes = [("the curve", len(gamma)), ("the circle", len(circle.K))]
    sizes += [(f"chart vertex {format_point(o)}", len(o)) for o in chart_vertices if o is not None]
    wrong = [f"{name} has length {size}" for name, size in sizes if size != P.n]
    if wrong:
        raise ValueError(f"the polytope has dimension {P.n}, but {' and '.join(wrong)}")


# ---------------------------------------------------------------------------
# individual checks


def check_transversality(gamma: Curve, circle: CircleEmbedding,
                         interval: Interval) -> Report:
    """<gamma'(s), K> must not vanish on the open parameter interval.

    One `isolate_root` call decides it and brackets the leftmost zero for
    the report.
    """
    _check_interval(interval, "check_transversality")
    _check_coefficients(gamma)
    return _transversality(gamma, circle, interval)


def _transversality(gamma: Curve, circle: CircleEmbedding, interval: Interval) -> Report:
    """check_transversality on checked input.  A factor D > 0 on gamma changes no root,
    so `check_lift` passes D*gamma."""
    a, b = interval
    p = poly_deriv(_pairing(circle.K, gamma))
    loc = "interior"
    if not p:
        return Report("transversality", (Condition(
            "tangent_circle_pairing", loc, "fails",
            "pairing identically zero (degenerate: orthogonal everywhere)"),))
    root = isolate_root(p, a, b)
    if root is None:
        return Report("transversality", (Condition(
            "tangent_circle_pairing", loc, "holds", "no interior zero of <gamma', K>"),))
    lo, hi = root
    return Report("transversality", (Condition(
        "tangent_circle_pairing", loc, "fails",
        f"pairing vanishes in ({lo}, {hi})"),))


def _interior(a: Fraction, w: Fraction, maps: Mapped) -> Report:
    """The open curve must stay strictly inside the polytope: a check on the mapped slacks (`_map`).

    A slack negative at the midpoint, where q(1/2) has the sign of
    sum q_k 2^(d-k), fails; otherwise one `_isolate` call per slack
    decides whether it vanishes inside and brackets the leftmost contact.
    A facet slack that is identically zero means the curve runs inside
    that facet; by the z_i = 0 convention this is allowed and noted.
    """
    conditions = []
    for i, (q, _) in enumerate(maps):
        loc = f"facet {i + 1}"
        if not q:
            conditions.append(Condition("facet_slack", loc, "holds", "curve lies inside the facet"))
            continue
        if sum(x << k for k, x in enumerate(reversed(q))) < 0:
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


def divided_smoothness(x: RatPoly, m: int) -> Optional[str]:
    """Why sqrt(2 x(tau)) / r_1^|m| fails to be smooth and even at the tip.

    None when it holds.  Near the tip the surface is z_j = f z_p^m for
    m >= 0 and z_j = f conj(z_p)^|m| for m < 0, with f = r_j / r_1^|m| a
    function of |z_p|^2 = r_1^2; every monomial z_p^a conj(z_p)^b of a
    smooth equivariant z_j has a - b = m, so r_j is at least of order
    r_1^|m|.  With x = c_v tau^v + ... and r_1^2/2 = x_p(tau) = c_1 tau + ...,
    c_1 > 0, the quotient is |r_1|^(v - |m|) times a smooth positive
    function of r_1^2 when c_v > 0: it holds iff x is identically zero, or
    c_v > 0, v >= |m| and v - m is even.
    """
    v = valuation(x)
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
        reason = divided_smoothness(xi, m)
        detail = f"m = {m}"
        v = valuation(xi)
        if v is not None:
            detail += f", valuation {v}"
        if reason:
            detail += f", {reason}"
        conditions.append(Condition("divided_smoothness", loc,
                                    "fails" if reason else "holds", detail))
    return Report(name, tuple(conditions))


# ---------------------------------------------------------------------------
# combined verdict


def check_lift(P: HPolytope, gamma: Curve, interval: Interval, circle: CircleEmbedding,
               chart_vertices: tuple[Optional[Sequence[Fraction]], Optional[Sequence[Fraction]]] = (None, None)
               ) -> LiftVerdict:
    """Full criterion: containment, transversality, both endpoint analyses.

    Each facet slack is mapped onto (0, 1) once (`_map`), for the interior
    check and both endpoint graphs alike.
    """
    _check_interval(interval, "check_lift")
    for ep, o in enumerate(chart_vertices):
        if o is not None:
            _check_point(o, f"check_lift: chart_vertices[{ep}]")
    _check_dimensions(P, gamma, circle, chart_vertices)
    D, G, S = _slacks(P, gamma)  # G = D*gamma is transversal exactly where gamma is
    mapped = _map(S, interval)
    reports = [_interior(*mapped), _transversality(G, circle, interval)]
    for ep in (0, 1):
        name = f"endpoint {ep + 1}"
        try:
            graph = _graph(P, D, G, *mapped, ep, circle, chart_vertices[ep])
        except GraphBuildReject as exc:
            reports.append(Report(name, (Condition(exc.reason, name, "fails", exc.detail),)))
            continue
        reports.append(check_endpoint(graph, name))
    verdict = "reject" if any(r.status == "fails" for r in reports) else "accept"
    return LiftVerdict(verdict, tuple(reports))
