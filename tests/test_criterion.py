import math
import os
import random
import re
from fractions import Fraction
from itertools import zip_longest
from math import comb
from operator import mul

import pytest

from conftest import NoScan, chart_polys, poly_eval, sturm_count
from toriclift import catalog, criterion, exactmath, io
from toriclift.chart import CircleEmbedding
from toriclift.criterion import (
    GraphBuildReject,
    build_graph,
    check_endpoint,
    check_lift,
    valuation,
)
from toriclift.exactmath import isolate_root, poly_compose_linear, poly_deriv, poly_trim
from toriclift.polytope import HPolytope, PolytopeError, face_lattice, format_point, minimal_face, points_equivalent

F = Fraction


def poly(*cs):
    return [F(c) for c in cs]


def divided_smoothness(x, m):
    """The rule `check_endpoint` applies to a chart polynomial x with weight ratio m."""
    return criterion._divided_smoothness(x, valuation(x), m)


DIAG = [poly(0, 1), poly(0, 1)]          # gamma(s) = (s, s)
DIAG_IV = (F(0), F(3, 2))
K11 = CircleEmbedding((1, 1))
K10 = CircleEmbedding((1, 0))


def transversality_report(gamma, circle, interval):
    """The transversality report `check_lift` makes, which reads only the curve, the circle and
    the interval: here in the unit box of the curve's dimension."""
    return check_lift(catalog.box([1] * len(gamma)), gamma, interval, circle).report("transversality")


def check_interior(P, gamma, interval):
    """The interior report `check_lift` makes, from the facet slacks of the mapped curve."""
    m = criterion._map(P, gamma, interval)
    return criterion._interior(m.a, m.w, m.S)


class TestBuildGraph:
    def test_diagonal_at_origin(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 0, K11)
        assert gr.chart.vertex == (F(0), F(0))
        assert gr.k == (1, 1)
        assert gr.Q == frozenset()
        assert chart_polys(gr) == [[F(0), F(1)], [F(0), F(1)]]  # x_1 = x_2 = tau
        assert gr.x1_max == F(3, 2)

    def test_diagonal_at_facet_endpoint(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 1, K11, chart_vertices=(None, (F(3), F(0))))
        assert gr.Q == frozenset({2})
        assert gr.k == (-1, 0)
        assert chart_polys(gr) == [[F(0), F(2)], [F(3, 2), F(-1)]]

    def test_chart_shared_between_calls(self):
        P = catalog.cp2(3)
        g1 = build_graph(P, DIAG, DIAG_IV, 0, K11)
        g2 = build_graph(P, [poly(0, 1), poly(0, 2)], (F(0), F(1)), 0, K10)
        assert g2.chart.vertex == g1.chart.vertex
        assert g2.chart is g1.chart

    def test_default_chart_is_lex_smallest(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 1, K11)
        assert gr.chart.vertex == (F(0), F(3))

    def test_interior_endpoint_rejected(self, cp2):
        with pytest.raises(GraphBuildReject) as exc:
            build_graph(cp2, DIAG, (F(0), F(1)), 1, K11)
        assert exc.value.reason == "endpoint_interior"

    def test_tangent_parallel_to_face(self, cp2):
        # endpoint (1, 0) on the y = 0 facet, approached tangentially
        gamma = [poly(1, 1), poly(0, 0, 1)]
        with pytest.raises(GraphBuildReject) as exc:
            build_graph(cp2, gamma, (F(0), F(1)), 0, K11)
        assert exc.value.reason == "tangent_parallel_to_face"

    def test_curve_exits_chart_cone(self, cp2):
        gamma = [poly(0, -1), poly(0, 1)]
        with pytest.raises(GraphBuildReject) as exc:
            build_graph(cp2, gamma, (F(0), F(1)), 0, K11)
        assert exc.value.reason == "curve_exits_chart_cone"

    def test_endpoint_outside_polytope_rejected(self, cp2):
        with pytest.raises(GraphBuildReject) as exc:
            build_graph(cp2, DIAG, (F(0), F(2)), 1, K11)
        assert exc.value.reason == "endpoint_outside_polytope"
        assert "(2, 2)" in exc.value.detail

    def test_wrong_chart_vertex_rejected(self, cp2):
        # (3, 0) is a vertex of P, but not of the face of gamma(0) = (0, 0)
        with pytest.raises(PolytopeError, match=r"^chart vertex \(3, 0\) is not a vertex of the endpoint face$"):
            build_graph(cp2, DIAG, DIAG_IV, 0, K11, chart_vertices=((F(3), F(0)), None))

    def test_empty_interval_rejected(self, cp2):
        with pytest.raises(ValueError):
            build_graph(cp2, DIAG, (F(1), F(1)), 0, K11)

    # True analysed s = b, as True in (0, 1): a bool or a float is no endpoint index
    @pytest.mark.parametrize("endpoint", [-1, 2, 5, True, False, 0.0, 1.0])
    def test_endpoint_index_rejected(self, cp2, endpoint):
        with pytest.raises(ValueError, match=f"^build_graph: endpoint must be 0 or 1, got {re.escape(repr(endpoint))}$"):
            build_graph(cp2, DIAG, DIAG_IV, endpoint, K11)

    @pytest.mark.parametrize("polytope,gamma,charts,message", [
        ("cp2", [poly(0, 3), poly(0)], (None, (0, 3)), "chart vertex (0, 3) is not a vertex of the endpoint face"),
        ("bad_triangle", [poly(0, 1), poly(0)], (None, None), "vertex (1, 0) is not Delzant: |det U| = 2"),
    ], ids=["given-off-the-face", "default-not-delzant"])
    def test_chart_at_the_other_endpoint_checked(self, request, polytope, gamma, charts, message):
        # the chart at s = 1 is malformed: build_graph raises check_lift's error at either
        # endpoint, where endpoint 0 returned a graph
        P, K = request.getfixturevalue(polytope), CircleEmbedding((0, 1))
        for entry, args in ((check_lift, (P, gamma, (0, 1), K, charts)),
                            *((build_graph, (P, gamma, (0, 1), ep, K, charts)) for ep in (0, 1))):
            with pytest.raises(PolytopeError, match=f"^{re.escape(message)}$"):
                entry(*args)

    def test_singular_parametrization_rejected(self, cp2):
        # at the vertex 0, and at (1, 0), where gamma(a) is not zero but gamma'(a) is
        for gamma in ([poly(0, 0, 1), poly(0, 0, 1)], [poly(1, 0, 1), poly(0, 0, 1)]):
            with pytest.raises(GraphBuildReject) as exc:
                build_graph(cp2, gamma, (F(0), F(1)), 0, K11)
            assert exc.value.reason == "singular_parametrisation"

    # curves on [0, 1/2] with gamma'(0) = 0 that start at a vertex, on an edge and on a facet of
    # the unit cube, and at two vertices of cp2(3); the constant curve has every slack at the
    # chart vertex identically zero
    ZERO_VELOCITY = {
        "cube-vertex": (catalog.box([1, 1, 1]), [poly(0, 0, 1), poly(0, 0, 0, 1), poly(0, 0, 1)]),
        "cube-vertex-constant": (catalog.box([1, 1, 1]), [poly(0), poly(0), poly(0)]),
        "cube-edge": (catalog.box([1, 1, 1]), [poly(F(1, 2), 0, 0, 1), poly(0, 0, 1), poly(0, 0, 1)]),
        "cube-facet": (catalog.box([1, 1, 1]), [poly(F(1, 2), 0, -1), poly(F(1, 2), 0, 0, 1), poly(0, 0, 1)]),
        "cp2-origin": (catalog.cp2(3), [poly(0, 0, 1), poly(0, 0, 1)]),
        "cp2-vertex": (catalog.cp2(3), [poly(3, 0, -2), poly(0, 0, 1)]),
    }
    # gamma'(0) != 0 along the endpoint's face
    ALONG_FACE = {
        "cube-edge": (catalog.box([1, 1, 1]), [poly(F(1, 2), 1), poly(0, 0, 1), poly(0, 0, 1)]),
        "cube-facet": (catalog.box([1, 1, 1]), [poly(F(1, 2), 1), poly(F(1, 2), -1), poly(0, 0, 1)]),
        "cp2-edge": (catalog.cp2(3), [poly(1, 1), poly(0, 0, 1)]),
    }

    @staticmethod
    def face_charts(P, gamma):
        """The default chart and each vertex of the face of gamma(0), given as the chart vertex."""
        return [(None, None)] + [(v, None) for v in minimal_face(P, [g[0] for g in gamma]).vertices]

    @pytest.mark.parametrize("name", sorted(ZERO_VELOCITY))
    def test_zero_velocity_in_every_face_chart(self, name):
        # every chart slope x_j'(0) is 0 exactly when gamma'(0) is, whichever vertex the chart is at
        P, gamma = self.ZERO_VELOCITY[name]
        for charts in self.face_charts(P, gamma):
            with pytest.raises(GraphBuildReject) as exc:
                build_graph(P, gamma, (F(0), F(1, 2)), 0, CircleEmbedding((1,) * P.n), charts)
            assert exc.value.reason == "singular_parametrisation"
            assert exc.value.detail == f"the curve has zero velocity at endpoint {format_point([g[0] for g in gamma])}"
            cond = check_lift(P, gamma, (F(0), F(1, 2)), CircleEmbedding((1,) * P.n), charts).report("endpoint 1")
            assert [c.condition for c in cond.conditions] == ["singular_parametrisation"]

    @pytest.mark.parametrize("name", sorted(ALONG_FACE))
    def test_velocity_along_the_face_in_every_face_chart(self, name):
        P, gamma = self.ALONG_FACE[name]
        for charts in self.face_charts(P, gamma):
            with pytest.raises(GraphBuildReject) as exc:
                build_graph(P, gamma, (F(0), F(1, 2)), 0, CircleEmbedding((1,) * P.n), charts)
            assert exc.value.reason == "tangent_parallel_to_face"

    def test_parabola_graph(self, cp2):
        # gamma(s) = (s, s^2) at the origin: x_2(tau) = tau^2
        gamma = [poly(0, 1), poly(0, 0, 1)]
        gr = build_graph(cp2, gamma, (F(0), F(1)), 0, CircleEmbedding((1, 2)))
        assert gr.k == (1, 2)
        assert chart_polys(gr)[1] == [F(0), F(0), F(1)]


class TestTransversality:
    def test_diagonal_holds(self):
        assert transversality_report(DIAG, K11, DIAG_IV).status == "holds"

    def test_degenerate_orthogonal(self):
        rep = transversality_report(DIAG, CircleEmbedding((1, -1)), DIAG_IV)
        assert rep.status == "fails"
        assert "identically zero" in rep.conditions[0].detail

    def test_interior_zero_with_witness(self):
        gamma = [poly(0, 1), poly(0, 0, 1)]
        rep = transversality_report(gamma, CircleEmbedding((1, -1)), (F(0), F(1)))
        assert rep.status == "fails"
        assert "vanishes" in rep.conditions[0].detail

    def test_leftmost_zero_detail(self):
        # <gamma', K> = (s - 1/5)(s - 3/5): the report brackets the zero at 1/5
        gamma = [poly(0, F(3, 25), F(-2, 5), F(1, 3)), poly(0, 1)]
        rep = transversality_report(gamma, K10, (F(0), F(1)))
        assert rep.conditions[0].detail == "pairing vanishes in (51/256, 205/1024)"

    def test_endpoint_zero_allowed(self):
        # <gamma', K> = 1 - s vanishes only at the right endpoint
        gamma = [poly(0, 1), poly(0, 1, F(-1, 2))]
        rep = transversality_report(gamma, CircleEmbedding((0, 1)), (F(0), F(1)))
        assert rep.status == "holds"


class TestInterior:
    def test_diagonal_inside(self, cp2):
        assert check_interior(cp2, DIAG, DIAG_IV).status == "holds"

    def test_boundary_contact(self, cp2):
        rep = check_interior(cp2, DIAG, (F(0), F(2)))
        assert rep.status == "fails"
        assert any("boundary contact" in c.detail for c in rep.conditions)

    @pytest.mark.parametrize("gamma,iv,detail", [
        # y = (s - 1/3)^2 touches the facet y = 0 at s = 1/3
        ([poly(0, 1), poly(F(1, 9), F(-2, 3), 1)], (F(0), F(1)), "(341/1024, 171/512)"),
        # y = (s - 1)^2 touches it at the first bisection midpoint
        ([poly(0, 1), poly(1, -2, 1)], (F(0), F(2)), "(1, 1)"),
    ])
    def test_tangent_contact_detail(self, cp2, gamma, iv, detail):
        rep = check_interior(cp2, gamma, iv)
        assert [c.detail for c in rep.conditions if c.outcome == "fails"] == [
            f"interior boundary contact at s in {detail}"]

    def test_leaves_polytope(self, cp2):
        rep = check_interior(cp2, DIAG, (F(2), F(3)))
        assert rep.status == "fails"
        assert any("leaves" in c.detail for c in rep.conditions)

    def test_curve_inside_facet_allowed(self, cp2):
        gamma = [poly(0, 1), poly(0)]
        rep = check_interior(cp2, gamma, (F(0), F(1)))
        assert rep.status == "holds"
        assert any("inside the facet" in c.detail for c in rep.conditions)


class TestEndpoint:
    def test_diagonal_origin_holds(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 0, K11)
        rep = check_endpoint(gr)
        assert rep.status == "holds"
        names = [c.condition for c in rep.conditions]
        assert names == ["k1_nonzero", "weight_ratio_integer", "divided_smoothness"]

    def test_cone_parity_failure(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 0, K10)
        rep = check_endpoint(gr)
        assert rep.status == "fails"
        bad = [c for c in rep.conditions if c.outcome == "fails"]
        assert bad[0].condition == "divided_smoothness"
        assert "parity" in bad[0].detail

    def test_parabola_weight_two(self, cp2):
        gamma = [poly(0, 1), poly(0, 0, 1)]
        gr = build_graph(cp2, gamma, (F(0), F(1)), 0, CircleEmbedding((1, 2)))
        rep = check_endpoint(gr)
        assert rep.status == "holds"
        assert any("m = 2" in c.detail for c in rep.conditions)

    def test_non_integer_ratio(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 0, CircleEmbedding((2, 3)))
        rep = check_endpoint(gr)
        assert rep.status == "fails"
        assert any(c.condition == "weight_ratio_integer" and c.outcome == "fails"
                   for c in rep.conditions)

    def test_facet_endpoint_conditions(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 1, K11, chart_vertices=(None, (F(3), F(0))))
        rep = check_endpoint(gr)
        assert rep.status == "holds"
        names = [c.condition for c in rep.conditions]
        assert names == ["k1_nonzero", "face_weight_vanishes"]

    def test_nonzero_face_weight_fails(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 1, CircleEmbedding((2, 1)),
                         chart_vertices=(None, (F(3), F(0))))
        rep = check_endpoint(gr)
        assert any(c.condition == "face_weight_vanishes" and c.outcome == "fails"
                   for c in rep.conditions)


# ---------------------------------------------------------------------------
# the valuation and divided smoothness the endpoint conditions read from a chart polynomial


class TestValuation:
    def test_linear(self):
        assert valuation(poly(0, 1)) == 1

    def test_exact_zero(self):
        assert valuation([]) is None
        assert valuation(poly(0, 0)) is None


class TestSqrtFactorClass:
    """Smoothness of the radius sqrt(2 x(tau)) at the tip, tau ~ r_1^2."""

    def test_unit(self):
        x = poly(1, 1)
        assert divided_smoothness(x, 0) is None and valuation(x) == 0

    def test_cone(self):
        x = poly(0, 1)
        assert divided_smoothness(x, 0) == "parity" and valuation(x) == 1

    def test_square(self):
        # sqrt(x^2) with x = r^2 / 2 is r^2 / 2: smooth and even
        x = poly(0, 0, 1)
        assert divided_smoothness(x, 0) is None and valuation(x) == 2
        f = lambda r: math.sqrt(2 * (r * r / 2) ** 2)
        for r in (0.01, 0.1, 0.3):
            assert f(r) == pytest.approx(r * r / math.sqrt(2), rel=1e-12)
            assert f(-r) == pytest.approx(f(r), rel=1e-12)

    def test_negative_leading(self):
        assert divided_smoothness(poly(-1, 1), 0) == "negative_leading"

    def test_identically_zero(self):
        assert divided_smoothness([], 0) is None


class TestDividedSmoothness:
    """sqrt(2 x(tau)) / r_1^|m|: the graph coordinate g_j = x_j o x_p^{-1} has the
    valuation and leading sign of the chart polynomial x_j, which it reads."""

    @pytest.mark.parametrize("coeffs,m,status,reason", [
        ((0, 1), 1, "holds", None),          # z2 = c z1, the smooth disc
        ((0, 1), 0, "fails", "parity"),      # the cone
        ((0, 0, 1), 1, "fails", "parity"),
        ((0, 0, 0, 1), 1, "holds", None),
        ((0, 1), 2, "fails", "negative_power"),
        ((0, -1), 1, "fails", "negative_leading"),
        ((0, 1), -1, "holds", None),         # z2 = c conj(z1)
        ((0, 1), -3, "fails", "negative_power"),
        ((0, 0, 0, 1), -3, "holds", None),   # z2 = c conj(z1)^3
        ((0, F(1, 2)), 1, "holds", None),    # a positive leading coefficient below 1
    ])
    def test_table(self, coeffs, m, status, reason):
        out = divided_smoothness(poly(*coeffs), m)
        assert ("holds" if out is None else "fails") == status
        assert out == reason

    def test_identically_zero_holds(self):
        assert divided_smoothness([], 3) is None

    def test_numeric_probe_agrees(self):
        # holds case: x = tau, m = 1 gives sqrt(2 tau) / r_1 = 1 with
        # r_1 = sqrt(2 tau); parity-fail case: m = 0 gives r_1 itself, the
        # cone |r|, whose one-sided slope at 0 stays 1
        f = lambda r: math.sqrt(2 * (r * r / 2)) / abs(r)
        assert f(1e-6) == pytest.approx(1.0, rel=1e-9)
        slope = (math.sqrt(2 * ((1e-6) ** 2 / 2)) - 0.0) / 1e-6
        assert abs(slope) > 0.5
        assert divided_smoothness(poly(0, 1), 1) is None
        assert divided_smoothness(poly(0, 1), 0) == "parity"


class TestCheckLift:
    def test_diagonal_accept(self, cp2):
        v = check_lift(cp2, DIAG, DIAG_IV, K11)
        assert v.verdict == "accept"
        assert {r.name for r in v.reports} == {"interior", "transversality",
                                               "endpoint 1", "endpoint 2"}

    def test_cone_reject(self, cp2):
        v = check_lift(cp2, DIAG, DIAG_IV, K10)
        assert v.verdict == "reject"
        assert v.report("endpoint 1").status == "fails"

    def test_degenerate_transversality_reject(self, cp2):
        gamma = [poly(0, 1), poly(2, -1)]
        v = check_lift(cp2, gamma, (F(0), F(2)), K11)
        assert v.verdict == "reject"
        assert v.report("transversality").status == "fails"

    def test_graph_reject_becomes_report(self, cp2):
        gamma = [poly(1, 1), poly(0, 0, 1)]
        v = check_lift(cp2, gamma, (F(0), F(1)), K11)
        assert v.verdict == "reject"
        assert v.report("endpoint 1").conditions[0].condition == "tangent_parallel_to_face"

    def test_negative_ratio_needs_valuation_abs_m(self, square):
        # (s, s) with K = (1, -3): z2 = conj(z1)^3 / |z1|^2 at each tip, whose
        # ratio z2/z1 depends on the direction of approach, so S is not C^1 there
        v = check_lift(square, DIAG, (F(0), F(1)), CircleEmbedding((1, -3)))
        assert v.verdict == "reject"
        for name in ("endpoint 1", "endpoint 2"):
            cond = {(c.condition, c.location): c for c in v.report(name).conditions}
            assert cond["divided_smoothness", "coordinate 2"].detail == "m = -3, valuation 1, negative_power"

    def test_inconclusive_at_low_order(self, square):
        # y = (s(1-s))^20 has valuation 20 at both endpoints, past any low
        # truncation order of a series; the closed form decides it: even,
        # so the K = (1, 0) surface is smooth
        y = poly(*([0] * 20 + [(-1) ** i * comb(20, i) for i in range(21)]))
        gamma = [poly(0, 1), y]
        assert check_lift(square, gamma, (F(0), F(1)), K10).verdict == "accept"

    def test_zero_coordinate_nonlinear_parameter(self, square):
        # (s + 2 s^2, 0) ends at the vertex (1, 0) with x_1 = 3 tau - 2 tau^2
        # and x_2 identically zero, which holds for every weight ratio
        gamma = [poly(0, 1, 2), poly(0)]
        v = check_lift(square, gamma, (F(0), F(1, 2)), K11)
        assert v.verdict == "accept"

    def test_outside_and_singular_endpoints_are_verdicts(self, cp2):
        v = check_lift(cp2, DIAG, (F(0), F(2)), K11)
        assert v.verdict == "reject"
        assert v.report("endpoint 2").conditions[0].condition == "endpoint_outside_polytope"
        v = check_lift(cp2, [poly(0, 0, 1), poly(0, 0, 1)], (F(0), F(1)), K11)
        assert v.verdict == "reject"
        assert v.report("endpoint 1").conditions[0].condition == "singular_parametrisation"
        # the point printed is gamma(a) itself, whatever the curve's velocity there
        v = check_lift(cp2, [poly(-1, 1), poly(1, 1)], (F(0), F(1)), K11)
        assert v.report("endpoint 1").conditions[0].detail == "endpoint (-1, 1) lies outside the polytope"

    def test_malformed_endpoint_input_raises(self, cp2):
        with pytest.raises(PolytopeError):
            check_lift(cp2, DIAG, DIAG_IV, K11, chart_vertices=((F(3), F(0)), None))
        with pytest.raises(ValueError, match="empty parameter interval"):
            check_lift(cp2, DIAG, (F(1), F(1)), K11)

    @pytest.mark.parametrize("gamma,K,charts,message", [
        ([poly(0, 1), poly(0, 1), poly(0, 1)], K11, (None, None), "the curve has length 3"),
        ([poly(0, 1)], K11, (None, None), "the curve has length 1"),
        (DIAG, CircleEmbedding((1, 1, 0)), (None, None), "the circle has length 3"),
        (DIAG, K11, (None, (F(3, 2), F(3, 2), F(0))), r"chart vertex \(3/2, 3/2, 0\) has length 3"),
    ], ids=["curve-3", "curve-1", "circle-3", "chart-vertex-3"])
    def test_wrong_dimension_raises(self, cp2, gamma, K, charts, message):
        # the polytope is a plane one: every size is checked before any work
        with pytest.raises(ValueError, match="the polytope has dimension 2, but " + message):
            check_lift(cp2, gamma, DIAG_IV, K, chart_vertices=charts)
        with pytest.raises(ValueError, match=message):
            build_graph(cp2, gamma, DIAG_IV, 1, K, charts)

    def test_verdict_in_dict(self, cp2):
        d = check_lift(cp2, DIAG, DIAG_IV, K11).to_dict()
        assert d["verdict"] == "accept"
        assert all({"name", "status", "conditions"} <= set(r) for r in d["reports"])

    def test_edge_sphere_zero_coordinate_before_the_parameter(self, square):
        # (0, s) runs along the facet x = 0: at each end x_1 is identically zero, so its
        # slope is 0 and the parameter is coordinate 2, which comes after it
        v = check_lift(square, [poly(0), poly(0, 1)], (F(0), F(1)), CircleEmbedding((0, 1)))
        assert v.verdict == "accept"
        assert v.report("endpoint 1").status == v.report("endpoint 2").status == "holds"

    def test_interior_contact_and_parameter_labels(self, square):
        # x = 3s - 2s^2 touches the facet x = 1 at s = 1/2 and comes back to it at s = 1,
        # where it decreases: the labels name facet 2 and parameter coordinate 1
        gamma = [poly(0, 3, -2), poly(F(1, 2), F(1, 4), F(-1, 4))]
        v = check_lift(square, gamma, (F(0), F(1)), K10)
        assert v.verdict == "reject"
        contact = [c for c in v.report("interior").conditions if c.outcome == "fails"]
        assert [(c.location, c.detail) for c in contact] == [
            ("facet 2", "interior boundary contact at s in (1/2, 1/2)")]
        (end,) = v.report("endpoint 2").conditions
        assert (end.condition, end.detail) == (
            "curve_exits_chart_cone", "parameter coordinate 1 decreases into the domain at (1, 1/2)")

    @pytest.mark.parametrize("gamma,point", [
        ([poly(F(1, 2), 0, 1), poly(0, 1)], "(3/4, 1/2)"),  # a degree-2 curve
        ([poly(0, 1), poly(F(1, 2))], "(1/2, 1/2)"),  # a constant coordinate
    ], ids=["degree-2", "constant"])
    def test_fractional_endpoint_printed(self, square, gamma, point):
        # gamma(1/2) lies inside the square
        v = check_lift(square, gamma, (F(0), F(1, 2)), K11)
        (end,) = v.report("endpoint 2").conditions
        assert end.detail == f"endpoint {point} is not on the boundary"


class TestInvariances:
    CASES = [
        (DIAG, DIAG_IV, (1, 1)),
        (DIAG, DIAG_IV, (1, 0)),
        ([poly(0, 1), poly(0, 0, 1)], (F(0), F(1)), (1, 2)),
        ([poly(0, 1), poly(2, -1)], (F(0), F(2)), (1, 1)),
    ]

    @pytest.mark.parametrize("gamma,iv,K", CASES)
    def test_circle_sign_flip(self, cp2, gamma, iv, K):
        v1 = check_lift(cp2, gamma, iv, CircleEmbedding(K))
        v2 = check_lift(cp2, gamma, iv, CircleEmbedding(tuple(-x for x in K)))
        assert v1.verdict == v2.verdict

    @pytest.mark.parametrize("gamma,iv,K", CASES)
    def test_linear_reparametrization(self, cp2, gamma, iv, K):
        from toriclift.exactmath import poly_compose_linear

        c = F(3)
        resc = [poly_compose_linear(p, F(0), c) for p in gamma]
        iv2 = (iv[0] / c, iv[1] / c)
        v1 = check_lift(cp2, gamma, iv, CircleEmbedding(K))
        v2 = check_lift(cp2, resc, iv2, CircleEmbedding(K))
        assert v1.verdict == v2.verdict

    def test_coordinate_swap(self, square):
        gamma = [poly(0, 1), poly(0, 0, 1)]
        swapped = [poly(0, 0, 1), poly(0, 1)]
        iv = (F(0), F(1))
        for K in ((1, 2), (1, 1), (2, 1)):
            v1 = check_lift(square, gamma, iv, CircleEmbedding(K))
            v2 = check_lift(square, swapped, iv, CircleEmbedding((K[1], K[0])))
            assert v1.verdict == v2.verdict


class TestIntegerInput:
    """A curve given with int coefficients reports exactly what its Fraction form does."""

    def test_transversality_two_roots(self):
        # <gamma', K> = 3s^2 - 6s + 2 has two roots in (0, 2), so isolate_root takes its
        # square-free step, which must stay exact on integer lists
        gamma = [[0, 2, -3, 1], [0]]
        for g in (gamma, [poly(*c) for c in gamma]):
            rep = transversality_report(g, K10, (F(0), F(2)))
            assert rep.conditions[0].detail == "pairing vanishes in (27/64, 433/1024)"

    def test_interior_two_contacts(self, cp2):
        # y = (3s - 1)(4s - 1) touches y = 0 twice; x + y = 3 is crossed once
        gamma = [[0, 1], [1, -7, 12]]
        want = [("holds", "positive on the interior"),
                ("fails", "interior boundary contact at s in (1/4, 1/4)"),
                ("fails", "interior boundary contact at s in (373/512, 747/1024)")]
        for g in (gamma, [poly(*c) for c in gamma]):
            rep = check_interior(cp2, g, (F(0), F(1)))
            assert [(c.outcome, c.detail) for c in rep.conditions] == want


class TestCoefficientTypes:
    """A float coefficient is malformed input: a ValueError naming it, at every entry point."""

    MESSAGE = r"^curve coordinate 1, coefficient of s\^1: expected an int or a Fraction, got 0\.5$"
    GAMMA = [[0, 0.5], [0, 1]]

    # named before a chart vertex that is no vertex of P, as the gate orders its checks
    def test_check_lift(self, cp2):
        for chart_vertices in ((None, None), ((7, 7), None)):
            with pytest.raises(ValueError, match=self.MESSAGE):
                check_lift(cp2, self.GAMMA, (F(0), F(1)), K11, chart_vertices)

    def test_build_graph(self, cp2):
        for chart_vertices in ((None, None), ((7, 7), None), (None, (7, 7))):
            with pytest.raises(ValueError, match=self.MESSAGE):
                build_graph(cp2, self.GAMMA, (F(0), F(1)), 0, K11, chart_vertices)

    def test_names_the_coordinate(self, cp2):
        with pytest.raises(ValueError, match=r"^curve coordinate 2, coefficient of s\^0: .* got 0\.25$"):
            check_lift(cp2, [[0, 1], [0.25]], (F(0), F(1)), K11)


class TestIntervalTypes:
    """An interval end that is not an int or a Fraction is malformed input: a ValueError
    naming it at both entry points, where a float reached the root search and a str
    crashed there, and build_graph kept a float x1_max."""

    BAD = pytest.mark.parametrize("interval,message", [
        ((0.0, F(3, 2)), "interval end 0: expected an int or a Fraction, got 0.0"),
        ((0, 1.5), "interval end 1: expected an int or a Fraction, got 1.5"),
        ((F(0), "3/2"), "interval end 1: expected an int or a Fraction, got '3/2'"),
        ((False, 1), "interval end 0: expected an int or a Fraction, got False"),
        # (0,) raised IndexError and 5 TypeError; build_graph accepted (0, 1, 2) and
        # check_lift then passed three ends to the root search
        ((0,), "interval: expected two ends, got (0,)"),
        ((0, 1, 2), "interval: expected two ends, got (0, 1, 2)"),
        (5, "interval: expected two ends, got 5"),
    ], ids=["float-start", "float-end", "str", "bool", "one", "three", "int"])

    @BAD
    def test_check_lift(self, cp2, interval, message):
        with pytest.raises(ValueError, match=f"^check_lift: {re.escape(message)}$"):
            check_lift(cp2, DIAG, interval, K11)

    @BAD
    def test_build_graph(self, cp2, interval, message):
        with pytest.raises(ValueError, match=f"^build_graph: {re.escape(message)}$"):
            build_graph(cp2, DIAG, interval, 0, K11)

    @pytest.mark.parametrize("make", [iter, lambda p: (x for x in p)], ids=["iterator", "generator"])
    def test_interval_read_once(self, cp2, make):
        # the gate hands on the ends it unpacked, where _map read the spent iterator again
        assert check_lift(cp2, DIAG, make(DIAG_IV), K11) == check_lift(cp2, DIAG, DIAG_IV, K11)
        for ep in (0, 1):
            assert build_graph(cp2, DIAG, make(DIAG_IV), ep, K11) == build_graph(cp2, DIAG, DIAG_IV, ep, K11)

    def test_int_ends_read_as_fractions(self, cp2):
        assert check_lift(cp2, DIAG, (0, F(3, 2)), K11) == check_lift(cp2, DIAG, DIAG_IV, K11)
        graph = build_graph(cp2, DIAG, (0, F(3, 2)), 0, K11)
        assert graph == build_graph(cp2, DIAG, DIAG_IV, 0, K11) and type(graph.x1_max) is F


class TestExactSlots:
    """A float, a bool and a string in an exact slot each give one error naming the slot,
    where isolate_root crashed on a float end or coefficient and read a bool as 1, the
    criterion read a bool coefficient as 1, box and projective_simplex wrapped a float in
    a Fraction, and the point questions and chart vertices read a float or a bool as the
    equal rational."""

    SLOTS = {
        "minimal-face": (lambda x: minimal_face(catalog.cp2(3), (x, 0)), "r, coordinate 1: "),
        "points-equivalent": (lambda x: points_equivalent(catalog.cp2(3), ((x, 0), (0, 0)), ((0, 0), (0, 0))),
                              "t1, coordinate 1: "),
        "chart-vertex": (lambda x: build_graph(catalog.cp2(3), DIAG, DIAG_IV, 0, K11, ((x, 0), None)),
                         "build_graph: chart_vertices[0], coordinate 1: "),
        "chart-vertices": (lambda x: check_lift(catalog.cp2(3), DIAG, DIAG_IV, K11, (None, (0, x))),
                           "check_lift: chart_vertices[1], coordinate 2: "),
        "isolate-root-end": (lambda x: isolate_root([1, -1], 0, x), "isolate_root: interval end 1: "),
        "isolate-root-coefficient": (lambda x: isolate_root([F(1, 2), x], 0, 2),
                                     "isolate_root: coefficient of s^1: "),
        "coefficient": (lambda x: check_lift(catalog.cp2(3), [poly(0, 1), [0, x]], DIAG_IV, K11),
                        "curve coordinate 2, coefficient of s^1: "),
        "box-length": (lambda x: catalog.box([x, 1]), "offset "),
        "simplex-scale": (lambda x: catalog.projective_simplex(2, x), "offset "),
    }

    @pytest.mark.parametrize("value", [0.1, True, "1/2"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("slot", sorted(SLOTS))
    def test_rejected(self, slot, value):
        call, prefix = self.SLOTS[slot]
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value).startswith(prefix) and repr(value) in str(info.value)
        assert "expected an int or a Fraction" in str(info.value)


# ---------------------------------------------------------------------------
# the integer slacks against the Fraction slacks they replace

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def data_polytope(name):
    return io.load_polytope(os.path.join(DATA, f"{name}.json"))


def pairing_oracle(a, gamma):
    """<a, gamma(s)> in Fractions."""
    xs, coords = zip(*[(x, c) for x, c in zip(a, gamma) if x])
    return poly_trim([sum(map(mul, xs, coeffs)) for coeffs in zip_longest(*coords, fillvalue=0)])


def slack_oracle(P, i, gamma):
    """lambda_i - <a_i, gamma(s)> in Fractions, as the criterion formed each slack before
    it cleared denominators."""
    p = pairing_oracle([-x for x in P.normals[i]], gamma) or [0]
    return poly_trim([p[0] + P.offsets[i], *p[1:]])


def small_rational(rng):
    """A rational in [-1, 1] with a denominator up to 10^4."""
    q = rng.randint(1, 10**4)
    return F(rng.randint(-q, q), q)


def random_curve(rng, P):
    """A chord between points of two proper faces with a random bump, on a random
    rational interval: both ends lie on the boundary, and the coefficients carry
    denominators up to 10^4 and beyond."""
    faces = [f for f in face_lattice(P) if f.active]
    ends = []
    for face in rng.sample(faces, 2):
        w = [rng.randint(1, 9) for _ in face.vertices]
        ends.append([sum(wi * v[j] for wi, v in zip(w, face.vertices)) / sum(w) for j in range(P.n)])
    (A, B), w = ends, [small_rational(rng) for _ in range(P.n)]
    bumped = [F(0)] * 5  # s(1 - s) bump(s), bump of degree < 3
    for i in range(rng.randint(0, 3)):
        c = small_rational(rng)
        bumped[i + 1] += c
        bumped[i + 2] -= c
    # A + s(B - A) + s(1 - s) bump(s) w on [0, 1], then s = (t - lo)/(hi - lo)
    gamma = [poly_trim([x + c * wj for x, c in zip([a, b - a, 0, 0, 0], bumped)]) for a, b, wj in zip(A, B, w)]
    lo = F(rng.randint(-20, 20), rng.randint(1, 50))
    hi = lo + F(rng.randint(1, 40), rng.randint(1, 30))
    return [poly_compose_linear(c, -lo / (hi - lo), 1 / (hi - lo)) for c in gamma], (lo, hi)


def translate(rng, P):
    """P moved by a vector with denominators up to 10^4."""
    t = [small_rational(rng) for _ in range(P.n)]
    return HPolytope(P.n, P.normals, [lam + sum(map(mul, a, t)) for a, lam in zip(P.normals, P.offsets)])


def random_circle(rng, n):
    K = [0] * n
    while not any(K):
        K = [rng.randint(-3, 3) for _ in range(n)]
    return CircleEmbedding(K)


class TestIntegerSlacksDifferential:
    NAMES = ["cp2_3", "cp3", "hirzebruch", "unit_square", "non_delzant_triangle"]

    def expected_slack_condition(self, slack, iv):
        """(outcome, whether the detail brackets a root) for one facet, from the Sturm oracle."""
        a, b = iv
        if not slack:
            return "holds", False
        if poly_eval(slack, (a + b) / 2) < 0:
            return "fails", False
        return ("holds", False) if sturm_count(slack, a, b) == 0 else ("fails", True)

    def check_bracket(self, p, detail):
        """The bracket printed at the end of a detail holds a root of p."""
        lo, hi = (F(x) for x in detail[detail.rindex("(") + 1:-1].split(", "))
        assert poly_eval(p, lo) == 0 if lo == hi else sturm_count(p, lo, hi) > 0

    def test_random_rational_curves(self):
        rng = random.Random(2025)
        base = {name: data_polytope(name) for name in self.NAMES}
        built = rejected = 0
        for i in range(300):
            P = base[self.NAMES[i % 5]]
            if i % 2:
                P = translate(rng, P)
            gamma, iv = random_curve(rng, P)
            K = random_circle(rng, P.n)
            try:
                verdict = check_lift(P, gamma, iv, K)
            except PolytopeError:  # a chart at the triangle's non-Delzant vertex
                verdict = None

            interior = check_interior(P, gamma, iv)
            assert verdict is None or verdict.report("interior") == interior
            for i_f, cond in enumerate(interior.conditions):
                slack = slack_oracle(P, i_f, gamma)
                outcome, bracketed = self.expected_slack_condition(slack, iv)
                assert cond.outcome == outcome
                if bracketed:
                    self.check_bracket(slack, cond.detail)

            trans = transversality_report(gamma, K, iv)
            assert verdict is None or verdict.report("transversality") == trans
            p = poly_deriv(pairing_oracle(K.K, gamma))
            holds = bool(p) and sturm_count(p, *iv) == 0
            assert trans.conditions[0].outcome == ("holds" if holds else "fails")
            if p and not holds:
                self.check_bracket(p, trans.conditions[0].detail)

            for ep in (0, 1):
                try:
                    graph = build_graph(P, gamma, iv, ep, K)
                except (GraphBuildReject, PolytopeError):
                    rejected += 1
                    continue
                built += 1
                e, sign = (iv[0], F(1)) if ep == 0 else (iv[1], F(-1))
                order = (graph.param_chart_index,) + graph.other_chart_indices
                active = graph.chart.active
                want = [poly_compose_linear(slack_oracle(P, active[j], gamma), e, sign) for j in order]
                # the integer chart polynomials over their one denominator
                assert graph.den > 0 and all(type(c) is int for x in graph.num for c in x)
                assert chart_polys(graph) == want
                if verdict is not None:
                    assert verdict.report(f"endpoint {ep + 1}") == check_endpoint(graph, f"endpoint {ep + 1}")
        assert built >= 300 and rejected >= 50


def taylor_oracle(p, e, sign):
    """p(e + sign*tau) in tau, each power of e + sign*tau expanded by the binomial theorem."""
    out = [F(0)] * len(p)
    for k, c in enumerate(p):
        for i in range(k + 1):
            out[i] += c * comb(k, i) * F(e) ** (k - i) * sign ** i
    return poly_trim(out)


class TestChartPolynomialsDifferential:
    """The chart polynomials against the facet slacks lambda_f - <a_f, gamma(e +- tau)>,
    formed in Fractions with no interval map: the curve mapped onto (0, 1) once must give
    them at a and at b."""

    def test_random_curves_both_endpoints(self):
        rng = random.Random(30)
        names = ["cp2_3", "cp3", "hirzebruch", "unit_square"]
        built = {0: 0, 1: 0}
        for i in range(240):
            P = data_polytope(names[i % 4])
            if i % 2:
                P = translate(rng, P)
            gamma, iv = random_curve(rng, P)
            if i % 3 == 0:  # integral coefficients as ints, and uneven coordinate lengths
                gamma = [[int(c) if c.denominator == 1 else c for c in g] + [0] * (j % 2)
                         for j, g in enumerate(gamma)]
            K = random_circle(rng, P.n)
            for ep, (e, sign) in enumerate(((iv[0], 1), (iv[1], -1))):
                try:
                    graph = build_graph(P, gamma, iv, ep, K)
                except GraphBuildReject:
                    continue
                built[ep] += 1
                at_e = [taylor_oracle(g, e, sign) for g in gamma]
                order = (graph.param_chart_index,) + graph.other_chart_indices
                want = [slack_oracle(P, graph.chart.active[j], at_e) for j in order]
                assert chart_polys(graph) == want
                assert graph.x1_max == iv[1] - iv[0]
                # the endpoint lies in the chart's orthant, and the parameter starts at 0 and grows
                assert all(x[0] >= 0 for x in graph.num if x)
                assert graph.num[0][0] == 0 and graph.num[0][1] > 0
        assert min(built.values()) >= 60


class TestWorkGuard:
    """check_lift hands the root finders integer lists only, maps the scaled curve once
    and checks its input once."""

    @staticmethod
    def curves(rng, per_polytope=15):
        for name in ("cp2_3", "cp3", "hirzebruch", "unit_square"):
            P = data_polytope(name)
            for _ in range(per_polytope):
                gamma, iv = random_curve(rng, P)
                yield P, gamma, iv, random_circle(rng, P.n)

    def test_root_finders_see_integer_lists(self, monkeypatch):
        calls, found = {"isolate_root": [], "_isolate": []}, []

        def spy(name):
            real = getattr(criterion, name)

            def wrapped(p, left, right):
                calls[name].append(p)
                root = real(p, left, right)
                found.append(root is not None)
                return root
            monkeypatch.setattr(criterion, name, wrapped)
        spy("isolate_root")  # transversality
        spy("_isolate")      # the facet slacks, already mapped onto (0, 1)
        for P, gamma, iv, K in self.curves(random.Random(11)):
            check_lift(P, gamma, iv, K)
        assert len(calls["isolate_root"]) > 40 and len(calls["_isolate"]) > 100 and sum(found) > 10
        assert all(type(p) is list and all(type(c) is int for c in p) for ps in calls.values() for p in ps)

    def test_each_slack_mapped_once(self, monkeypatch):
        # the n curve coordinates, which every facet slack is read off, and the one pairing
        # <gamma', K> that transversality maps in isolate_root
        calls = []
        real = exactmath._compose_int

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(exactmath, "_compose_int", spy)
        monkeypatch.setattr(criterion, "_compose_int", spy)
        checked = 0
        for P, gamma, iv, K in self.curves(random.Random(12), 5):
            if not poly_deriv(pairing_oracle(K.K, gamma)):
                continue
            calls.clear()
            check_lift(P, gamma, iv, K)
            assert len(calls) == P.n + 1
            checked += 1
        assert checked >= 15

    def test_warm_check_lift_scans_no_vertex_record(self):
        # the default endpoint chart is kept on P by the facets tight at the endpoint, so a
        # second check_lift ending on the same faces finds its charts without iterating
        # P._vertices
        P = catalog.cp2(3)
        default = check_lift(P, DIAG, DIAG_IV, K11)
        P._vertices = NoScan(P._vertices)
        assert check_lift(P, DIAG, DIAG_IV, K11) == default
        assert check_lift(P, [poly(0, 2), poly(0, 1)], (F(0), F(1)), K10).verdict == "reject"

    def test_given_chart_vertex_scans_no_vertex_record(self):
        # a given chart vertex finds its record by the facets tight at it: on box([1] * 10),
        # once the default charts are kept, check_lift iterates none of the 1 024 records
        P, K = catalog.box([1] * 10), CircleEmbedding(range(1, 11))
        gamma, iv = [poly(0, 1)] * 5 + [poly(0, 1, -1)] * 5, (F(0), F(1))
        given = [((0,) * 10, None), (None, (1,) * 5 + (0,) * 5), ((0,) * 10, (1,) * 5 + (0,) * 5)]
        verdicts = [check_lift(P, gamma, iv, K, charts) for charts in given]
        P._vertices = NoScan(P._vertices)
        assert [check_lift(P, gamma, iv, K, charts) for charts in given] == verdicts

    def test_one_valuation_per_divided_smoothness(self, monkeypatch):
        # check_endpoint reads each checked coordinate's valuation once, for its rule and its detail
        calls = []
        monkeypatch.setattr(criterion, "valuation", lambda p: calls.append(p) or valuation(p))
        checked = 0
        for P, gamma, iv, K in [(catalog.cp2(3), DIAG, DIAG_IV, K11), (catalog.cp2(3), DIAG, DIAG_IV, K10),
                                (catalog.unit_square(), DIAG, (F(0), F(1)), CircleEmbedding((1, -3))),
                                (catalog.box([2, 1, 1]), [poly(0, 1, 1), poly(0), poly(0)], (F(0), F(1)),
                                 CircleEmbedding((1, 2, -1)))]:
            calls.clear()
            v = check_lift(P, gamma, iv, K)
            rules = [c for r in v.reports for c in r.conditions if c.condition == "divided_smoothness"]
            assert len(calls) == len(rules)
            checked += len(rules)
        assert checked >= 6

    def test_input_checked_once(self, monkeypatch):
        counts = {"_check_coefficients": 0, "_check_input": 0}

        def spy(name):
            real = getattr(criterion, name)

            def wrapped(*args):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(criterion, name, wrapped)
        for name in counts:
            spy(name)
        check_lift(catalog.cp2(3), DIAG, DIAG_IV, K11)
        assert counts == {"_check_coefficients": 1, "_check_input": 1}
