from fractions import Fraction
from math import comb

import pytest

from toriclift import catalog
from toriclift.chart import CircleEmbedding
from toriclift.criterion import (
    GraphBuildReject,
    build_graph,
    check_endpoint,
    check_interior,
    check_lift,
    check_transversality,
)
from toriclift.polytope import PolytopeError

F = Fraction


def poly(*cs):
    return [F(c) for c in cs]


DIAG = [poly(0, 1), poly(0, 1)]          # gamma(s) = (s, s)
DIAG_IV = (F(0), F(3, 2))
K11 = CircleEmbedding((1, 1))
K10 = CircleEmbedding((1, 0))


class TestBuildGraph:
    def test_diagonal_at_origin(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 0, K11)
        assert gr.chart.vertex == (F(0), F(0))
        assert gr.k == (1, 1)
        assert gr.Q == frozenset()
        assert gr.x == ([F(0), F(1)], [F(0), F(1)])  # x_1 = x_2 = tau
        assert gr.x1_max == F(3, 2)

    def test_diagonal_at_facet_endpoint(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 1, K11, chart_vertex=(F(3), F(0)))
        assert gr.Q == frozenset({2})
        assert gr.k == (-1, 0)
        assert gr.x == ([F(0), F(2)], [F(3, 2), F(-1)])

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
        with pytest.raises(PolytopeError):
            build_graph(cp2, DIAG, DIAG_IV, 0, K11, chart_vertex=(F(3), F(0)))

    def test_empty_interval_rejected(self, cp2):
        with pytest.raises(ValueError):
            build_graph(cp2, DIAG, (F(1), F(1)), 0, K11)

    def test_singular_parametrization_rejected(self, cp2):
        gamma = [poly(0, 0, 1), poly(0, 0, 1)]
        with pytest.raises(GraphBuildReject) as exc:
            build_graph(cp2, gamma, (F(0), F(1)), 0, K11)
        assert exc.value.reason == "singular_parametrisation"

    def test_parabola_graph(self, cp2):
        # gamma(s) = (s, s^2) at the origin: x_2(tau) = tau^2
        gamma = [poly(0, 1), poly(0, 0, 1)]
        gr = build_graph(cp2, gamma, (F(0), F(1)), 0, CircleEmbedding((1, 2)))
        assert gr.k == (1, 2)
        assert gr.x[1] == [F(0), F(0), F(1)]


class TestTransversality:
    def test_diagonal_holds(self):
        assert check_transversality(DIAG, K11, DIAG_IV).status == "holds"

    def test_degenerate_orthogonal(self):
        rep = check_transversality(DIAG, CircleEmbedding((1, -1)), DIAG_IV)
        assert rep.status == "fails"
        assert "identically zero" in rep.conditions[0].detail

    def test_interior_zero_with_witness(self):
        gamma = [poly(0, 1), poly(0, 0, 1)]
        rep = check_transversality(gamma, CircleEmbedding((1, -1)), (F(0), F(1)))
        assert rep.status == "fails"
        assert "vanishes" in rep.conditions[0].detail

    def test_leftmost_zero_detail(self):
        # <gamma', K> = (s - 1/5)(s - 3/5): the report brackets the zero at 1/5
        gamma = [poly(0, F(3, 25), F(-2, 5), F(1, 3)), poly(0, 1)]
        rep = check_transversality(gamma, K10, (F(0), F(1)))
        assert rep.conditions[0].detail == "pairing vanishes in (51/256, 205/1024)"

    def test_endpoint_zero_allowed(self):
        # <gamma', K> = 1 - s vanishes only at the right endpoint
        gamma = [poly(0, 1), poly(0, 1, F(-1, 2))]
        rep = check_transversality(gamma, CircleEmbedding((0, 1)), (F(0), F(1)))
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
        gr = build_graph(cp2, DIAG, DIAG_IV, 1, K11, chart_vertex=(F(3), F(0)))
        rep = check_endpoint(gr)
        assert rep.status == "holds"
        names = [c.condition for c in rep.conditions]
        assert names == ["k1_nonzero", "face_weight_vanishes"]

    def test_nonzero_face_weight_fails(self, cp2):
        gr = build_graph(cp2, DIAG, DIAG_IV, 1, CircleEmbedding((2, 1)),
                         chart_vertex=(F(3), F(0)))
        rep = check_endpoint(gr)
        assert any(c.condition == "face_weight_vanishes" and c.outcome == "fails"
                   for c in rep.conditions)


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
            build_graph(cp2, gamma, DIAG_IV, 1, K, charts[1])

    def test_verdict_in_dict(self, cp2):
        d = check_lift(cp2, DIAG, DIAG_IV, K11).to_dict()
        assert d["verdict"] == "accept"
        assert all({"name", "status", "conditions"} <= set(r) for r in d["reports"])


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
