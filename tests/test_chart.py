import copy
import itertools
import random
import re
from fractions import Fraction

import pytest

from conftest import CATALOG, chart_polys
from toriclift import catalog, chart, criterion, exactmath, polytope
from toriclift.chart import CircleEmbedding, from_chart
from toriclift.criterion import GraphBuildReject, build_graph, check_lift
from toriclift.exactmath import dot, poly_add, poly_compose_linear, poly_scale, poly_sub
from toriclift.polytope import (
    HPolytope,
    PolytopeError,
    enumerate_vertices,
    face_lattice,
    format_point,
    validate_delzant,
)

F = Fraction


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


POLYTOPES = {**{name: build() for name, build in CATALOG.items()}, "box3": catalog.box([2, 1, F(3, 2)])}
DELZANT = [name for name, P in POLYTOPES.items() if validate_delzant(P).ok]


def vertex_chart(P, v):
    """The chart at the vertex v, built by `_chart` from the facets tight at v."""
    return chart._chart(P, tuple(v), polytope._tight(P, v))


def to_chart(chart, p):
    """Chart coordinates: the slacks lambda_f - <a_f, p> of the active facets."""
    P, p = chart.polytope, [F(x) for x in p]
    return tuple(P.offsets[f] - dot(P.normals[f], p) for f in chart.active)


def mean(points):
    return tuple(sum(c) / len(points) for c in zip(*points))


def vertex_weights(P, v, rho):
    """The chart at the vertex v and the circle weights `build_graph` reads there, in chart
    order: along the chord from v to the mean of P's vertices every chart coordinate grows,
    so the parameter is chart coordinate 1."""
    end = mean([w for w, _ in enumerate_vertices(P)])
    graph = build_graph(P, [[a, b - a] for a, b in zip(v, end)], (0, 1), 0, rho)
    assert graph.chart.vertex == tuple(v) and graph.param_chart_index == 0
    return graph.chart, graph.k


def chord(P, face, rng=None):
    """A curve on [0, 1] from the barycentre of the face into P; with rng, plus random
    s^2 and s^3 terms, which leave the endpoint at s = 0 and its tangent unchanged."""
    start, end = mean(face.vertices), mean([v for v, _ in enumerate_vertices(P)])
    gamma = [[a, b - a] for a, b in zip(start, end)]
    if rng is not None:
        gamma = [c + [F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 5)] for c in gamma]
    return gamma


class TestCircleEmbedding:
    def test_primitivized(self):
        assert CircleEmbedding((2, 4)).K == (1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            CircleEmbedding((0, 0))

    def test_sign_kept(self):
        assert CircleEmbedding((-3, 0)).K == (-1, 0)

    def test_repr_shows_the_primitive_direction(self):
        assert repr(CircleEmbedding((2, -4))) == "CircleEmbedding((1, -2))"

    @pytest.mark.parametrize("K,bad", [((0.5, 1), "0.5"), ((F(1), 1), "Fraction(1, 1)"), ((1, True), "True"),
                                       ((1, None), "None")], ids=["float", "fraction", "bool", "none"])
    def test_entry_not_an_int_rejected(self, K, bad):
        # (0.5, 1) was truncated to the direction (0, 1); a None entry reached gcd's TypeError
        with pytest.raises(ValueError, match=re.escape(f"circle direction {K}: expected integers, got {bad}")):
            CircleEmbedding(K)


class TestMakeChart:
    def test_origin_chart_is_identity(self, cp2):
        ch = vertex_chart(cp2, (F(0), F(0)))
        assert ch.columns == ((1, 0), (0, 1))
        assert ch.inverse == ((F(1), F(0)), (F(0), F(1)))

    def test_far_vertex(self, cp2):
        ch = vertex_chart(cp2, (F(3), F(0)))
        assert set(ch.columns) == {(-1, 1), (-1, 0)}

    # a chart vertex is given only through the criterion, which finds its vertex record by the
    # facets tight at it and checks that it lies on the endpoint's face: a point that is no such
    # vertex is malformed input
    EDGE_START = [[1, 1], [0, 1]]  # from (1, 0) on the edge y = 0, whose vertices are (0, 0) and (3, 0)
    OUTSIDE_START = [[-1, 1], [0, 1]]  # from (-1, 0), outside P: no endpoint face to look in
    NOT_A_VERTEX = "is not a vertex of P"
    NOT_IN_FACE = "is not a vertex of the endpoint face"

    def given_chart_entries(self, cp2, o):
        # a point that is no vertex of P is named before the curve is read, by both entries and
        # at either end: build_graph checks the other endpoint's chart vertex too
        K = CircleEmbedding((1, 1))
        for gamma, charts in itertools.product((self.EDGE_START, self.OUTSIDE_START), ((o, None), (None, o))):
            yield check_lift, (cp2, gamma, (0, 1), K, charts)
            yield build_graph, (cp2, gamma, (0, 1), 0, K, charts)

    def test_non_vertex_rejected(self, cp2):
        for entry, args in self.given_chart_entries(cp2, (F(1), F(0))):
            with pytest.raises(PolytopeError, match=f"^{re.escape(f'chart vertex (1, 0) {self.NOT_A_VERTEX}')}$"):
                entry(*args)

    def test_outside_point_rejected(self, cp2):
        for entry, args in self.given_chart_entries(cp2, (F(4), F(0))):
            with pytest.raises(PolytopeError, match=f"^{re.escape(f'chart vertex (4, 0) {self.NOT_A_VERTEX}')}$"):
                entry(*args)

    def test_vertex_off_the_face_rejected(self, cp2):
        # (0, 3) is a vertex of P, but not of the edge y = 0 where the curve starts
        K, message = CircleEmbedding((1, 1)), f"^{re.escape(f'chart vertex (0, 3) {self.NOT_IN_FACE}')}$"
        for entry, args in ((check_lift, (cp2, self.EDGE_START, (0, 1), K, ((0, 3), None))),
                            (build_graph, (cp2, self.EDGE_START, (0, 1), 0, K, ((0, 3), None)))):
            with pytest.raises(PolytopeError, match=message):
                entry(*args)

    @pytest.mark.parametrize("charts", [((0, 0),), (None, None, (0, 0)), ()], ids=["one", "three", "none"])
    def test_chart_vertex_count_rejected(self, cp2, charts):
        # one entry per endpoint: another count is named, where it raised IndexError
        K = CircleEmbedding((1, 1))
        for entry, args in ((check_lift, (cp2, self.EDGE_START, (0, 1), K, charts)),
                            (build_graph, (cp2, self.EDGE_START, (0, 1), 0, K, charts))):
            message = f"^{entry.__name__}: chart_vertices: expected two entries, got {len(charts)}$"
            with pytest.raises(ValueError, match=message):
                entry(*args)

    @pytest.mark.parametrize("charts,message", [
        (None, "chart_vertices: expected a sequence of two entries, got None"),
        (5, "chart_vertices: expected a sequence of two entries, got 5"),
        (((0, 0), 5), "chart_vertices[1]: expected a point or None, got 5"),
        ((None, 0), "chart_vertices[1]: expected a point or None, got 0"),
    ], ids=["none", "int", "int-entry", "zero-entry"])
    def test_chart_vertices_not_a_pair_of_points_rejected(self, cp2, charts, message):
        # each raised a TypeError from len() or from iterating the entry
        K = CircleEmbedding((1, 1))
        for entry, args in ((check_lift, (cp2, self.EDGE_START, (0, 1), K, charts)),
                            (build_graph, (cp2, self.EDGE_START, (0, 1), 0, K, charts))):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{entry.__name__}: {message}')}$"):
                entry(*args)

    @pytest.mark.parametrize("make", [iter, lambda p: (x for x in p), list], ids=["iterator", "generator", "list"])
    def test_chart_vertex_read_once(self, cp2, make):
        # an entry that iterates once is read as the point it yields, at either end, where an
        # iterator or a generator raised "has no len()"; EDGE_START ends at (2, 1) on x + y = 3
        K = CircleEmbedding((1, 1))
        for charts in (((0, 0), None), (None, (3, 0))):
            given = tuple(None if o is None else make(o) for o in charts)
            assert check_lift(cp2, self.EDGE_START, (0, 1), K, given) == check_lift(cp2, self.EDGE_START, (0, 1), K, charts)
            for ep in (0, 1):
                given = tuple(None if o is None else make(o) for o in charts)
                assert build_graph(cp2, self.EDGE_START, (0, 1), ep, K, given) \
                    == build_graph(cp2, self.EDGE_START, (0, 1), ep, K, charts)

    def test_wrong_length_rejected(self, cp2):
        # named before any work, as the curve and the circle are
        for o in ((F(0),), (0, 0, 0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"the polytope has dimension 2, but chart vertex {format_point(o)} has length {len(o)}")):
                check_lift(cp2, self.EDGE_START, (0, 1), CircleEmbedding((1, 1)), (o, None))

    def test_non_simple_vertex_rejected(self):
        # |x| + |y| + |z| <= 1: four facets meet at every vertex, given in Fractions or ints
        octahedron = HPolytope(3, list(itertools.product((1, -1), repeat=3)), [1] * 8)
        for o in ((F(1), F(0), F(0)), (0, 0, -1)):
            with pytest.raises(PolytopeError,
                               match=f"^{re.escape(f'vertex {format_point(o)} is not simple: 4 active facets')}$"):
                vertex_chart(octahedron, o)

    def test_int_point_gives_the_fraction_chart(self, cp2):
        # the point finds its record by the facets tight at it, so its ints and its Fractions
        # give one chart, which keeps the vertex as Fractions
        for o in ((0, 0), (3, 0), (0, 3)):
            ints, fractions = vertex_chart(cp2, o), vertex_chart(cp2, tuple(map(F, o)))
            assert ints == fractions and repr(ints) == repr(fractions)
            assert ints.vertex == o and all(type(x) is F for x in ints.vertex)

    @pytest.mark.parametrize("name,o", [("cp2", (1, 0)), ("cp2", (4, 0)), ("cp2", (F(1, 2), F(1, 2))),
                                        ("cp2", (-1, -1)), ("hirzebruch", (0, 2))],
                             ids=["edge", "outside", "inside", "outside-none-tight", "two-facets-outside"])
    def test_point_that_is_no_vertex(self, request, name, o):
        # no facet key of a vertex: a point inside an edge, inside P or outside it, and (0, 2),
        # where the hirzebruch facets x = 0 and x + y = 2 meet outside P
        with pytest.raises(PolytopeError, match=f"^{re.escape(f'chart vertex {format_point(o)} {self.NOT_A_VERTEX}')}$"):
            vertex_chart(request.getfixturevalue(name), o)

    def test_default_chart_takes_no_slack(self, monkeypatch):
        # a default chart is read from the vertex record that holds the endpoint's tight facets, so
        # it takes no facet slack at its vertex; a given chart vertex takes them, once
        gamma, K = [[0, 1]] * 4, CircleEmbedding((1, 0, 0, 0))  # from the corner 0 to the corner 1
        expected = check_lift(catalog.box([1] * 4), gamma, (0, 1), K).to_dict()
        points = []

        def refuse(P, r):
            points.append(r)
            raise AssertionError("slacks taken at a point")
        monkeypatch.setattr(polytope, "_tight", refuse)
        monkeypatch.setattr(criterion, "_tight", refuse)
        P = catalog.box([1] * 4)
        assert not P._endpoint_charts and check_lift(P, gamma, (0, 1), K).to_dict() == expected
        assert not points and len(P._endpoint_charts) == 2
        with pytest.raises(AssertionError, match="slacks taken at a point"):
            check_lift(P, gamma, (0, 1), K, (None, (1, 1, 1, 1)))
        assert points == [(1, 1, 1, 1)]

    def test_memo_read_with_int_coordinates(self):
        # a given chart vertex in ints finds the same chart as its Fractions and as the
        # kept default chart; the chart keeps its vertex as Fractions
        P, K = catalog.cp2(3), CircleEmbedding((1, 1))
        kept = build_graph(P, self.EDGE_START, (0, 1), 0, K).chart
        for o in ((0, 0), [0, 0], (F(0), F(0))):
            ch = build_graph(P, self.EDGE_START, (0, 1), 0, K, (o, None)).chart
            assert ch == kept and all(type(x) is F for x in ch.vertex)
        ch = build_graph(P, self.EDGE_START, (0, 1), 0, K, ((3, 0), None)).chart
        assert ch.vertex == (F(3), F(0)) and all(type(x) is F for x in ch.vertex)

    def test_bad_vertex_rejected(self, bad_triangle):
        with pytest.raises(PolytopeError, match=re.escape("vertex (1, 0) is not Delzant: |det U| = 2")):
            vertex_chart(bad_triangle, (F(1), F(0)))

    def test_charts_leave_no_state_on_the_polytope(self):
        # the criterion's two memos are all that a query keeps on P: after a warm check_lift,
        # a build_graph and a check_lift with given chart vertices leave P as they found it
        P, gamma, K = catalog.cp2(3), [[0, 1], [0, 0, 0, 2]], CircleEmbedding((1, 1))
        check_lift(P, gamma, (0, 1), K)
        before = {name: copy.copy(value) for name, value in vars(P).items()}
        assert build_graph(P, gamma, (0, 1), 1, K, (None, (3, 0))).chart.active == (1, 2)
        assert check_lift(P, gamma, (0, 1), K, ((0, 0), (0, 3))).verdict == "accept"
        assert vars(P) == before

    def test_warm_check_lift_hashes_no_fraction(self, monkeypatch):
        # the endpoint charts are kept by their sorted active facets, so a warm check_lift
        # reads both without hashing a vertex's Fractions
        P, gamma, K = catalog.cp2(3), [[0, 1], [0, 0, 0, 2]], CircleEmbedding((1, 1))
        assert check_lift(P, gamma, (0, 1), K).verdict == "accept"
        hashes, real = [], F.__hash__
        monkeypatch.setattr(F, "__hash__", lambda x: hashes.append(x) or real(x))
        assert check_lift(P, gamma, (0, 1), K).verdict == "accept"
        assert hashes == []

    def test_delzant_vertex_takes_no_determinant(self, monkeypatch):
        # the walk's D = det A_S decides unimodularity; only a rejection words |det U|
        calls = []
        monkeypatch.setattr(chart, "int_det", lambda A: calls.append(A) or exactmath.int_det(A))
        for P in (catalog.cp2(3), catalog.cp3(), catalog.hirzebruch(), catalog.box([1, 2, 3])):
            for v, _ in enumerate_vertices(P):
                vertex_chart(P, v)
        assert calls == []
        with pytest.raises(PolytopeError, match=re.escape("|det U| = 2")):
            vertex_chart(catalog.non_delzant_triangle(), (F(1), F(0)))
        assert len(calls) == 1

    @pytest.mark.parametrize("P", POLYTOPES.values(), ids=POLYTOPES)
    def test_inverse_exact_at_every_delzant_vertex(self, P):
        for verdict in validate_delzant(P).verdicts:
            if not verdict.smooth:
                continue
            ch = vertex_chart(P, verdict.vertex)
            U = [[ch.columns[j][i] for j in range(P.n)] for i in range(P.n)]
            product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*ch.inverse)] for row in U]
            assert product == identity_matrix(P.n)


class TestCoordinateMaps:
    def test_example_transform(self, cp2):
        ch = vertex_chart(cp2, (F(3), F(0)))
        x = to_chart(ch, (F(3, 2), F(3, 2)))
        assert from_chart(ch, x) == (F(3, 2), F(3, 2))

    def test_vertex_maps_to_zero(self, cp2, hirzebruch):
        for P in (cp2, hirzebruch):
            for v, _ in enumerate_vertices(P):
                ch = vertex_chart(P, v)
                assert to_chart(ch, v) == (F(0),) * P.n

    def test_round_trip_random(self, cp2):
        rng = random.Random(3)
        for v, _ in enumerate_vertices(cp2):
            ch = vertex_chart(cp2, v)
            for _ in range(20):
                p = (F(rng.randint(-9, 9), 7), F(rng.randint(-9, 9), 7))
                assert from_chart(ch, to_chart(ch, p)) == p

    @pytest.mark.parametrize("P", POLYTOPES.values(), ids=POLYTOPES)
    def test_round_trip_every_delzant_vertex(self, P):
        rng = random.Random(11)
        for ch in [vertex_chart(P, v.vertex) for v in validate_delzant(P).verdicts if v.smooth]:
            assert to_chart(ch, ch.vertex) == (0,) * P.n
            for _ in range(10):
                p = tuple(F(rng.randint(-9, 9), 7) for _ in range(P.n))
                assert from_chart(ch, to_chart(ch, p)) == p
                x = tuple(F(rng.randint(-9, 9), 5) for _ in range(P.n))
                assert to_chart(ch, from_chart(ch, x)) == x

    def test_cone_nonnegative_inside(self, cp2):
        # points of the polytope land in the nonnegative orthant of the chart
        ch = vertex_chart(cp2, (F(3), F(0)))
        for p in ((F(1), F(1)), (F(0), F(0)), (F(3, 2), F(3, 2))):
            assert all(x >= 0 for x in to_chart(ch, p))


class TestLocalWeights:
    def test_origin(self, cp2):
        assert vertex_weights(cp2, (F(0), F(0)), CircleEmbedding((1, 1)))[1] == (1, 1)

    def test_far_vertex(self, cp2):
        ch, w = vertex_weights(cp2, (F(3), F(0)), CircleEmbedding((1, 1)))
        assert w == tuple(dot(u, (1, 1)) for u in ch.columns)

    def test_covariance_under_basis(self, cp2, hirzebruch):
        # weights are exactly the pairings of the chart columns with K
        for P in (cp2, hirzebruch):
            for v, _ in enumerate_vertices(P):
                for K in ((1, 0), (0, 1), (2, -3)):
                    rho = CircleEmbedding(K)
                    ch, w = vertex_weights(P, v, rho)
                    assert w == tuple(dot(u, rho.K) for u in ch.columns)


class TestQSet:
    """The face coordinates Q of an endpoint graph: the positions whose facet is
    not tight at the endpoint.  In cp2 the chart at the origin has coordinate 0
    along the x-edge and coordinate 1 along the y-edge."""

    K = CircleEmbedding((1, 1))

    def face_chart_indices(self, P, gamma, chart_vertex=None):
        graph = build_graph(P, gamma, (F(0), F(1)), 0, self.K, (chart_vertex, None))
        return {graph.other_chart_indices[pos - 2] for pos in graph.Q}

    def test_vertex_itself_empty(self, cp2):
        assert self.face_chart_indices(cp2, [[0, 1], [0, 1]]) == set()

    def test_edge_point(self, cp2):
        # (1, 0) sits on the facet with normal (0, -1); the x-edge spans it
        assert self.face_chart_indices(cp2, [[1], [0, 1]]) == {0}

    def test_other_edge(self, cp2):
        assert self.face_chart_indices(cp2, [[0, 1], [2]]) == {1}

    def test_interior_rejected(self, cp2):
        with pytest.raises(GraphBuildReject, match="endpoint_interior"):
            self.face_chart_indices(cp2, [[1, 1], [1, 1]])

    def test_wrong_chart_rejected(self, cp2):
        # the diagonal facet does not touch the origin vertex
        with pytest.raises(PolytopeError, match=r"^chart vertex \(0, 0\) is not a vertex of the endpoint face$"):
            self.face_chart_indices(cp2, [[F(3, 2), -1], [F(3, 2), -1]], (0, 0))

    def test_size_matches_face_dimension(self, cp2, hirzebruch):
        # a chord from each proper face's barycentre, in the chart of each vertex of the face
        for P in (cp2, hirzebruch, POLYTOPES["box3"]):
            for face in face_lattice(P):
                if not face.active:
                    continue
                for o in face.vertices:
                    graph = build_graph(P, chord(P, face), (F(0), F(1)), 0, CircleEmbedding((1,) * P.n), (o, None))
                    assert len(graph.Q) == face.dim


def _inverse(M):
    """Exact inverse of a square integer matrix by Gauss-Jordan elimination."""
    n = len(M)
    A = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        r = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[r] = A[r], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                A[r] = [x - A[r][c] * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


class TestGraphAgainstEdgeBasis:
    """The chart polynomials against U^{-1}(gamma(e + sign*tau) - o), with U^{-1} inverted
    here from chart.columns."""

    @pytest.mark.parametrize("name", DELZANT)
    def test_random_chords(self, name):
        P, rng, checked = POLYTOPES[name], random.Random(7), 0
        faces = [f for f in face_lattice(P) if f.active]
        for _ in range(30):
            face = rng.choice(faces)
            gamma = chord(P, face, rng)
            endpoint = rng.randint(0, 1)
            if endpoint:  # the same chord run backwards, so it ends at s = 1
                gamma = [poly_compose_linear(c, F(1), F(-1)) for c in gamma]
            o = rng.choice(face.vertices)
            try:
                charts = (o, None) if endpoint == 0 else (None, o)
                graph = build_graph(P, gamma, (F(0), F(1)), endpoint, CircleEmbedding((1,) * P.n), charts)
            except GraphBuildReject:
                continue
            ch = graph.chart
            U = [[ch.columns[j][i] for j in range(P.n)] for i in range(P.n)]
            e, sign = (F(0), F(1)) if endpoint == 0 else (F(1), F(-1))
            diff = [poly_sub(poly_compose_linear(c, e, sign), [o[j]]) for j, c in enumerate(gamma)]
            oracle = []
            for row in _inverse(U):
                acc = []
                for j in range(P.n):
                    acc = poly_add(acc, poly_scale(diff[j], row[j]))
                oracle.append(acc)
            order = (graph.param_chart_index,) + graph.other_chart_indices
            assert chart_polys(graph) == [oracle[j] for j in order]
            assert [list(r) for r in ch.inverse] == _inverse(U)
            checked += 1
        assert checked >= 20


class TestPairingInvariance:
    def test_tangent_pairing_matches_weights(self, cp2):
        # <v, K> computed in ambient coordinates equals sum_j x_j * k_j where
        # x = U^{-1} v are the chart components of the tangent vector
        rng = random.Random(5)
        for v, _ in enumerate_vertices(cp2):
            for K in ((1, 1), (1, 0), (2, -1)):
                rho = CircleEmbedding(K)
                ch, k = vertex_weights(cp2, v, rho)
                for _ in range(10):
                    vec = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                    comp = [sum(row[j] * vec[j] for j in range(2)) for row in ch.inverse]
                    assert dot(vec, rho.K) == sum(c * w for c, w in zip(comp, k))
