import random
from fractions import Fraction

import pytest

from toriclift import catalog
from toriclift.chart import (
    CircleEmbedding,
    from_chart,
    local_weights,
    make_chart,
    q_set,
    to_chart,
)
from toriclift.exactmath import dot, identity_matrix
from toriclift.polytope import (
    PolytopeError,
    enumerate_vertices,
    face_lattice,
    minimal_face,
    validate_delzant,
)

F = Fraction


class TestCircleEmbedding:
    def test_primitivized(self):
        assert CircleEmbedding((2, 4)).K == (1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            CircleEmbedding((0, 0))

    def test_sign_kept(self):
        assert CircleEmbedding((-3, 0)).K == (-1, 0)


class TestMakeChart:
    def test_origin_chart_is_identity(self, cp2):
        ch = make_chart(cp2, (F(0), F(0)))
        assert ch.columns == ((1, 0), (0, 1))
        assert ch.inverse == ((F(1), F(0)), (F(0), F(1)))

    def test_far_vertex(self, cp2):
        ch = make_chart(cp2, (F(3), F(0)))
        assert set(ch.columns) == {(-1, 1), (-1, 0)}

    def test_non_vertex_rejected(self, cp2):
        with pytest.raises(PolytopeError):
            make_chart(cp2, (F(1), F(0)))

    def test_bad_vertex_rejected(self, bad_triangle):
        for _ in range(2):  # a rejected vertex is not memoised
            with pytest.raises(PolytopeError, match=r"\|det U\| = 2"):
                make_chart(bad_triangle, (F(1), F(0)))

    @pytest.mark.parametrize("P", [
        *(build() for build in catalog.CATALOG.values()),
        catalog.box([2, 1, F(3, 2)]),
    ], ids=[*catalog.CATALOG, "box3"])
    def test_inverse_exact_at_every_delzant_vertex(self, P):
        for verdict in validate_delzant(P).verdicts:
            if not verdict.smooth:
                continue
            ch = make_chart(P, verdict.vertex)
            U = [[ch.columns[j][i] for j in range(P.n)] for i in range(P.n)]
            product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*ch.inverse)] for row in U]
            assert product == identity_matrix(P.n)


class TestCoordinateMaps:
    def test_example_transform(self, cp2):
        ch = make_chart(cp2, (F(3), F(0)))
        x = to_chart(ch, (F(3, 2), F(3, 2)))
        assert from_chart(ch, x) == (F(3, 2), F(3, 2))

    def test_vertex_maps_to_zero(self, cp2, hirzebruch):
        for P in (cp2, hirzebruch):
            for v, _ in enumerate_vertices(P):
                ch = make_chart(P, v)
                assert to_chart(ch, v) == (F(0),) * P.n

    def test_round_trip_random(self, cp2):
        rng = random.Random(3)
        for v, _ in enumerate_vertices(cp2):
            ch = make_chart(cp2, v)
            for _ in range(20):
                p = (F(rng.randint(-9, 9), 7), F(rng.randint(-9, 9), 7))
                assert from_chart(ch, to_chart(ch, p)) == p

    def test_cone_nonnegative_inside(self, cp2):
        # points of the polytope land in the nonnegative orthant of the chart
        ch = make_chart(cp2, (F(3), F(0)))
        for p in ((F(1), F(1)), (F(0), F(0)), (F(3, 2), F(3, 2))):
            assert all(x >= 0 for x in to_chart(ch, p))


class TestLocalWeights:
    def test_origin(self, cp2):
        ch = make_chart(cp2, (F(0), F(0)))
        assert local_weights(ch, CircleEmbedding((1, 1))) == (1, 1)

    def test_far_vertex(self, cp2):
        ch = make_chart(cp2, (F(3), F(0)))
        w = local_weights(ch, CircleEmbedding((1, 1)))
        assert sorted(w) == sorted(dot(u, (1, 1)) for u in ch.columns)

    def test_covariance_under_basis(self, cp2, hirzebruch):
        # weights are exactly the pairings of the chart columns with K
        for P in (cp2, hirzebruch):
            for v, _ in enumerate_vertices(P):
                ch = make_chart(P, v)
                for K in ((1, 0), (0, 1), (2, -3)):
                    rho = CircleEmbedding(K)
                    assert local_weights(ch, rho) == tuple(dot(u, rho.K) for u in ch.columns)


class TestQSet:
    def test_vertex_itself_empty(self, cp2):
        ch = make_chart(cp2, (F(0), F(0)))
        assert q_set(ch, minimal_face(cp2, (F(0), F(0)))) == frozenset()

    def test_edge_point(self, cp2):
        # (1, 0) sits on the facet with normal (0, -1); the x-edge spans it
        ch = make_chart(cp2, (F(0), F(0)))
        assert q_set(ch, minimal_face(cp2, (F(1), F(0)))) == frozenset({0})

    def test_other_edge(self, cp2):
        ch = make_chart(cp2, (F(0), F(0)))
        assert q_set(ch, minimal_face(cp2, (F(0), F(2)))) == frozenset({1})

    def test_interior_rejected(self, cp2):
        ch = make_chart(cp2, (F(0), F(0)))
        with pytest.raises(PolytopeError):
            q_set(ch, minimal_face(cp2, (F(1), F(1))))

    def test_wrong_chart_rejected(self, cp2):
        # the diagonal facet does not touch the origin vertex
        ch = make_chart(cp2, (F(0), F(0)))
        with pytest.raises(PolytopeError, match="re-chart"):
            q_set(ch, minimal_face(cp2, (F(3, 2), F(3, 2))))

    def test_size_matches_face_dimension(self, cp2, hirzebruch):
        for P in (cp2, hirzebruch):
            for f in face_lattice(P):
                if not f.active:
                    continue
                ch = make_chart(P, f.vertices[0])
                assert len(q_set(ch, f)) == f.dim


class TestPairingInvariance:
    def test_tangent_pairing_matches_weights(self, cp2):
        # <v, K> computed in ambient coordinates equals sum_j x_j * k_j where
        # x = U^{-1} v are the chart components of the tangent vector
        rng = random.Random(5)
        for v, _ in enumerate_vertices(cp2):
            ch = make_chart(cp2, v)
            for K in ((1, 1), (1, 0), (2, -1)):
                rho = CircleEmbedding(K)
                k = local_weights(ch, rho)
                for _ in range(10):
                    vec = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                    comp = [sum(row[j] * vec[j] for j in range(2)) for row in ch.inverse]
                    assert dot(vec, rho.K) == sum(c * w for c, w in zip(comp, k))
