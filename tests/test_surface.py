import math
from fractions import Fraction

import numpy as np
import pytest

from toriclift.chart import CircleEmbedding
from toriclift.criterion import build_graph
from toriclift.exactmath import poly_eval
from toriclift.surface import (
    SamplerError,
    export_mesh,
    pullback_density,
    pullback_density_exact,
    sample_surface,
    smoothness_probe,
)

F = Fraction


def poly(*cs):
    return [F(c) for c in cs]


DIAG = [poly(0, 1), poly(0, 1)]
DIAG_IV = (F(0), F(3, 2))


@pytest.fixture(scope="module")
def disc_graph(cp2):
    return build_graph(cp2, DIAG, DIAG_IV, 0, CircleEmbedding((1, 1)))


@pytest.fixture(scope="module")
def cone_graph(cp2):
    return build_graph(cp2, DIAG, DIAG_IV, 0, CircleEmbedding((1, 0)))


@pytest.fixture(scope="module")
def paraboloid_graph(cp2):
    gamma = [poly(0, 1), poly(0, 0, 1)]
    return build_graph(cp2, gamma, (F(0), F(1)), 0, CircleEmbedding((1, 0)))


@pytest.fixture(scope="module")
def degenerate_graph(cp2):
    # (s, 2-s) with K = (1, 1): the pulled-back area form vanishes
    gamma = [poly(0, 1), poly(2, -1)]
    return build_graph(cp2, gamma, (F(0), F(2)), 0, CircleEmbedding((1, 1)))


class TestSampling:
    def test_grid_shape(self, disc_graph):
        s = sample_surface(disc_graph, 10, 8)
        assert s.points.shape == (10, 8, 4)
        assert s.tau.shape == (10,) and s.t.shape == (8,)

    def test_disc_point_values(self, disc_graph):
        s = sample_surface(disc_graph, 4, 4)
        # at tau = 1/2, t = 0 the diagonal disc sits at (1, 0, 1, 0)
        np.testing.assert_allclose(s.points[1, 0], [1, 0, 1, 0], atol=1e-15)
        # quarter turn with weights (1, 1)
        np.testing.assert_allclose(s.points[1, 1], [0, 1, 0, 1], atol=1e-15)

    def test_moment_consistency(self, disc_graph, paraboloid_graph):
        for graph in (disc_graph, paraboloid_graph):
            s = sample_surface(graph, 30, 12)
            for ix in (5, 17, 29):
                tau = F(s.tau[ix])
                p = s.points[ix, 0]
                for i, x in enumerate(graph.x):
                    rho = (p[2 * i] ** 2 + p[2 * i + 1] ** 2) / 2
                    assert abs(rho - float(poly_eval(x, tau))) <= 1e-12

    def test_disc_reaches_far_end(self, disc_graph):
        # the mesh runs over the whole curve, up to moment (3/2, 3/2)
        s = sample_surface(disc_graph, 9, 4)
        p = s.points[-1, 0]
        np.testing.assert_allclose((p[0::2] ** 2 + p[1::2] ** 2) / 2, [1.5, 1.5], rtol=1e-15)

    def test_rotation_equivariance(self, disc_graph):
        s = sample_surface(disc_graph, 5, 16)
        # shifting t by one grid step rotates each coordinate pair by k_j dt
        dt = 2 * math.pi / 16
        for j, k in enumerate(disc_graph.k):
            c, sn = math.cos(k * dt), math.sin(k * dt)
            x = s.points[:, :-1, 2 * j]
            y = s.points[:, :-1, 2 * j + 1]
            np.testing.assert_allclose(s.points[:, 1:, 2 * j], c * x - sn * y, atol=1e-12)
            np.testing.assert_allclose(s.points[:, 1:, 2 * j + 1], sn * x + c * y, atol=1e-12)

    def test_negative_radicand_reported(self, cp2):
        # (s, s - s^2) leaves the chart's orthant for s > 1
        graph = build_graph(cp2, [poly(0, 1), poly(0, 1, -1)], (F(0), F(2)), 0,
                            CircleEmbedding((1, 1)))
        with pytest.raises(SamplerError, match="coordinate 2"):
            sample_surface(graph, 20, 8)

    def test_empty_grid_rejected(self, disc_graph):
        with pytest.raises(SamplerError):
            sample_surface(disc_graph, 0, 8)


class TestPullbackDensity:
    def test_disc_exact_formula(self, disc_graph):
        # k1 x1'(tau) + k2 x2'(tau) = 2 on the diagonal disc
        assert pullback_density_exact(disc_graph, F(1, 2)) == F(2)

    def test_numeric_matches_exact(self, disc_graph, paraboloid_graph):
        for graph in (disc_graph, paraboloid_graph):
            for x1 in (0.3, 0.5, 0.8):
                omega, exact = pullback_density(graph, x1)
                assert abs(omega - exact) <= 1e-8 * max(1.0, abs(exact))

    def test_degenerate_vanishes(self, degenerate_graph):
        assert pullback_density_exact(degenerate_graph, F(1, 2)) == 0
        omega, exact = pullback_density(degenerate_graph, 0.5)
        assert exact == 0.0
        assert abs(omega) <= 1e-10

    def test_needs_positive_tau(self, disc_graph):
        with pytest.raises(SamplerError):
            pullback_density(disc_graph, 0.0)


class TestSmoothnessProbe:
    def test_disc_planar(self, disc_graph):
        assert smoothness_probe(disc_graph).kind == "planar"

    def test_cone_conelike(self, cone_graph):
        res = smoothness_probe(cone_graph)
        assert res.kind == "conelike"
        assert res.ratio >= 0.9

    def test_paraboloid_planar(self, paraboloid_graph):
        res = smoothness_probe(paraboloid_graph)
        assert res.kind == "planar"
        assert res.residual_fine < res.residual_coarse

    def test_too_few_points_inconclusive(self, disc_graph):
        assert smoothness_probe(disc_graph, nx=3, nt=2).kind == "inconclusive"


class TestExport:
    def test_csv_deterministic(self, disc_graph, tmp_path):
        s = sample_surface(disc_graph, 6, 5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_mesh(s, "csv", p1)
        export_mesh(s, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "tau,t,p1,p2,p3,p4"
        assert len(lines) == 1 + 6 * 5

    def test_obj_topology(self, disc_graph, tmp_path):
        s = sample_surface(disc_graph, 6, 5)
        out = tmp_path / "m.obj"
        export_mesh(s, "obj", out)
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 30
        assert sum(1 for l in lines if l.startswith("f ")) == 5 * 5
        # every face references valid 1-based vertices
        for l in lines:
            if l.startswith("f "):
                idx = [int(w) for w in l.split()[1:]]
                assert all(1 <= i <= 30 for i in idx)

    def test_bad_projection_rejected(self, disc_graph, tmp_path):
        s = sample_surface(disc_graph, 3, 3)
        with pytest.raises(SamplerError):
            export_mesh(s, "obj", tmp_path / "x.obj", project=(0, 1, 9))

    def test_unknown_format_rejected(self, disc_graph, tmp_path):
        s = sample_surface(disc_graph, 3, 3)
        with pytest.raises(SamplerError):
            export_mesh(s, "ply", tmp_path / "x.ply")
