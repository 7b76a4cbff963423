import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chart_polys, poly_eval
from toriclift import catalog, surface
from toriclift.chart import CircleEmbedding
from toriclift.criterion import build_graph
from toriclift.exactmath import poly_deriv
from toriclift.surface import (
    ProbeResult,
    SamplerError,
    SurfaceSample,
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
def space_graph():
    # n = 3: (s, s^2, s + s^2) in CP^3 with K = (1, 0, 1)
    gamma = [poly(0, 1), poly(0, 0, 1), poly(0, 1, 1)]
    return build_graph(catalog.cp3(), gamma, (F(0), F(1, 4)), 0, CircleEmbedding((1, 0, 1)))


@pytest.fixture(scope="module")
def degenerate_graph(cp2):
    # (s, 2-s) with K = (1, 1): the pulled-back area form vanishes
    gamma = [poly(0, 1), poly(2, -1)]
    return build_graph(cp2, gamma, (F(0), F(2)), 0, CircleEmbedding((1, 1)))


FIXTURES = ["disc", "cone", "paraboloid", "space", "degenerate"]


# The exact bytes export_mesh writes for a 3 x 4 grid of values every
# platform computes alike (sevenths, a signed zero, extreme exponents), so
# a change of writer cannot drift the formats.
GOLDEN_CSV = (
    "tau,t,p1,p2,p3,p4\n"
    "0,0,-0,1e-300,6.123233995736766e-17,1e+21\n"
    "0,1.5707963267948966,-2.2857142857142856,-2.1428571428571428,-2,-1.8571428571428572\n"
    "0,3.1415926535897931,-1.7142857142857142,-1.5714285714285714,-1.4285714285714286,-1.2857142857142858\n"
    "0,4.7123889803846897,-1.1428571428571428,-1,-0.8571428571428571,-0.7142857142857143\n"
    "0.10000000000000001,0,-0.5714285714285714,-0.42857142857142855,-0.2857142857142857,-0.14285714285714285\n"
    "0.10000000000000001,1.5707963267948966,0,0.14285714285714285,0.2857142857142857,0.42857142857142855\n"
    "0.10000000000000001,3.1415926535897931,0.5714285714285714,0.7142857142857143,0.8571428571428571,1\n"
    "0.10000000000000001,4.7123889803846897,1.1428571428571428,1.2857142857142858,1.4285714285714286,1.5714285714285714\n"
    "1.5,0,1.7142857142857142,1.8571428571428572,2,2.1428571428571428\n"
    "1.5,1.5707963267948966,2.2857142857142856,2.4285714285714284,2.5714285714285716,2.7142857142857144\n"
    "1.5,3.1415926535897931,2.8571428571428572,3,3.1428571428571428,3.2857142857142856\n"
    "1.5,4.7123889803846897,3.4285714285714284,3.5714285714285716,3.7142857142857144,3.8571428571428572\n"
)
GOLDEN_OBJ_VERTICES = (
    "v -0 1e-300 6.123233995736766e-17\n"
    "v -2.2857142857142856 -2.1428571428571428 -2\n"
    "v -1.7142857142857142 -1.5714285714285714 -1.4285714285714286\n"
    "v -1.1428571428571428 -1 -0.8571428571428571\n"
    "v -0.5714285714285714 -0.42857142857142855 -0.2857142857142857\n"
    "v 0 0.14285714285714285 0.2857142857142857\n"
    "v 0.5714285714285714 0.7142857142857143 0.8571428571428571\n"
    "v 1.1428571428571428 1.2857142857142858 1.4285714285714286\n"
    "v 1.7142857142857142 1.8571428571428572 2\n"
    "v 2.2857142857142856 2.4285714285714284 2.5714285714285716\n"
    "v 2.8571428571428572 3 3.1428571428571428\n"
    "v 3.4285714285714284 3.5714285714285716 3.7142857142857144\n"
)
GOLDEN_OBJ_VERTICES_PROJECTED = (
    "v 1e+21 -0 1e-300\n"
    "v -1.8571428571428572 -2.2857142857142856 -2.1428571428571428\n"
    "v -1.2857142857142858 -1.7142857142857142 -1.5714285714285714\n"
    "v -0.7142857142857143 -1.1428571428571428 -1\n"
    "v -0.14285714285714285 -0.5714285714285714 -0.42857142857142855\n"
    "v 0.42857142857142855 0 0.14285714285714285\n"
    "v 1 0.5714285714285714 0.7142857142857143\n"
    "v 1.5714285714285714 1.1428571428571428 1.2857142857142858\n"
    "v 2.1428571428571428 1.7142857142857142 1.8571428571428572\n"
    "v 2.7142857142857144 2.2857142857142856 2.4285714285714284\n"
    "v 3.2857142857142856 2.8571428571428572 3\n"
    "v 3.8571428571428572 3.4285714285714284 3.5714285714285716\n"
)
GOLDEN_OBJ_FACES = (
    "f 1 2 6 5\n"
    "f 2 3 7 6\n"
    "f 3 4 8 7\n"
    "f 4 1 5 8\n"
    "f 5 6 10 9\n"
    "f 6 7 11 10\n"
    "f 7 8 12 11\n"
    "f 8 5 9 12\n"
)


def golden_sample():
    tau = np.array([0.0, 0.1, 1.5])
    t = np.array([0.0, 1.5707963267948966, 3.141592653589793, 4.71238898038469])
    points = (np.arange(48.0).reshape(3, 4, 4) - 20.0) / 7.0
    points[0, 0, :] = [-0.0, 1e-300, 6.123233995736766e-17, 1e21]
    return SurfaceSample(tau, t, points)


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
                for i, x in enumerate(chart_polys(graph)):
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

    def test_negative_radicand_names_the_first_tau(self, cp2):
        # tau = 20/19, the first of 20 samples on [0, 2] past s = 1, of the nine that leave
        graph = build_graph(cp2, [poly(0, 1), poly(0, 1, -1)], (F(0), F(2)), 0, CircleEmbedding((1, 1)))
        first = float(np.linspace(0.0, 2.0, 20)[10])
        with pytest.raises(SamplerError, match=f"^negative radicand in coordinate 2 at tau = {first}$"):
            sample_surface(graph, 20, 8)

    def test_radicand_tolerance(self, disc_graph):
        # 2 x_2 = -1e-12 exactly (a power-of-two multiple of the rounded -1/(2 10**12)) is
        # rounding, read as 0; twice that leaves the orthant
        den = 2 * 10 ** 12
        graph = disc_graph._replace(num=([0, den], [-1]), den=den)
        s = sample_surface(graph, 5, 4)
        assert not s.points[:, :, 2:].any()
        with pytest.raises(SamplerError, match="coordinate 2"):
            sample_surface(graph._replace(num=([0, den], [-2])), 5, 4)


def fraction_density(graph, tau):
    """sum_j k_j x_j'(tau) by Horner in Fractions at Fraction(tau): the oracle for the
    integer Horner of pullback_density_exact."""
    tau = F(tau)
    return sum((k * poly_eval(poly_deriv(x), tau) for x, k in zip(graph.num, graph.k)), F(0)) / graph.den


class TestPullbackDensity:
    def test_disc_exact_formula(self, disc_graph):
        # k1 x1'(tau) + k2 x2'(tau) = 2 on the diagonal disc
        assert pullback_density_exact(disc_graph, F(1, 2)) == F(2)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_exact_matches_fraction_horner(self, request, name):
        graph = request.getfixturevalue(f"{name}_graph")
        xm = graph.x1_max
        for tau in (F(0), F(1, 3), xm / 7, xm, 1, 0.0, 0.1, float(xm), 5e-324, 3.0):
            got = pullback_density_exact(graph, tau)
            assert type(got) is F and got == fraction_density(graph, tau)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exact_matches_fraction_horner_on_floats(self, disc_graph, cone_graph, paraboloid_graph,
                                                     space_graph, degenerate_graph, data):
        for graph in (disc_graph, cone_graph, paraboloid_graph, space_graph, degenerate_graph):
            tau = data.draw(st.floats(0.0, float(graph.x1_max), exclude_min=True))
            got = pullback_density_exact(graph, tau)
            assert type(got) is F and got == fraction_density(graph, tau)

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

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_needs_finite_tau(self, disc_graph, tau):
        with pytest.raises(SamplerError, match=f"needs a finite tau > 0, got {tau}"):
            pullback_density(disc_graph, tau)


def point_major_surface(graph, tau, t):
    """The sampler as first written, points F(tau, t) in the layout (len(tau), len(t), 2n):
    the oracle for the coordinate-major grid the sampler, probe and density share."""
    pts = np.empty((len(tau), len(t), 2 * graph.n))
    for i, (x, k) in enumerate(zip(graph.num, graph.k)):
        vals = 2.0 * np.polyval([c / graph.den for c in reversed(x)] or [0.0], tau)
        bad = vals < -1e-12
        if np.any(bad):
            raise SamplerError(f"negative radicand in coordinate {i + 1} at tau = {float(tau[bad][0])}")
        r = np.sqrt(np.clip(vals, 0.0, None))
        pts[:, :, 2 * i] = r[:, None] * np.cos(k * t)[None, :]
        pts[:, :, 2 * i + 1] = r[:, None] * np.sin(k * t)[None, :]
    return pts


def hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


class TestPointMajorOracle:
    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("nx,nt", [(48, 64), (7, 3), (1, 1)])
    def test_sample_matches_bit_for_bit(self, request, name, nx, nt):
        graph = request.getfixturevalue(f"{name}_graph")
        s = sample_surface(graph, nx, nt)
        want = point_major_surface(graph, s.tau, s.t)
        assert s.points.shape == want.shape == (nx, nt, 2 * graph.n)
        assert hexes(s.points) == hexes(want)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_density_matches_bit_for_bit(self, request, name):
        graph = request.getfixturevalue(f"{name}_graph")
        stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
        for tau in (float(graph.x1_max) * a for a in (1 / 16, 0.3, 0.55, 0.8)):
            h, ht, t = 1e-3 * tau, 1e-3, 0.37
            p = point_major_surface(graph, tau + h * stencil, t + ht * stencil)
            fx, ft = weights @ p[:, 2] / h, weights @ p[2, :] / ht
            omega = float(np.sum(fx[0::2] * ft[1::2] - fx[1::2] * ft[0::2]))
            got, exact = pullback_density(graph, tau)
            assert float(got).hex() == omega.hex()
            assert exact == float(fraction_density(graph, tau))


def norm_probe(graph, nx=400, nt=48):
    """smoothness_probe as first written: distances by np.linalg.norm, and the
    vertex subtracted again from each selection.  The oracle for the probe."""
    tau_cap = surface.PROBE_TAU * min(float(graph.x1_max), 1.0)
    tau = np.concatenate(([0.0], tau_cap * np.linspace(1.0 / nx, 1.0, nx) ** 2))
    t = np.linspace(0.0, 2.0 * np.pi, nt, endpoint=False)
    nan = ProbeResult("inconclusive", math.nan, math.nan, math.nan)
    try:
        grid = point_major_surface(graph, tau, t)
    except SamplerError:
        return nan
    vertex = grid[0, 0]
    pts = grid[1:].reshape(-1, 2 * graph.n)
    dist = np.linalg.norm(pts - vertex[None, :], axis=1)
    eps = 0.15 * float(np.max(dist))
    res = []
    for scale in (eps, eps / 2):
        sel = pts[(dist > 0) & (dist <= scale)]
        if len(sel) < surface.MIN_POINTS:
            return nan
        sv = np.linalg.svd(sel - vertex[None, :], compute_uv=False)
        total = float(np.sqrt(np.sum(sv**2)))
        res.append(0.0 if total == 0.0 else float(np.sqrt(np.sum(sv[2:] ** 2))) / total)
    coarse, fine = res
    ratio = fine / coarse if coarse > 0 else 0.0
    if fine <= 1e-9 or (ratio <= surface.PLANAR_RATIO and coarse < surface.PLANAR_RESIDUAL):
        kind = "planar"
    elif coarse > surface.CONE_RESIDUAL and ratio >= surface.CONE_RATIO:
        kind = "conelike"
    else:
        kind = "inconclusive"
    return ProbeResult(kind, coarse, fine, ratio)


def norm_selection_sizes(graph, nx, nt):
    """The numbers of points norm_probe selects at the two scales."""
    tau_cap = surface.PROBE_TAU * min(float(graph.x1_max), 1.0)
    tau = np.concatenate(([0.0], tau_cap * np.linspace(1.0 / nx, 1.0, nx) ** 2))
    grid = point_major_surface(graph, tau, np.linspace(0.0, 2.0 * np.pi, nt, endpoint=False))
    dist = np.linalg.norm(grid[1:].reshape(-1, 2 * graph.n) - grid[0, 0][None, :], axis=1)
    eps = 0.15 * float(np.max(dist))
    return [int(np.count_nonzero((dist > 0) & (dist <= scale))) for scale in (eps, eps / 2)]


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

    def test_one_point_grid_is_not_empty(self, disc_graph):
        res = smoothness_probe(disc_graph, nx=1, nt=1)
        assert res.kind == "inconclusive" and all(map(math.isnan, res[1:]))

    def test_surface_at_the_tip_only_inconclusive(self, disc_graph):
        # every sample is the tip: no point at a positive distance to fit a plane to
        res = smoothness_probe(disc_graph._replace(num=([0], [0])))
        assert res.kind == "inconclusive" and all(map(math.isnan, res[1:]))

    def test_default_grid(self, disc_graph, cone_graph):
        for graph in (disc_graph, cone_graph):
            assert hexes(smoothness_probe(graph)[1:]) == hexes(norm_probe(graph, 400, 48)[1:])

    @pytest.mark.parametrize("name", ["disc", "cone"])
    def test_min_points_bound_is_inclusive(self, request, monkeypatch, name):
        # the fine selection, counted as the oracle selects it, is enough at MIN_POINTS = count
        graph = request.getfixturevalue(f"{name}_graph")
        count = norm_selection_sizes(graph, 60, 7)[1]
        for bound, enough in ((count, True), (count + 1, False)):
            monkeypatch.setattr(surface, "MIN_POINTS", bound)
            assert math.isnan(smoothness_probe(graph, 60, 7).residual_fine) != enough

    def test_planar_bounds(self, monkeypatch, paraboloid_graph):
        # planar takes ratio <= PLANAR_RATIO and coarse < PLANAR_RESIDUAL, at the measured values
        res = smoothness_probe(paraboloid_graph)
        assert res.kind == "planar" and res.residual_fine > 1e-9
        monkeypatch.setattr(surface, "PLANAR_RATIO", res.ratio)
        assert smoothness_probe(paraboloid_graph).kind == "planar"
        monkeypatch.setattr(surface, "PLANAR_RESIDUAL", res.residual_coarse)
        assert smoothness_probe(paraboloid_graph).kind == "inconclusive"

    def test_cone_bounds(self, monkeypatch, cone_graph):
        # conelike takes coarse > CONE_RESIDUAL and ratio >= CONE_RATIO, at the measured values
        res = smoothness_probe(cone_graph)
        monkeypatch.setattr(surface, "CONE_RATIO", res.ratio)
        assert smoothness_probe(cone_graph).kind == "conelike"
        monkeypatch.setattr(surface, "CONE_RESIDUAL", res.residual_coarse)
        assert smoothness_probe(cone_graph).kind == "inconclusive"

    def test_negative_radicand_inconclusive(self, cp2):
        # (s, -s) leaves the chart's orthant at once, so the probe window has no surface
        graph = build_graph(cp2, [poly(0, 1), poly(0, -1)], (F(0), F(1)), 0, CircleEmbedding((1, 1)))
        res = smoothness_probe(graph)
        assert res.kind == "inconclusive" and all(map(math.isnan, res[1:]))

    @pytest.mark.parametrize("nx,nt", [(0, 48), (400, 0), (0, 0)])
    def test_empty_grid_rejected(self, disc_graph, nx, nt):
        with pytest.raises(SamplerError, match="empty grid"):
            smoothness_probe(disc_graph, nx=nx, nt=nt)

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("nx,nt", [(400, 48), (60, 7), (3, 2)])
    def test_matches_norm_probe_bit_for_bit(self, request, name, nx, nt):
        graph = request.getfixturevalue(f"{name}_graph")
        got, want = smoothness_probe(graph, nx, nt), norm_probe(graph, nx, nt)
        assert got.kind == want.kind
        assert [float(v).hex() for v in got[1:]] == [float(v).hex() for v in want[1:]]


def numpy_faces(nx, nt):
    """The OBJ face block built from numpy index arrays on every export:
    the oracle for the face block kept per grid shape."""
    idx = np.arange(1, nx * nt + 1).reshape(nx, nt)
    nxt = np.roll(idx, -1, axis=1)
    quads = np.stack([idx[:-1], nxt[:-1], nxt[1:], idx[1:]], axis=-1).reshape(-1, 4)
    return "".join("f %d %d %d %d\n" % tuple(q) for q in quads.tolist())


def percent_g_lines(a, prefix, sep):
    """The lines of the rows of a, each float as '%.17g' writes it: the oracle
    for the numpy kernel that export_mesh writes floats with."""
    row = prefix + sep.join(["%.17g"] * a.shape[1]) + "\n"
    return (row * len(a) % tuple(a.ravel().tolist())).encode()


def g17_lines(a, prefix, sep):
    return b"".join(surface._g17_lines(a, prefix, sep))


# the ends of the fixed-notation range of %.17g, the neighbours of powers of
# ten where log10 can round across an integer, and ties at 17 digits
EDGES = [
    9.999999999999999e-05, 1e-4, np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf),
    np.nextafter(1e17, 0.0), 1e17, np.nextafter(1e17, np.inf),
    np.nextafter(1000.0, 0.0), 1000.0, np.nextafter(1000.0, np.inf),
    5e-324, -5e-324, 1.7976931348623157e308, 0.5, 2.5, 3.0, 0.1, 123456789012345680.0,
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no log10(0), no overflow in a cast
class TestPercentG:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=12))
    @example(EDGES)
    @example([-x for x in EDGES])
    @example([10.0 ** k for k in range(-5, 19)] + [np.nextafter(10.0 ** k, 0.0) for k in range(-5, 19)])
    def test_matches_percent_g(self, values):
        a = np.array(values)
        for lines in (a[:, None], a[None, :]):
            assert g17_lines(lines, "v ", ",") == percent_g_lines(lines, "v ", ",")

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponent_one_off_is_corrected(self, monkeypatch, shift):
        # log10 may put the exponent one off near a power of ten; shifted by half
        # a decade, it starts one too low or one too high for about half the values
        values = EDGES + [10.0 ** k for k in range(-4, 17)] + list(np.geomspace(1e-4, 1e17, 2001))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda y: log10(y) + shift)
        a = np.array(values)[:, None]
        assert g17_lines(a, "", ",") == percent_g_lines(a, "", ",")

    def test_million_values(self):
        rng = np.random.default_rng(2028)
        n = 10 ** 6
        log_uniform = 10.0 ** rng.uniform(-7.0, 19.0, n) * rng.choice([-1.0, 1.0], n)
        patterns = rng.integers(0, 2 ** 64, n // 10, dtype=np.uint64).view(np.float64)
        a = np.concatenate([log_uniform, patterns]).reshape(-1, 4)
        assert g17_lines(a, "", " ") == percent_g_lines(a, "", " ")

    @pytest.mark.parametrize("lines", [surface._CHUNK - 1, surface._CHUNK, surface._CHUNK + 1])
    def test_exports_across_a_chunk_boundary(self, tmp_path, lines):
        rng = np.random.default_rng(lines)
        pts = rng.standard_normal((1, lines, 4)) * 10.0 ** rng.integers(-6, 18, (1, lines, 4))
        pts[0, ::7, 1] = 0.0
        s = SurfaceSample(np.zeros(1), np.linspace(0.0, 6.0, lines), pts)
        export_mesh(s, "obj", tmp_path / "m.obj", project=(1, 3, 0))
        assert (tmp_path / "m.obj").read_bytes() == percent_g_lines(pts[0][:, [1, 3, 0]], "v ", " ")
        s = SurfaceSample(np.linspace(0.0, 1.0, lines), np.zeros(1), pts.reshape(lines, 1, 4))
        export_mesh(s, "csv", tmp_path / "m.csv")
        rows = np.column_stack([s.tau, s.t.repeat(lines), pts[0]])
        assert (tmp_path / "m.csv").read_bytes() == b"tau,t,p1,p2,p3,p4\n" + percent_g_lines(rows, "", ",")


def obj_faces_oracle(nx, nt):
    """The OBJ face block as one %-format of every index of the grid: the oracle for
    the face block that export_mesh builds a chunk of lines at a time."""
    idx = np.arange(1, nx * nt + 1).reshape(nx, nt)
    nxt = np.roll(idx, -1, axis=1)
    quads = np.stack([idx[:-1], nxt[:-1], nxt[1:], idx[1:]], axis=-1).ravel().tolist()
    return ("f %d %d %d %d\n" * ((nx - 1) * nt) % tuple(quads)).encode()


class TestExport:
    # (nx - 1) nt face lines: 3 in one row, 8192 = _CHUNK exactly, two chunks split at a
    # row's end (8256) and inside a row (8200), a row longer than a chunk whose wrap-around
    # face is the first line of the second chunk (8193), none for one row
    @pytest.mark.parametrize("nx,nt", [(2, 3), (129, 64), (130, 64), (83, 100), (2, 8193), (1, 5)])
    def test_obj_faces_across_chunk_boundaries(self, nx, nt):
        assert surface._CHUNK == 8192
        assert b"".join(surface._obj_faces.__wrapped__(nx, nt)) == obj_faces_oracle(nx, nt)

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

    def test_golden_bytes(self, tmp_path):
        s = golden_sample()
        export_mesh(s, "csv", tmp_path / "g.csv")
        export_mesh(s, "obj", tmp_path / "g.obj")
        export_mesh(s, "obj", tmp_path / "p.obj", project=(3, 0, 1))
        assert (tmp_path / "g.csv").read_bytes() == GOLDEN_CSV.encode()
        assert (tmp_path / "g.obj").read_bytes() == (GOLDEN_OBJ_VERTICES + GOLDEN_OBJ_FACES).encode()
        assert (tmp_path / "p.obj").read_bytes() == (GOLDEN_OBJ_VERTICES_PROJECTED + GOLDEN_OBJ_FACES).encode()

    @pytest.mark.parametrize("nx,nt,faces", [
        (1, 3, ""),
        (2, 3, "f 1 2 5 4\nf 2 3 6 5\nf 3 1 4 6\n"),
    ])
    def test_degenerate_grid_faces(self, tmp_path, nx, nt, faces):
        # one tau row has no faces, as before
        s = golden_sample()
        s = SurfaceSample(s.tau[:nx], s.t[:nt], s.points[:nx, :nt])
        export_mesh(s, "obj", tmp_path / "d.obj")
        lines = (tmp_path / "d.obj").read_text().splitlines(keepends=True)
        assert sum(1 for l in lines if l.startswith("v ")) == nx * nt
        assert "".join(l for l in lines if l.startswith("f ")) == faces

    @pytest.mark.parametrize("nx,nt", [(1, 1), (2, 1), (3, 2)])
    def test_obj_needs_three_t_samples(self, tmp_path, nx, nt):
        # with nt < 3 a quad has fewer than four distinct corners; CSV takes any grid
        s = golden_sample()
        s = SurfaceSample(s.tau[:nx], s.t[:nt], s.points[:nx, :nt])
        with pytest.raises(SamplerError, match=f"OBJ export needs nt >= 3, got nt = {nt}$"):
            export_mesh(s, "obj", tmp_path / "d.obj")
        assert not (tmp_path / "d.obj").exists()
        export_mesh(s, "csv", tmp_path / "d.csv")
        assert len((tmp_path / "d.csv").read_text().splitlines()) == 1 + nx * nt

    def test_obj_matches_numpy_faces(self, tmp_path):
        # each shape twice, interleaved with the others, so the kept block is
        # replaced between exports of the same shape
        shapes = [(1, 3), (2, 3), (3, 4), (5, 7), (48, 64)]
        rng = np.random.default_rng(7)
        for nx, nt in shapes + shapes[::-1] + shapes:
            pts = rng.standard_normal((nx, nt, 4))
            s = SurfaceSample(np.linspace(0.0, 1.0, nx), np.linspace(0.0, 6.0, nt), pts)
            export_mesh(s, "obj", tmp_path / "m.obj", project=(1, 3, 0))
            verts = "".join("v %.17g %.17g %.17g\n" % tuple(p) for p in pts[:, :, [1, 3, 0]].reshape(-1, 3))
            assert (tmp_path / "m.obj").read_bytes() == (verts + numpy_faces(nx, nt)).encode()

    def test_bad_projection_rejected(self, disc_graph, tmp_path):
        s = sample_surface(disc_graph, 3, 3)
        with pytest.raises(SamplerError):
            export_mesh(s, "obj", tmp_path / "x.obj", project=(0, 1, 9))

    @pytest.mark.parametrize("project", [(True, 0, 2), (0.0, 1, 2), (0, 1, 4)], ids=["bool", "float", "dim"])
    def test_projection_entry_rejected(self, disc_graph, tmp_path, project):
        # True was read as coordinate 1, and 0.0 raised numpy's IndexError; the points have 4 coordinates
        s = sample_surface(disc_graph, 3, 3)
        with pytest.raises(SamplerError, match=re.escape(f"projection {project}: expected three integers in 0..3")):
            export_mesh(s, "obj", tmp_path / "x.obj", project=project)
        assert not (tmp_path / "x.obj").exists()

    def test_unknown_format_rejected(self, disc_graph, tmp_path):
        s = sample_surface(disc_graph, 3, 3)
        with pytest.raises(SamplerError):
            export_mesh(s, "ply", tmp_path / "x.ply")

    @pytest.mark.parametrize("nx,nt", [(0, 4), (3, 0)])
    def test_empty_grid_rejected(self, tmp_path, nx, nt):
        s = golden_sample()
        s = SurfaceSample(s.tau[:nx], s.t[:nt], s.points[:nx, :nt])
        with pytest.raises(SamplerError, match="^empty grid$"):
            export_mesh(s, "csv", tmp_path / "e.csv")
        assert not (tmp_path / "e.csv").exists()
