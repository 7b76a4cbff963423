"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (written to the real stdout so the
lines survive pytest capture).  The suite exercises the full pipeline:
polytope validation, the lift criterion on a fixed catalog and on a
randomized corpus cross-checked against the floating-point surface
sampler, exact/numeric density agreement, chart independence, the
quotient identification rule, the closed-form endpoint kernel against
numeric growth exponents, and CLI byte determinism.
"""

import json
import math
import random
import sys
from fractions import Fraction

import numpy as np

from conftest import chart_polys, polytope_to_dict
from toriclift import catalog, criterion
from toriclift.chart import CircleEmbedding
from toriclift.cli import main as cli_main
from toriclift.criterion import build_graph, check_endpoint, check_lift, valuation
from toriclift.polytope import face_lattice, points_equivalent, validate_delzant
from toriclift.surface import pullback_density, pullback_density_exact, smoothness_probe

F = Fraction


def poly(*cs):
    return [F(c) for c in cs]


def announce(num, body):
    try:
        body()
    except BaseException:
        sys.__stdout__.write(f"ACCEPTANCE {num}: FAIL\n")
        raise
    sys.__stdout__.write(f"ACCEPTANCE {num}: PASS\n")


CP2 = catalog.cp2(3)
HIRZ = catalog.hirzebruch()
DIAG = [poly(0, 1), poly(0, 1)]
DIAG_IV = (F(0), F(3, 2))


# ---------------------------------------------------------------------------
# 1. Delzant catalog


def test_acceptance_1_delzant_catalog():
    def body():
        for P in (CP2, catalog.unit_square(), catalog.cp3(), HIRZ):
            assert validate_delzant(P).ok
        rep = validate_delzant(catalog.non_delzant_triangle())
        assert not rep.ok
        bad = rep.failures()
        assert len(bad) == 1
        assert bad[0].vertex == (F(1), F(0))
        assert abs(bad[0].det) == 2

    announce(1, body)


# ---------------------------------------------------------------------------
# 2. Lift verdict catalog


def test_acceptance_2_lift_catalog():
    def body():
        # smooth diagonal disc
        v = check_lift(CP2, DIAG, DIAG_IV, CircleEmbedding((1, 1)))
        assert v.verdict == "accept"

        # same curve, circle acting only on the first coordinate: the
        # half-cone; parity diagnostic at the vertex endpoint
        v = check_lift(CP2, DIAG, DIAG_IV, CircleEmbedding((1, 0)))
        assert v.verdict == "reject"
        ep = v.report("endpoint 1")
        assert ep.status == "fails"
        parity = [c for c in ep.conditions
                  if c.condition == "divided_smoothness" and c.outcome == "fails"]
        assert parity and "parity" in parity[0].detail

        # parabola at the origin with weights (1, 2): m = 2, valuation 2
        gamma = [poly(0, 1), poly(0, 0, 1)]
        gr = build_graph(CP2, gamma, (F(0), F(1)), 0, CircleEmbedding((1, 2)))
        rep = check_endpoint(gr)
        assert rep.status == "holds"
        assert any("m = 2" in c.detail and "valuation 2" in c.detail
                   for c in rep.conditions)

        # antidiagonal: tangent orthogonal to the circle everywhere
        v = check_lift(CP2, [poly(0, 1), poly(2, -1)], (F(0), F(2)),
                       CircleEmbedding((1, 1)))
        assert v.verdict == "reject"
        tr = v.report("transversality")
        assert tr.status == "fails"
        assert "identically zero" in tr.conditions[0].detail

    announce(2, body)


# ---------------------------------------------------------------------------
# 3. randomized corpus vs the floating-point probe


def _cp2_instance(s_star, d, k2):
    """(s, q s^d) from the origin to the interior of the x+y=3 facet."""
    q = (3 - s_star) / s_star**d
    gamma = [poly(0, 1), [F(0)] * d + [q]]
    return gamma, (F(0), s_star), CircleEmbedding((1, k2))


def _parity_cone_reject(verdict):
    """Reject whose x1 = 0 endpoint fails parity at valuation 1 (a corner
    the second-moment probe can see; higher valuations are C^1)."""
    ep = verdict.report("endpoint 1")
    if ep is None:
        return False
    return any(c.condition == "divided_smoothness" and c.outcome == "fails"
               and "parity" in c.detail and "valuation 1" in c.detail
               for c in ep.conditions)


def test_acceptance_3_probe_cross_check():
    def body():
        instances = []
        for s_star in (F(1, 2), F(1), F(3, 2)):
            for d in (1, 3):
                for k2 in (0, 1):
                    gamma, iv, K = _cp2_instance(s_star, d, k2)
                    instances.append((CP2, gamma, iv, K))
        for c in (F(1, 4), F(1, 2), F(3, 4)):
            instances.append((HIRZ, [[F(0), F(0), c], poly(0, 1)],
                              (F(0), F(1)), CircleEmbedding((0, 1))))
            instances.append((HIRZ, [[F(0), c], poly(0, 1)],
                              (F(0), F(1)), CircleEmbedding((1, 0))))
            instances.append((HIRZ, [[F(0), F(0), c], poly(0, 1)],
                              (F(0), F(1)), CircleEmbedding((1, 1))))
        assert len(instances) >= 20

        accepts = rejects = 0
        for P, gamma, iv, K in instances:
            verdict = check_lift(P, gamma, iv, K)
            graph = build_graph(P, gamma, iv, 0, K)
            probe = smoothness_probe(graph)
            if verdict.verdict == "accept":
                accepts += 1
                assert probe.kind in ("planar", "inconclusive"), \
                    f"accept vs probe {probe.kind}: {gamma}, K={K.K}"
            elif _parity_cone_reject(verdict):
                rejects += 1
                assert probe.kind in ("conelike", "inconclusive"), \
                    f"cone reject vs probe {probe.kind}: {gamma}, K={K.K}"
        # the corpus must actually contain both decisive classes
        assert accepts >= 5 and rejects >= 5

    announce(3, body)


# ---------------------------------------------------------------------------
# 4. pullback density identity


def test_acceptance_4_pullback_identity():
    def body():
        line = _cp2_instance(F(1), 1, 1)
        cubic = _cp2_instance(F(1), 3, 1)
        accepted = [
            build_graph(CP2, DIAG, DIAG_IV, 0, CircleEmbedding((1, 1))),
            build_graph(CP2, line[0], line[1], 0, line[2]),
            build_graph(CP2, cubic[0], cubic[1], 0, cubic[2]),
            build_graph(HIRZ, [[F(0), F(0), F(1, 2)], poly(0, 1)], (F(0), F(1)), 0,
                        CircleEmbedding((0, 1))),
        ]
        t_grid = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
        for graph in accepted:
            xm = float(graph.x1_max)
            x_grid = np.linspace(xm / 64, 0.8 * xm, 64)
            for x1 in x_grid:
                exact = float(pullback_density_exact(graph, F(x1).limit_denominator(10**9)))
                for t in t_grid[::16]:
                    omega, _ = pullback_density(graph, float(x1), t=float(t))
                    assert abs(omega - exact) <= 1e-8 * max(1.0, abs(exact))

        degen = build_graph(CP2, [poly(0, 1), poly(2, -1)], (F(0), F(2)), 0,
                            CircleEmbedding((1, 1)))
        for x1 in np.linspace(0.05, 1.2, 64):
            for t in t_grid[::16]:
                omega, exact = pullback_density(degen, float(x1), t=float(t))
                assert exact == 0.0
                assert abs(omega) < 1e-10

    announce(4, body)


# ---------------------------------------------------------------------------
# 5. chart invariance on an edge endpoint


def test_acceptance_5_chart_invariance():
    def body():
        curves = []
        for s_star in (F(1, 2), F(1), F(3, 2), F(2)):
            for d in (1, 2, 3):
                gamma, iv, _ = _cp2_instance(s_star, d, 0)
                curves.append((gamma, iv))
        assert len(curves) >= 10
        verdicts = set()
        for gamma, iv in curves:
            for K in ((1, 1), (1, 0), (1, 2)):
                rho = CircleEmbedding(K)
                v1 = check_lift(CP2, gamma, iv, rho,
                                chart_vertices=(None, (F(3), F(0))))
                v2 = check_lift(CP2, gamma, iv, rho,
                                chart_vertices=(None, (F(0), F(3))))
                assert v1.verdict == v2.verdict, (gamma, K)
                verdicts.add(v1.verdict)
        assert {"accept", "reject"} <= verdicts  # mix of outcomes exercised

    announce(5, body)


# ---------------------------------------------------------------------------
# 6. quotient identification rule


def _face_interior_point(face, n):
    if face.dim == 0:
        return face.vertices[0]
    m = len(face.vertices)
    return tuple(sum(v[i] for v in face.vertices) / m for i in range(n))


def test_acceptance_6_quotient_equivalence():
    def body():
        rng = random.Random(20)
        torus = [(F(rng.randint(0, 19), 20), F(rng.randint(0, 19), 20))
                 for _ in range(20)]
        torus = list(dict.fromkeys(torus))
        for P in (catalog.unit_square(), CP2):
            for face in face_lattice(P):
                r = _face_interior_point(face, P.n)
                rel = {}
                for i, t1 in enumerate(torus):
                    for j, t2 in enumerate(torus):
                        rel[i, j] = points_equivalent(P, (t1, r), (t2, r))
                for i in range(len(torus)):
                    assert rel[i, i]
                    for j in range(len(torus)):
                        assert rel[i, j] == rel[j, i]
                        for k in range(len(torus)):
                            if rel[i, j] and rel[j, k]:
                                assert rel[i, k]
                if face.dim == 0:
                    assert all(rel[i, j] for i in range(len(torus))
                               for j in range(len(torus)))
                if face.dim == P.n:
                    for i in range(len(torus)):
                        for j in range(len(torus)):
                            assert rel[i, j] == (torus[i] == torus[j])

    announce(6, body)


# ---------------------------------------------------------------------------
# 7. endpoint series kernel, read in closed form from the leading terms of
# the chart polynomials, vs numeric growth exponents


def _growth_exponent(x_j, m, c) -> float:
    """Least-squares log-log growth exponent of sqrt(2 x_j(tau)) / r_1^|m| in
    r_1 = sqrt(2 x_p(tau)) as tau -> 0+, with x_p = tau + c tau^2: the surface
    is z_j = f z_1^m for m >= 0 and z_j = f conj(z_1)^|m| for m < 0."""
    taus = np.logspace(-8, -4, 12)
    r1 = np.sqrt(2 * (taus + c * taus**2))
    ys = np.sqrt(2 * np.polyval([float(v) for v in reversed(x_j)], taus)) / r1**abs(m)
    assert np.all(ys > 0)
    A = np.vstack([np.log(r1), np.ones_like(r1)]).T
    return float(np.linalg.lstsq(A, np.log(ys), rcond=None)[0][0])


def test_acceptance_7_series_kernel():
    def body():
        c = F(1, 2)
        square = catalog.unit_square()
        # x_j = tau^a (1 + tau) against the parameter map x_p = tau + c tau^2:
        # the closed form must hold exactly when the numeric exponent a - |m|
        # is a nonnegative even integer
        for a in range(0, 7):
            x_j = [F(0)] * a + [F(1), F(1)]
            for m in range(-4, 5):
                reason = criterion._divided_smoothness(x_j, valuation(x_j), m)
                beta = _growth_exponent(x_j, m, float(c))
                assert abs(beta - (a - abs(m))) < 0.05, (a, m, beta)
                smooth = round(beta) >= 0 and round(beta) % 2 == 0
                assert (reason is None) == smooth, (a, m, reason)
                if a == 0:
                    continue  # x_j(0) > 0: a face coordinate, not a graph one
                # the same decision through build_graph and check_endpoint
                gamma = [[F(0), F(1), c], x_j]
                graph = build_graph(square, gamma, (F(0), F(1, 4)), 0, CircleEmbedding((1, m)))
                assert chart_polys(graph) == [[F(0), F(1), c], x_j]
                cond = [x for x in check_endpoint(graph).conditions
                        if x.condition == "divided_smoothness"]
                assert cond[0].outcome == ("holds" if smooth else "fails"), (a, m)

        # a negative leading coefficient is never smooth: the radicand is
        # negative next to the tip
        x_neg = [F(0), F(-1), F(-1)]
        assert criterion._divided_smoothness(x_neg, valuation(x_neg), 1) == "negative_leading"
        assert np.all(np.polyval([-1.0, -1.0, 0.0], np.logspace(-8, -4, 12)) < 0)
        graph = build_graph(square, [[F(0), F(1), c], x_neg], (F(0), F(1, 4)), 0,
                            CircleEmbedding((1, 1)))
        rep = check_endpoint(graph)
        assert rep.status == "fails"
        cond = {(c.condition, c.location): c for c in rep.conditions}
        assert "negative_leading" in cond["divided_smoothness", "coordinate 2"].detail

    announce(7, body)


# ---------------------------------------------------------------------------
# 8. CLI byte determinism


def test_acceptance_8_cli_determinism(tmp_path, capsys):
    def body():
        cp2_file = tmp_path / "cp2.json"
        cp2_file.write_text(json.dumps(polytope_to_dict(CP2)))
        vec_file = tmp_path / "vectors.json"
        vec_file.write_text(json.dumps({"vectors": [[1, 0], [0, 1], [-1, 1]]}))
        curve_file = tmp_path / "curve.json"
        curve_file.write_text(json.dumps({
            "coords": [["0", "1"], ["0", "1"]],
            "domain": ["0", "3/2"],
            "circle": [1, 1],
        }))
        commands = [
            ["validate", str(cp2_file), "--json"],
            ["quasitoric", str(cp2_file), str(vec_file), "--json"],
            ["faces", str(cp2_file), "--json"],
            ["equiv", str(cp2_file), "--r", "1,0",
             "--t1", "1/4,7/10", "--t2", "1/4,1/10", "--json"],
            ["lift-check", str(cp2_file), str(curve_file), "--json"],
        ]
        for argv in commands:
            code1 = cli_main(argv)
            out1 = capsys.readouterr().out
            code2 = cli_main(argv)
            out2 = capsys.readouterr().out
            assert code1 == code2
            assert out1 == out2 and out1, argv
            json.loads(out1)  # machine output must be valid JSON

        mesh1, mesh2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for out in (mesh1, mesh2):
            assert cli_main(["sample", str(cp2_file), str(curve_file),
                             "--nx", "16", "--nt", "16", "--out", str(out),
                             "--json"]) == 0
            capsys.readouterr()
        assert mesh1.read_bytes() == mesh2.read_bytes()

    announce(8, body)
