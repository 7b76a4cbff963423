import gc
import glob
import itertools
import math
import os
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toriclift import catalog, exactmath, io, polytope
from toriclift.chart import CircleEmbedding
from toriclift.criterion import build_graph, check_lift
from toriclift.exactmath import dot, hnf, int_det, integer_kernel_basis, primitive, rank
from toriclift.polytope import (
    HPolytope,
    PolytopeError,
    characteristic_subtorus,
    edge_vectors_at_vertex,
    enumerate_vertices,
    face_lattice,
    format_point,
    in_subtorus,
    minimal_face,
    points_equivalent,
    validate_delzant,
    validate_quasitoric,
)

F = Fraction


def pts(vertex_list):
    return {tuple(map(F, v)) for v in vertex_list}


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def octahedron():
    """|x| + |y| + |z| <= 1: every vertex lies on four facets."""
    normals = list(itertools.product((1, -1), repeat=3))
    return HPolytope(3, normals, [F(1)] * 8)


def square_pyramid():
    """Apex (0, 0, 1) on four facets over the base [-1, 1]^2 x {0}."""
    return HPolytope(3, ((0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
                     (F(0), F(1), F(1), F(1), F(1)))


NON_SIMPLE = {"octahedron": (octahedron, (6, 12, 8, 1)),
              "square_pyramid": (square_pyramid, (5, 8, 5, 1))}


def affine_dim(points):
    """Dimension of the affine hull, by elimination over Q (independent of hnf)."""
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    r = 0
    for col in range(len(points[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def brute_force_faces(vsets):
    """Every facet subset tight at some vertex, made canonical by intersecting
    the active sets of the vertices it is tight at."""
    out = set()
    for act in vsets:
        for k in range(len(act) + 1):
            for sub in itertools.combinations(sorted(act), k):
                out.add(frozenset.intersection(*(a for a in vsets if a >= set(sub))))
    return out


def brute_force_vertices(n, normals, offsets):
    """Every n-subset of facets with independent normals, solved and kept when
    the point lies in P: the oracle for the edge walk.

    Integer arithmetic throughout: with L clearing the offset denominators
    and H = A_B U the Hermite form of the subset, D = det H makes Y = D y
    integral in H y = L b_B, and the point is U Y / (D L).
    """
    L = math.lcm(*(F(o).denominator for o in offsets))
    b = [int(o * L) for o in offsets]
    seen = {}
    for subset in itertools.combinations(range(len(normals)), n):
        H, U = hnf([normals[i] for i in subset])
        D = math.prod(H[k][k] for k in range(n))
        if D == 0:
            continue
        Y = []
        for i, row in zip(subset, H):
            Y.append((D * b[i] - sum(h * yj for h, yj in zip(row, Y))) // row[len(Y)])
        X = [sum(u * yj for u, yj in zip(urow, Y)) for urow in U]
        sign = 1 if D > 0 else -1
        pairings = [sign * (dot(a, X) - D * lam) for a, lam in zip(normals, b)]
        if max(pairings) <= 0:
            p = tuple(F(x, D * L) for x in X)
            seen[p] = frozenset(i for i, v in enumerate(pairings) if v == 0)
    return sorted(seen.items())


def brute_force_ray(n, normals):
    """A recession ray, as the kernel line of some n - 1 normals, or None."""
    for subset in itertools.combinations(normals, n - 1):
        kern = integer_kernel_basis(subset) if subset else [(1,)]
        if len(kern) == 1:
            for d in (kern[0], tuple(-x for x in kern[0])):
                if all(dot(d, a) <= 0 for a in normals):
                    return d
    return None


def brute_force_delzant(n, normals, verts):
    """(vertex, simple, det, smooth) per vertex, each edge solved on its own."""
    out = []
    for v, act in verts:
        if len(act) != n:
            out.append((v, False, None, False))
            continue
        cols = []
        for fj in sorted(act):
            u = integer_kernel_basis([normals[f] for f in sorted(act) if f != fj]) if n > 1 else [(1,)]
            cols.append(tuple(-x for x in u[0]) if dot(u[0], normals[fj]) > 0 else u[0])
        det = int_det(cols)
        out.append((v, True, det, abs(det) == 1))
    return out


def assert_matches_oracle(P, verts):
    """Vertices, faces and Delzant verdicts of a freshly built P are the oracle's,
    given its vertices, and its walk state holds (`assert_walk_state`).

    A face's dimension is n minus the rank of its active normals, and its
    vertices are the vertices whose active sets contain its own, in vertex order.
    """
    assert_walk_state(P)
    assert enumerate_vertices(P) == verts
    faces = face_lattice(P)
    oracle = brute_force_faces([act for _, act in verts])
    assert {f.active for f in faces} == oracle and len(faces) == len(oracle)
    for f in faces:
        assert f.dim == P.n - rank([P.normals[i] for i in sorted(f.active)])
        assert f.vertices == tuple(v for v, act in verts if act >= f.active)
    assert list(validate_delzant(P).verdicts) == brute_force_delzant(P.n, P.normals, verts)


def check_against_oracle(n, normals, offsets):
    """Construct P and hold every answer to the brute-force oracle; returns the case."""
    verts = brute_force_vertices(n, normals, offsets)
    if rank(normals) < n:
        case, message = "no-span", "unbounded polytope: normals do not span"
    elif not verts:
        case, message = "empty", "empty polytope"
    elif brute_force_ray(n, normals) is not None:
        case, message = "unbounded", None
    elif frozenset.intersection(*(act for _, act in verts)):
        case, message = "flat", "polytope is not full-dimensional"
    else:
        assert_matches_oracle(HPolytope(n, normals, offsets), verts)
        return "bounded"
    with pytest.raises(PolytopeError) as exc:
        HPolytope(n, normals, offsets)
    if message is not None:
        assert str(exc.value) == message
    else:
        # the walk may name another ray than the oracle: any recession ray will do
        m = re.fullmatch(r"unbounded polytope: recession ray \((.*?),?\)", str(exc.value))
        assert m, str(exc.value)
        ray = tuple(int(x) for x in m.group(1).split(", "))
        assert len(ray) == n and any(ray) and all(dot(ray, a) <= 0 for a in normals)
    return case


def random_system(rng):
    """n <= 4, n < d <= 8 (d = 2 for n = 1), normal entries in -2..2, offsets p/q."""
    n = rng.randint(1, 4)
    d = rng.randint(n + 1, 8) if n > 1 else 2
    normals = []
    while len(normals) < d:
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(a) and primitive(a) == a and a not in normals:
            normals.append(a)
    return n, normals, [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)]


# The products of the benchmark's polytope ladder, drawn as bench/corpus.py
# draws them (same random stream, so seed s gives that seed's products):
# "P<k>" a Delzant k-gon cut from a triangle or rectangle, "I" an interval,
# "T" the triangle with one |det| = 2 vertex; each factor scaled and moved.
LADDER = (
    ("P4",), ("P6",), ("T",),
    ("P5", "I"), ("P6", "I"), ("T", "I"),
    ("P4", "P5"), ("P5", "I", "I"), ("T", "P4"),
    ("P5", "P4", "I"), ("P4", "P5", "I"), ("T", "P4", "I"), ("P6", "P4", "I"),
)


def ladder_factor(rng, code):
    if code == "I":
        return [(-1,), (1,)], [F(0), F(rng.randint(1, 5), rng.randint(1, 3))]
    if code == "T":
        return [(-1, 0), (0, -1), (2, 1)], [F(0), F(0), F(2)]
    k = int(code[1:])
    if k >= 4 and rng.random() < 0.5:
        a, b = F(rng.randint(3, 6)), F(rng.randint(3, 6))
        fac = [[(-1, 0), F(0), b], [(0, -1), F(0), a], [(1, 0), a, b], [(0, 1), b, a]]
    else:
        L = F(rng.randint(3, 6))
        fac = [[(-1, 0), F(0), L], [(0, -1), F(0), L], [(1, 1), L, L]]
    while len(fac) < k:  # cut the corner between sides i and j (normal, offset, length)
        i = rng.randrange(len(fac))
        j = (i + 1) % len(fac)
        eps = min(fac[i][2], fac[j][2]) * F(rng.randint(1, 3), 4)
        fac[i][2] -= eps
        fac[j][2] -= eps
        normal = (fac[i][0][0] + fac[j][0][0], fac[i][0][1] + fac[j][0][1])
        fac.insert(i + 1, [normal, fac[i][1] + fac[j][1] - eps, eps])
    return [f[0] for f in fac], [f[1] for f in fac]


def product(factors):
    """(n, normals, offsets) of the product of (normals, offsets) factors."""
    n = sum(len(fn[0]) for fn, _ in factors)
    normals, offsets, col = [], [], 0
    for fn, fo in factors:
        m = len(fn[0])
        normals += [(0,) * col + a + (0,) * (n - col - m) for a in fn]
        offsets += fo
        col += m
    return n, normals, offsets


def ladder_product(rng, codes):
    """(n, normals, offsets) of one ladder rung's product, each factor scaled and moved."""
    factors = []
    for fn, fo in [ladder_factor(rng, c) for c in codes]:
        scale = F(rng.randint(7, 29), 6)
        shift = [F(rng.randint(-50, 50), 7) for _ in fn[0]]
        factors.append((fn, [scale * lam + dot(a, shift) for a, lam in zip(fn, fo)]))
    return product(factors)


def ladder_products(seed):
    rng = random.Random(seed)
    return [ladder_product(rng, codes) for codes in LADDER for _ in range(4 if codes == LADDER[-1] else 3)]


def awkward_translate(rng, n, normals, offsets):
    """The offsets of the system moved by a vector with denominators up to 10^4."""
    t = [F(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4)) for _ in range(n)]
    return [F(lam) + dot(a, t) for a, lam in zip(normals, offsets)]


OCTAGON = ([(-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1)],
           [F(0), F(-1), F(0), F(2), F(3), F(5), F(3), F(2)])


class TestConstruction:
    def test_repr_round_trip(self):
        P = catalog.hirzebruch()
        assert repr(eval(repr(P), {"HPolytope": HPolytope, "Fraction": F})) == repr(P)

    def test_unbounded_rejected(self):
        with pytest.raises(PolytopeError, match="unbounded"):
            HPolytope(2, ((-1, 0), (0, -1)), (F(0), F(0)))

    def test_half_line_unbounded(self):
        # {x <= 0}: no n - 1 = 0 normals leave all of Z^1 as the kernel
        with pytest.raises(PolytopeError, match=r"unbounded polytope: recession ray \(-1,\)"):
            HPolytope(1, ((1,),), (F(0),))

    @pytest.mark.parametrize("normals,offsets", [
        (((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 0, 0, 0)),  # segment [0, 1] x {0}
        (((1, 0), (0, 1), (-1, -1)), (0, 0, 0)),  # the single point 0
    ], ids=["segment", "point"])
    def test_not_full_dimensional_rejected(self, normals, offsets):
        with pytest.raises(PolytopeError, match="not full-dimensional"):
            HPolytope(2, normals, offsets)

    def test_non_primitive_normal_rejected(self):
        with pytest.raises(PolytopeError, match="primitive"):
            HPolytope(2, ((-2, 0), (0, -1), (2, 2)), (F(0), F(0), F(3)))

    def test_duplicate_facet_rejected(self):
        with pytest.raises(PolytopeError, match="duplicate"):
            HPolytope(1, ((1,), (1,), (-1,)), (F(1), F(1), F(0)))

    def test_empty_rejected(self):
        with pytest.raises(PolytopeError):
            HPolytope(1, ((1,), (-1,)), (F(-2), F(0)))

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_below_one_rejected(self, n):
        with pytest.raises(PolytopeError, match=rf"^n: the dimension must be at least 1, got {n}$"):
            HPolytope(n, (), ())

    @pytest.mark.parametrize("n", [True, 1.0, "2", F(2)], ids=["bool", "float", "str", "fraction"])
    def test_dimension_not_an_int_rejected(self, n):
        # True was taken as n = 1; 1.0 and "2" failed with a TypeError from the walk or from <
        with pytest.raises(PolytopeError, match=f"^{re.escape(f'n: expected an integer, got {n!r}')}$"):
            HPolytope(n, [(1,), (-1,)], [1, 0])

    @pytest.mark.parametrize("normal", [(1.9, 1), (F(3, 2), 1), (True, 1), ("1", 1)],
                             ids=["float", "fraction", "bool", "str"])
    def test_normal_entry_not_an_int_rejected(self, normal):
        # each of these was truncated or converted by int() to another polytope
        with pytest.raises(PolytopeError, match=re.escape(f"facet normal {normal}: expected integers")):
            HPolytope(2, ((-1, 0), (0, -1), normal), (F(0), F(0), F(3)))

    @pytest.mark.parametrize("offset", [0.1, "3", True, None], ids=["float", "str", "bool", "none"])
    def test_offset_not_rational_rejected(self, offset):
        # a float offset 0.1 became 3602879701896397/36028797018963968
        with pytest.raises(PolytopeError, match=re.escape(f"offset {offset!r}: expected an int or a Fraction")):
            HPolytope(2, ((-1, 0), (0, -1), (1, 1)), (F(0), 0, offset))

    def test_int_and_fraction_offsets_accepted(self, cp2):
        assert repr(HPolytope(2, cp2.normals, (0, F(0), 3))) == repr(cp2)

    @pytest.mark.parametrize("normals,offsets,message", [
        (((-1, 0), (0, -1), (1, 1)), (0, 0), "normal/offset count mismatch"),
        (((-1, 0), (0, -1), (1, 1, 0)), (0, 0, 3), "facet normal (1, 1, 0) has length 3, the polytope has dimension 2"),
        (((-1, 0), (0, -1), (0, 0)), (0, 0, 3), "facet normal (0, 0) is zero"),
    ], ids=["count", "length", "zero"])
    def test_malformed_normals_rejected(self, normals, offsets, message):
        with pytest.raises(PolytopeError, match=f"^{re.escape(message)}$"):
            HPolytope(2, normals, offsets)

    def test_compared_by_identity(self, cp2):
        # two builds of one polytope are two objects, so a set or dict key holds both
        same = HPolytope(2, cp2.normals, (0, F(0), 3))
        assert same != cp2 and len({cp2, same, cp2}) == 2


class TestVertices:
    def test_cp2(self, cp2):
        assert {p for p, _ in enumerate_vertices(cp2)} == pts([(0, 0), (3, 0), (0, 3)])

    def test_square(self, square):
        assert {p for p, _ in enumerate_vertices(square)} == pts([(0, 0), (1, 0), (0, 1), (1, 1)])

    def test_hirzebruch(self, hirzebruch):
        assert {p for p, _ in enumerate_vertices(hirzebruch)} == pts([(0, 0), (2, 0), (0, 1), (1, 1)])

    def test_non_integral_vertex(self):
        # x + 2y <= 1 and 2x + y <= 1 meet at (1/3, 1/3): the Hermite pivots are 1 and 3
        P = HPolytope(2, ((1, 2), (2, 1), (-1, 0), (0, -1)), (F(1), F(1), F(0), F(0)))
        assert dict(enumerate_vertices(P)) == {
            (F(0), F(0)): frozenset({2, 3}),
            (F(0), F(1, 2)): frozenset({0, 2}),
            (F(1, 3), F(1, 3)): frozenset({0, 1}),
            (F(1, 2), F(0)): frozenset({1, 3}),
        }

    def test_keys_are_the_sorted_active_sets(self):
        # the walk files each vertex's edge record by its active facets as a sorted tuple,
        # in vertex order: the keys that the Delzant check and the face lattice read
        data = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "data", "*.json")))
        polytopes = [io.load_polytope(path) for path in data]
        polytopes += [square_pyramid(), octahedron(), catalog.box([1] * 5)]
        polytopes += [HPolytope(*system) for system in ladder_products(1)]
        assert len(data) == 5
        for P in polytopes:
            verts = enumerate_vertices(P)
            assert list(P._edges) == [tuple(sorted(act)) for _, act in verts]

    def test_active_sets_exact(self, cp2):
        for p, active in enumerate_vertices(cp2):
            for i, (a, lam) in enumerate(zip(cp2.normals, cp2.offsets)):
                val = sum(F(a[j]) * p[j] for j in range(2))
                assert val <= lam
                assert (val == lam) == (i in active)


class TestEdgeWalk:
    """The edge walk against the n-subset oracle, and the work it may do."""

    def test_random_systems_match_brute_force(self):
        rng = random.Random(20251018)
        cases = [check_against_oracle(*random_system(rng)) for _ in range(2000)]
        counts = {c: cases.count(c) for c in set(cases)}
        assert set(counts) == {"no-span", "empty", "unbounded", "flat", "bounded"}
        assert counts["bounded"] >= 300 and counts["empty"] >= 300 and counts["flat"] >= 20, counts

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_ladder_products_match_brute_force(self, seed):
        products = ladder_products(seed)
        assert len(products) == 40
        for n, normals, offsets in products:
            assert_matches_oracle(HPolytope(n, normals, offsets), brute_force_vertices(n, normals, offsets))

    def test_empty_with_recession_directions(self):
        # (-1, 2) pairs to <= 0 with every normal, but no point meets all four
        # facets: an empty system, which an unbounded direction does not make
        # unbounded
        with pytest.raises(PolytopeError, match="^empty polytope$"):
            HPolytope(2, ((-2, -1), (0, -1), (2, -1), (2, 1)), (-1, 2, -2, 0))

    def test_empty_exact_pivots(self):
        # the second dual-simplex pivot solves for a non-integral
        # w = (0, -1/3, -2/3); no entry is positive, so the system is empty
        with pytest.raises(PolytopeError, match="^empty polytope$"):
            HPolytope(3, ((-2, -1, 1), (-2, 1, 2), (-1, -1, 0), (-1, 1, 1), (0, -1, 0), (1, 1, -1)),
                      (-3, F(1, 3), F(-2, 3), 4, F(1, 2), -4))

    def test_awkward_offsets_match_brute_force(self):
        # moved by vectors with denominators up to 10^4, the walk's integer slacks
        # carry large denominators that the gcd must reduce; the combinatorics, the
        # ties of the ratio test at non-simple vertices and the messages stay
        rng = random.Random(20261018)
        cases = []
        for _ in range(400):
            n, normals, offsets = random_system(rng)
            cases.append(check_against_oracle(n, normals, awkward_translate(rng, n, normals, offsets)))
        counts = {c: cases.count(c) for c in set(cases)}
        assert set(counts) == {"no-span", "empty", "unbounded", "flat", "bounded"}, counts
        for make in (octahedron, square_pyramid):
            P = make()
            for _ in range(5):
                offsets = awkward_translate(rng, 3, P.normals, P.offsets)
                assert check_against_oracle(3, P.normals, offsets) == "bounded"

    @pytest.mark.parametrize("seed", [6, 7])
    def test_translated_ladder_products_match_brute_force(self, seed):
        rng = random.Random(seed)
        for n, normals, offsets in ladder_products(seed):
            offsets = awkward_translate(rng, n, normals, offsets)
            assert max(o.denominator for o in offsets) > 1000
            assert_matches_oracle(HPolytope(n, normals, offsets), brute_force_vertices(n, normals, offsets))

    @pytest.mark.parametrize("n,normals,offsets,message", [
        (2, ((-1, 0), (0, -1)), (0, 0), "unbounded polytope: recession ray (1, 0)"),
        (1, ((1,),), (0,), "unbounded polytope: recession ray (-1,)"),
        (3, ((0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1)), (0, 1, 1, 1),
         "unbounded polytope: recession ray (0, -1, 0)"),
        (2, ((-2, -1), (0, -1), (2, -1), (2, 1)), (-1, 2, -2, 0), "empty polytope"),
        (1, ((1,), (-1,)), (-2, 0), "empty polytope"),
    ], ids=["quadrant", "half-line", "open-pyramid", "empty-with-rays", "empty-interval"])
    def test_messages_pinned_under_awkward_translation(self, n, normals, offsets, message):
        # a translation changes neither the dual simplex's pivots nor the walk's
        # edges, so the system and its translate fail with the same message
        rng = random.Random(n)
        for offs in (offsets, awkward_translate(rng, n, normals, offsets)):
            with pytest.raises(PolytopeError) as exc:
                HPolytope(n, normals, offs)
            assert str(exc.value) == message

    def test_hnf_work_guard(self, monkeypatch):
        # P8 x P8: n = 4, d = 16, V = 64.  Every n-subset would be C(16, 4)
        # = 1820 solves.  The Hermite form of all the normals shows that they
        # span and gives the dual simplex its first basis, so construction calls
        # no rank; that basis is feasible, and its one Hermite form gives the
        # start vertex, its edges and their determinant.  Every other vertex is
        # simple and reached from a simple vertex along an edge one facet blocks,
        # so its edges and determinant are pivoted from that vertex's, with no
        # Hermite form.  Every vertex is smooth, so the Delzant check reads each
        # determinant off the walk, and every vertex is simple, so the face
        # lattice reads each dimension off the facet count.
        calls, ranks = [], []
        orig = exactmath.hnf

        def counting(A):
            calls.append(len(A))
            return orig(A)

        monkeypatch.setattr(exactmath, "hnf", counting)
        monkeypatch.setattr(polytope, "hnf", counting)
        monkeypatch.setattr(polytope, "rank", lambda A: ranks.append(A) or exactmath.rank(A))
        n, normals, offsets = product([OCTAGON, OCTAGON])
        P = HPolytope(n, normals, offsets)
        assert len(enumerate_vertices(P)) == 64
        assert len(calls) <= 64 * 4 + 4 * 16
        assert ranks == [] and calls.count(16) == 1
        assert len(calls) == 2  # the full normals, and the start basis, which gives its edges too
        calls.clear()
        assert validate_delzant(P).ok
        assert calls == []
        assert len(face_lattice(P)) == 17 * 17
        assert calls == [] and ranks == []

    def test_walk_work_guard(self, monkeypatch):
        # P8 x P8: V = 64 vertices, each simple with n = 4 edges, so E = 128.
        # An edge is known by the facets it lies in and is walked once, from
        # the end reached first, so the walk makes one ratio test per edge,
        # where walking each edge from both ends would make 2E.  Every vertex
        # but the start is reached first from a simple vertex along an edge one
        # facet blocks, so 63 pivots give the other vertices their edges and
        # carry those edges' pairings with the normals: the walk pairs an edge
        # with the normals by products only for the start vertex's n = 4 edges,
        # d = 16 products each.  Counted: every product of a normal with an edge
        # tuple the walk kept (the dual simplex pairs the normals with its
        # integer point, a list).
        calls, ratio_tests, pivots = [], [], []
        monkeypatch.setattr(polytope, "dot", lambda a, b: calls.append((a, b)) or exactmath.dot(a, b))
        blocking, pivot = polytope._blocking, polytope._pivot_edges
        monkeypatch.setattr(polytope, "_blocking", lambda S, p: ratio_tests.append(p) or blocking(S, p))
        monkeypatch.setattr(polytope, "_pivot_edges", lambda *a: pivots.append(a) or pivot(*a))
        P = HPolytope(*product([OCTAGON, OCTAGON]))
        assert len(enumerate_vertices(P)) == 64
        edges = {u for us, _ in P._edges.values() for u in us}
        paired = [(a, u) for a, u in calls
                  if type(u) is tuple and u in edges and any(a is x for x in P.normals)]
        _, S, _, _ = polytope._start_vertex(P)
        start_edges, _ = P._edges[tuple(i for i, s in enumerate(S) if s == 0)]
        assert len(start_edges) == 4
        assert paired == [(a, u) for u in start_edges for a in P.normals]
        assert len(ratio_tests) == 128 and len(pivots) == 63

    def test_sort_work_guard(self, monkeypatch):
        # P8 x P8: the Delzant check and the face lattice find each vertex's edge
        # record and file its faces by the sorted facet key the walk kept, so
        # neither sorts an active set again
        P = HPolytope(*product([OCTAGON, OCTAGON]))
        sorts = []
        monkeypatch.setattr(polytope, "sorted", lambda xs, **kw: sorts.append(xs) or sorted(xs, **kw),
                            raising=False)
        assert validate_delzant(P).ok and len(face_lattice(P)) == 17 * 17
        assert sorts and not any(isinstance(xs, frozenset) for xs in sorts)

    def test_unit_and_other_gcds(self, monkeypatch):
        # the neighbour step divides X, S and q, and a pivot an edge and its pairings,
        # by their gcd only when it is not 1; the oracle cases take both branches of each
        seen = set()

        def spy(*args):
            g = math.gcd(*args)
            seen.add((sys._getframe(1).f_code.co_name, g == 1))
            return g
        monkeypatch.setattr(polytope, "gcd", spy)
        rng = random.Random(31)
        for i in range(200):
            n, normals, offsets = random_system(rng)
            check_against_oracle(n, normals, awkward_translate(rng, n, normals, offsets) if i % 2 else offsets)
        for n, normals, offsets in ladder_products(9)[-8:]:
            assert_matches_oracle(HPolytope(n, normals, offsets), brute_force_vertices(n, normals, offsets))
        assert {(site, unit) for site in ("enumerate_vertices", "_pivot_edges")
                for unit in (True, False)} <= seen

    def test_coordinates_made_once(self):
        # the unit 5-cube: 32 vertices, 160 coordinates, each 0 or 1 over the
        # same denominator, so the walk makes two Fractions and shares them
        verts = enumerate_vertices(catalog.box([1] * 5))
        coords = [x for v, _ in verts for x in v]
        assert len(coords) == 160 and set(coords) == {0, 1}
        assert len({id(x) for x in coords}) == 2


class TestFaceLattice:
    def test_cp2_counts(self, cp2):
        faces = face_lattice(cp2)
        by_dim = {d: sum(1 for f in faces if f.dim == d) for d in (0, 1, 2)}
        assert by_dim == {0: 3, 1: 3, 2: 1}

    def test_square_counts(self, square):
        faces = face_lattice(square)
        by_dim = {d: sum(1 for f in faces if f.dim == d) for d in (0, 1, 2)}
        assert by_dim == {0: 4, 1: 4, 2: 1}

    def test_interval(self):
        P = catalog.box([1])
        faces = face_lattice(P)
        assert [f.dim for f in faces] == [0, 0, 1]

    def test_euler_alternating_sum(self, cp2, hirzebruch):
        for P in (cp2, hirzebruch, catalog.cp3()):
            total = sum((-1) ** f.dim for f in face_lattice(P))
            assert total == 1

    @pytest.mark.parametrize("make", [
        catalog.unit_square, catalog.non_delzant_triangle, catalog.cp3,
        lambda: HPolytope(*product([OCTAGON, OCTAGON])), octahedron, square_pyramid,
    ], ids=["square", "bad-triangle", "cp3", "P8xP8", "octahedron", "pyramid"])
    def test_minimal_face_before_lattice(self, make):
        # the criterion asks a fresh polytope for the minimal faces of its
        # endpoints before, if ever, the lattice: the faces it gets, and the
        # lattice after them, are those of a polytope asked for the lattice first
        lattice = face_lattice(make())
        P = make()
        for f in reversed(lattice):
            bary = tuple(sum(v[j] for v in f.vertices) / len(f.vertices) for j in range(P.n))
            assert minimal_face(P, bary) == f
        assert face_lattice(P) == lattice
        Q = make()
        assert minimal_face(Q, lattice[0].vertices[0]) == lattice[0]
        assert face_lattice(Q) == lattice


class TestNonSimple:
    @pytest.mark.parametrize("name", sorted(NON_SIMPLE))
    def test_f_vector_and_euler(self, name):
        make, f_vector = NON_SIMPLE[name]
        faces = face_lattice(make())
        assert tuple(sum(1 for f in faces if f.dim == d) for d in range(4)) == f_vector
        assert sum((-1) ** f.dim for f in faces) == 1
        assert len(faces) == sum(f_vector)

    @pytest.mark.parametrize("name", sorted(NON_SIMPLE))
    def test_delzant_flags_exactly_the_non_simple_vertices(self, name):
        P = NON_SIMPLE[name][0]()
        rep = validate_delzant(P)
        non_simple = {v for v, act in enumerate_vertices(P) if len(act) > P.n}
        assert {v.vertex for v in rep.verdicts if not v.simple} == non_simple
        assert non_simple and not rep.ok

    def test_pyramid_apex(self):
        P = square_pyramid()
        f = minimal_face(P, (F(0), F(0), F(1)))
        assert f.active == frozenset({1, 2, 3, 4}) and f.dim == 0
        assert f.vertices == ((F(0), F(0), F(1)),)
        rep = validate_delzant(P)
        assert [v.vertex for v in rep.verdicts if not v.simple] == [(F(0), F(0), F(1))]

    @pytest.mark.parametrize("make", [
        catalog.unit_square, catalog.hirzebruch, catalog.non_delzant_triangle,
        lambda: catalog.cp2(3), catalog.cp3, lambda: catalog.box([2, 1, F(3, 2)]),
        octahedron, square_pyramid,
    ], ids=["square", "hirzebruch", "bad-triangle", "cp2", "cp3", "box3", "octahedron", "pyramid"])
    def test_lattice_matches_brute_force(self, make, monkeypatch):
        ranks = []
        monkeypatch.setattr(polytope, "rank", lambda A: ranks.append(A) or exactmath.rank(A))
        P = make()
        faces = face_lattice(P)
        # a face's dimension is n minus its facet count on a simple polytope; a
        # non-simple vertex makes every face take a rank
        simple = all(len(act) == P.n for _, act in enumerate_vertices(P))
        assert len(ranks) == (0 if simple else len(faces))
        oracle = brute_force_faces([act for _, act in enumerate_vertices(P)])
        assert {f.active for f in faces} == oracle and len(faces) == len(oracle)
        for f in faces:
            assert set(f.vertices) == {p for p, act in enumerate_vertices(P) if act >= f.active}
            assert f.dim == affine_dim(f.vertices)
            # the face at its barycentre is itself
            bary = tuple(sum(v[j] for v in f.vertices) / len(f.vertices) for j in range(P.n))
            assert minimal_face(P, bary) == f


class TestPointQuestions:
    """Point questions read the vertex records, whatever the size of the lattice."""

    @staticmethod
    def answers(P):
        n = P.n
        gamma = [[0, 1]] + [[0, 0, 0, F(1, 2)]] * (n - 1)  # (s, s^3/2, ..., s^3/2) on [0, 1]
        K = CircleEmbedding((1,) * n)
        corner, mid = (F(1),) + (F(0),) * (n - 1), (F(1),) + (F(1, 2),) * (n - 1)
        return (check_lift(P, gamma, (0, 1), K).to_dict(), repr(build_graph(P, gamma, (0, 1), 1, K)),
                check_lift(P, gamma, (0, 1), K, (None, corner)).to_dict(), minimal_face(P, mid),
                points_equivalent(P, ((F(1, 3),) * n, corner), ((F(2, 3),) + (F(1, 3),) * (n - 1), corner)))

    def test_box10_without_lattice(self, monkeypatch):
        # 3^10 faces, of which the criterion needs two: no answer may build them all
        expected = self.answers(catalog.box([1] * 10))

        def refuse(P):
            raise AssertionError("face_lattice called")
        made, face = [], polytope.Face
        monkeypatch.setattr(polytope, "face_lattice", refuse)
        monkeypatch.setattr(polytope, "Face", lambda *a: made.append(a) or face(*a))
        got = self.answers(catalog.box([1] * 10))
        assert got == expected
        # check_lift, with default and given chart vertices, and build_graph read the vertex
        # records and build no face; minimal_face and points_equivalent build one face each
        assert len(made) == 2
        assert expected[0]["verdict"] == "reject" and len(expected[3].vertices) == 2 ** 9
        assert expected[4] is True

    def test_pyramid_apex_takes_one_rank(self, monkeypatch):
        # a non-simple polytope takes one rank per point question, for its dimension
        P = square_pyramid()
        ranks = []
        monkeypatch.setattr(polytope, "rank", lambda A: ranks.append(A) or exactmath.rank(A))
        f = minimal_face(P, (F(0), F(0), F(1)))
        assert f.dim == 0 and len(ranks) == 1


class TestMemo:
    def test_dropped_polytope_is_freed(self):
        P = catalog.box([F(5, 3), F(7, 4)])
        face_lattice(P)
        minimal_face(P, (F(0), F(1)))
        check_lift(P, [[0, 1], [0]], (0, 1), CircleEmbedding((1, 0)), ((0, 0), None))
        check_lift(P, [[0, 1], [0]], (0, 1), CircleEmbedding((1, 0)))  # the kept endpoint charts refer back to P
        assert P._endpoint_charts
        ref = weakref.ref(P)
        del P
        gc.collect()
        assert ref() is None


def active_at(P, v):
    """The active facet set that enumerate_vertices stores for vertex v."""
    return dict(enumerate_vertices(P))[tuple(map(F, v))]


class TestEdgeVectors:
    def test_cp2_origin(self, cp2):
        assert active_at(cp2, (0, 0)) == frozenset({0, 1})
        assert edge_vectors_at_vertex(cp2, frozenset({0, 1})) == [(1, 0), (0, 1)]

    def test_cp2_far_vertex(self, cp2):
        cols = edge_vectors_at_vertex(cp2, active_at(cp2, (3, 0)))
        assert set(cols) == {(-1, 0), (-1, 1)}

    def test_non_simple_vertex_edges(self):
        # the apex of the square pyramid has four edges, one per base corner
        P = square_pyramid()
        assert sorted(edge_vectors_at_vertex(P, active_at(P, (0, 0, 1)))) == [
            (-1, -1, -1), (-1, 1, -1), (1, -1, -1), (1, 1, -1)]

    @pytest.mark.parametrize("make,facets", [
        (lambda: catalog.cp2(3), {0}), (lambda: catalog.cp2(3), {0, 1, 2}),
        (lambda: catalog.cp2(3), ()), (lambda: catalog.cp2(3), [0, 7]),
        (octahedron, {0, 1, 2}), (square_pyramid, {1, 2, 3}),
    ], ids=["cp2-facet", "cp2-all", "cp2-empty", "cp2-no-facet", "octahedron-three", "pyramid-three"])
    def test_not_a_vertex_rejected(self, make, facets):
        # a set that is no vertex's active set is named in the error, and the
        # memo keeps exactly the vertices' sorted active sets
        P = make()
        keys = {tuple(sorted(act)) for _, act in enumerate_vertices(P)}
        assert set(P._edges) == keys
        with pytest.raises(PolytopeError, match=re.escape(
                f"facets {sorted(facets)} are not the active set of a vertex")):
            edge_vectors_at_vertex(P, facets)
        assert set(P._edges) == keys

    def test_columns_follow_sorted_facet_order(self, cp2):
        # any iterable of the active facets gives the columns in facet order
        assert edge_vectors_at_vertex(cp2, [2, 1]) == edge_vectors_at_vertex(cp2, frozenset({1, 2}))

    def test_hirzebruch_top_vertex(self, hirzebruch):
        cols = edge_vectors_at_vertex(hirzebruch, active_at(hirzebruch, (1, 1)))
        assert set(cols) == {(-1, 0), (1, -1)}

    def test_pairing_signs(self, cp2, hirzebruch):
        # each column pairs to zero with every active normal except the one
        # it relaxes, where the pairing is negative
        for P in (cp2, hirzebruch, catalog.cp3(), catalog.non_delzant_triangle()):
            for v, active in enumerate_vertices(P):
                cols = edge_vectors_at_vertex(P, active)
                act = sorted(active)
                for j, u in enumerate(cols):
                    for k, fi in enumerate(act):
                        pair = sum(u[i] * P.normals[fi][i] for i in range(P.n))
                        if k == j:
                            assert pair < 0
                        else:
                            assert pair == 0


def kernel_edges_oracle(normals, n, key):
    """Edges at a vertex with the sorted active facets `key`, one integer kernel per
    (n-1)-subset of them: the computation the Hermite form replaces at simple vertices."""
    cols = []
    for rest in itertools.combinations(key[::-1], n - 1):
        sub = [normals[f] for f in rest]
        kern = integer_kernel_basis(sub) if sub else [tuple(row) for row in identity_matrix(n)]
        if len(kern) != 1:
            continue
        u = kern[0]
        pairs = [dot(u, normals[f]) for f in key]
        if max(pairs) > 0:
            if min(pairs) < 0:
                continue
            u = tuple(-x for x in u)
        if u not in cols:
            cols.append(u)
    return cols


def random_simplex(rng):
    """A simplex with a random simple vertex: n <= 5 independent primitive normals
    A_S (entries -3..3) through a rational point, cut off by -sum(A_S)."""
    n = rng.randint(1, 5)
    while True:
        normals = []
        while len(normals) < n:
            a = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(a) and primitive(a) == a and a not in normals:
                normals.append(a)
        if int_det(normals):
            cut = primitive([-sum(col) for col in zip(*normals)])
            if cut not in normals:
                break
    v = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    offsets = [dot(a, v) for a in normals] + [dot(cut, v) + F(rng.randint(1, 9), rng.randint(1, 5))]
    return HPolytope(n, normals + [cut], offsets)


def assert_edges_match_kernels(P):
    """Every vertex's edges are the kernel oracle's, in order and sign, and each
    reported determinant is that of the edges."""
    verdicts = validate_delzant(P).verdicts
    for (v, act), verdict in zip(enumerate_vertices(P), verdicts):
        edges = edge_vectors_at_vertex(P, act)
        assert edges == kernel_edges_oracle(P.normals, P.n, sorted(act)), v
        assert verdict.vertex == v
        if verdict.simple:
            assert verdict.det == int_det(edges) and verdict.smooth == (abs(verdict.det) == 1)


# the catalog, a det-3 corner, and the octahedron and square pyramid with their
# non-simple vertices
CATALOG_AND_NON_SIMPLE = pytest.mark.parametrize("make", [
    catalog.unit_square, catalog.hirzebruch, catalog.non_delzant_triangle,
    lambda: catalog.cp2(3), catalog.cp3, lambda: catalog.box([2, 1, F(3, 2)]),
    lambda: HPolytope(2, ((1, 2), (2, 1), (-1, 0), (0, -1)), (F(1), F(1), F(0), F(0))),
    octahedron, square_pyramid,
], ids=["square", "hirzebruch", "bad-triangle", "cp2", "cp3", "box3", "det-3", "octahedron", "pyramid"])


class TestOneHermiteForm:
    """Simple-vertex edges and determinants, from the start basis, a pivot or kernels,
    against a kernel per facet."""

    def test_random_simple_vertices(self):
        rng = random.Random(1318)
        dets = set()
        for _ in range(300):
            P = random_simplex(rng)
            assert_edges_match_kernels(P)
            dets.add(abs(int_det(P.normals[:P.n])))
        assert {1, 2, 3} <= dets and max(dets) > 3, sorted(dets)

    @CATALOG_AND_NON_SIMPLE
    def test_catalog(self, make):
        # the octahedron's vertices and the pyramid's apex are not simple: they keep
        # a kernel per subset, while the pyramid's base corners are simple
        assert_edges_match_kernels(make())

    def test_ladder_products(self):
        # the T rungs have a vertex with |det A_S| = 2, and so a reported |det| = 2
        bad = []
        for n, normals, offsets in ladder_products(8):
            P = HPolytope(n, normals, offsets)
            assert_edges_match_kernels(P)
            bad += [v.det for v in validate_delzant(P).failures()]
        assert bad and {abs(d) for d in bad} == {2}


def fraction_start_vertex(P):
    """The dual simplex of `_start_vertex` in Fractions, on a bounded P: the
    reference for its integer state."""
    n = P.n
    H, _ = hnf(P.normals)
    basis = [next(i for i, row in enumerate(H) if row[k]) for k in range(n)]
    y = [F(1)] * n
    while True:
        H, U = hnf([P.normals[i] for i in basis])
        z = []
        for i, row in zip(basis, H):
            z.append((P.offsets[i] - sum(h * zj for h, zj in zip(row, z))) / row[len(z)])
        x = tuple(sum(u * zj for u, zj in zip(urow, z)) for urow in U)
        enter = next((i for i, (a, lam) in enumerate(zip(P.normals, P.offsets)) if dot(a, x) > lam), None)
        if enter is None:
            return x
        v = [dot(ucol, P.normals[enter]) for ucol in zip(*U)]
        w = [F(0)] * n
        for k in reversed(range(n)):
            w[k] = F(v[k] - sum(H[j][k] * w[j] for j in range(k + 1, n)), H[k][k])
        theta, _, out = min((y[j] / w[j], basis[j], j) for j in range(n) if w[j] > 0)
        y = [yj - theta * wj for yj, wj in zip(y, w)]
        y[out], basis[out] = theta, enter


def hermite_record(P, key):
    """(edges, det A_S) at a simple vertex with the sorted active facets `key`, from one
    Hermite form of A_S: the reference for the records the walk keeps.

    H, U = hnf(A_S) has H = A_S U lower triangular and det U = +1, so
    D = det A_S is the diagonal product of H and -A_S^-1 = -U H^-1.  As
    D H^-1 = adj H is integral, column j of D H^-1 is found by forward
    substitution with exact integer division, and edge j is the primitive
    vector along -sign(D) U times it.
    """
    n = P.n
    H, U = hnf([P.normals[f] for f in key])
    D = math.prod(H[i][i] for i in range(n))
    s = -1 if D > 0 else 1
    cols = []
    for j in range(n):
        y = [0] * n  # column j of D H^-1: zero above row j, as H is lower triangular
        y[j] = D // H[j][j]
        for k in range(j + 1, n):
            y[k] = -sum(H[k][i] * y[i] for i in range(j, k)) // H[k][k]  # exact
        cols.append(primitive([s * dot(urow, y) for urow in U]))
    return tuple(cols), D


def assert_walk_state(P):
    """Every simple vertex's kept (edges, D), from the start basis, a pivot or kernels,
    is a fresh Hermite form's, in order and sign; the start state (X, S, q) is the
    Fraction dual simplex's vertex X / q with its slacks S / q, reduced, and its
    record is the Hermite form's of n of its active facets, the one kept when the
    start vertex is simple.  Called on a P fresh from construction, whose walk has
    kept the record of every vertex."""
    verts = enumerate_vertices(P)
    assert set(P._edges) == {tuple(sorted(act)) for _, act in verts}
    for key, entry in P._edges.items():
        if len(key) == P.n:
            assert entry == hermite_record(P, key), key
    X, S, q, record = polytope._start_vertex(P)
    x = fraction_start_vertex(P)
    assert q > 0 and math.gcd(q, *S, *X) == 1
    assert [F(xk, q) for xk in X] == list(x)
    assert [F(s, q) for s in S] == [lam - dot(a, x) for a, lam in zip(P.normals, P.offsets)]
    start = tuple(i for i, s in enumerate(S) if s == 0)
    assert (x, frozenset(start)) in verts
    assert record in [hermite_record(P, sub) for sub in itertools.combinations(start, P.n)
                      if int_det([P.normals[f] for f in sub])]
    if len(start) == P.n:
        assert record == P._edges[start]


def build_and_check_pivots(monkeypatch, n, normals, offsets):
    """Construct P and `assert_walk_state`; returns (P, the simple vertices whose
    records no pivot gave during construction, the number pivoted)."""
    pivoted = []
    orig = polytope._pivot_edges

    def pivot(P, key, edges, D, pairs, j, b):
        pivoted.append(tuple(sorted(key[:j] + key[j + 1:] + (b,))))  # the neighbour's active set
        return orig(P, key, edges, D, pairs, j, b)

    monkeypatch.setattr(polytope, "_pivot_edges", pivot)
    P = HPolytope(n, normals, offsets)
    monkeypatch.setattr(polytope, "_pivot_edges", orig)
    assert_walk_state(P)
    made = [key for key in P._edges if len(key) == n and key not in pivoted]
    return P, made, len(pivoted)


def through_vertices(rng, P, k):
    """(n, normals, offsets) of P with a facet added through k of its vertices, its
    normal a positive combination of their active normals: those vertices become
    non-simple, the others stay as they were."""
    verts = enumerate_vertices(P)
    normals, offsets = list(P.normals), list(P.offsets)
    for v, act in rng.sample(verts, min(k, len(verts))):
        a = [sum(rng.randint(1, 3) * P.normals[i][m] for i in sorted(act)) for m in range(P.n)]
        if any(a) and primitive(a) not in normals:
            a = primitive(a)
            normals.append(a)
            offsets.append(dot(a, v))
    return P.n, normals, offsets


def polygon_product(k, copies):
    """The product of copies of one Delzant k-gon, cut as the ladder cuts its factors."""
    rng = random.Random(k)
    return product([ladder_factor(rng, f"P{k}")] * copies)


class TestPivotedEdges:
    """Edges and determinants pivoted from the vertex the walk came from, and the
    integer start state, against a fresh Hermite form and the Fraction dual simplex."""

    def test_random_systems(self, monkeypatch):
        # every other system is moved by a vector with denominators up to 10^4,
        # and every other bounded one gets facets through two of its vertices;
        # a simple vertex first reached from a non-simple one, or by a step that
        # several facets block, takes its record from kernels
        rng = random.Random(1515)
        pivoted = later_kernel = mixed = 0
        for i in range(1200):
            n, normals, offsets = random_system(rng)
            try:
                if i % 4 >= 2:
                    n, normals, offsets = through_vertices(rng, HPolytope(n, normals, offsets), 2)
                if i % 2:
                    offsets = awkward_translate(rng, n, normals, offsets)
                P, made, piv = build_and_check_pivots(monkeypatch, n, normals, offsets)
            except PolytopeError:
                continue
            pivoted += piv
            later_kernel += len(made) - (len(made) > 0)  # beyond the start vertex's
            sizes = {len(act) for _, act in enumerate_vertices(P)}
            mixed += n in sizes and len(sizes) > 1
        assert pivoted > 400 and later_kernel > 20 and mixed > 20, (pivoted, later_kernel, mixed)

    @pytest.mark.parametrize("make", [octahedron, square_pyramid])
    def test_non_simple(self, make, monkeypatch):
        # the pyramid's base corners are simple, its apex is not
        P = make()
        rng = random.Random(3)
        for offsets in (P.offsets, awkward_translate(rng, 3, P.normals, P.offsets)):
            build_and_check_pivots(monkeypatch, 3, P.normals, offsets)

    @pytest.mark.parametrize("system", [
        product([OCTAGON, OCTAGON]), polygon_product(10, 2),
        product([OCTAGON, OCTAGON, ([(-1,), (1,)], [F(0), F(1)])]), polygon_product(12, 2),
    ], ids=["P8xP8", "P10xP10", "P8xP8xI", "P12xP12"])
    def test_large_products(self, system, monkeypatch):
        # every vertex is simple, so only the start vertex's record is not pivoted:
        # it is the dual simplex's, from the Hermite form of its basis
        P, made, pivoted = build_and_check_pivots(monkeypatch, *system)
        assert len(made) == 1 and pivoted == len(P._edges) - 1


class TestStartRecord:
    """The record the dual simplex hands the walk for its start vertex, and the record
    the walk builds from kernels at a simple vertex no pivot reaches, against a fresh
    Hermite form and `edge_vectors_at_vertex`."""

    def test_infeasible_first_basis(self, monkeypatch):
        # drawn from random_system: the first basis {0, 1, 2, 3} is infeasible, and
        # six exchanges, each re-sorting the basis, reach the start vertex on the
        # facets {2, 4, 5, 6}, with det A_S = -6
        normals = [(1, 0, 0, -1), (1, -1, -1, 0), (-1, 2, 1, 2), (0, -1, -2, 0),
                   (-1, 0, -2, 0), (1, 1, -2, 2), (2, -1, 0, 0), (0, -2, 1, -2)]
        offsets = [F(3), F(3), F(2), F(3, 2), F(-1), F(-4), F(-5, 2), F(5, 2)]
        P = HPolytope(4, normals, offsets)
        calls = []
        monkeypatch.setattr(polytope, "hnf", lambda A: calls.append(A) or hnf(A))
        X, S, q, record = polytope._start_vertex(P)
        assert len(calls) == 8  # the full normals, then one factorization per basis
        assert [sorted(map(normals.index, map(tuple, A))) for A in calls[1:]] == [
            list(map(normals.index, map(tuple, A))) for A in calls[1:]]  # each basis sorted
        key = tuple(i for i, s in enumerate(S) if s == 0)
        assert key == (2, 4, 5, 6)
        assert record == hermite_record(P, key) and record[1] == -6
        assert list(record[0]) == edge_vectors_at_vertex(P, key)
        assert P._edges[key] == record
        build_and_check_pivots(monkeypatch, 4, normals, offsets)

    def test_simple_vertices_reached_from_non_simple_start(self, monkeypatch):
        # a triangle with a redundant facet through the corner on facets 0 and 1:
        # the walk starts there, at a non-simple vertex, and the two simple corners
        # are reached from it alone, so neither record comes from a pivot
        normals = [(-1, 1), (1, 1), (1, -2), (1, 0), (-1, 3)]
        offsets = [F(6), F(0), F(1), F(3), F(12)]
        P, made, pivoted = build_and_check_pivots(monkeypatch, 2, normals, offsets)
        assert [sorted(act) for _, act in enumerate_vertices(P)] == [[0, 2], [0, 1, 4], [1, 2]]
        assert sorted(made) == [(0, 2), (1, 2)] and pivoted == 0
        for key, D in (((0, 2), 1), ((1, 2), -3)):
            assert P._edges[key] == hermite_record(P, key) and P._edges[key][1] == D
            assert list(P._edges[key][0]) == edge_vectors_at_vertex(P, key)
        assert P._edges[(0, 1, 4)][1] is None


def build_with_pivots(n, normals, offsets):
    """Construct P, recording what `_pivot_edges` returned; returns (P, those results)."""
    made, orig = [], polytope._pivot_edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_pivot_edges", lambda *a: made.append(orig(*a)) or made[-1])
        P = HPolytope(n, normals, offsets)
    return P, made


def assert_carried_pairings_and_face_order(P, made):
    """Each pairing vector a pivot returned is that of its edge with every normal, by
    products, and face_lattice comes already in (dim, sorted active) order."""
    for (edges, _), pairs in made:
        assert pairs == [[dot(a, w) for a in P.normals] for w in edges]
    faces = face_lattice(P)
    assert faces == sorted(faces, key=lambda f: (f.dim, sorted(f.active)))


class TestCarriedPairings:
    """The pairings a pivot carries to the next vertex, and the order face_lattice
    returns the faces in, against products with every normal and a sort."""

    @CATALOG_AND_NON_SIMPLE
    def test_catalog(self, make):
        P = make()
        P, made = build_with_pivots(P.n, P.normals, P.offsets)
        assert_carried_pairings_and_face_order(P, made)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(LADDER), st.integers(0, 2 ** 32), st.integers(0, 2))
    @example(("T", "P4"), 0, 0)
    @example(("T", "P4", "I"), 1, 2)
    @example(("P5", "P4", "I"), 2, 1)
    def test_ladder_products(self, codes, seed, through):
        # `through` facets added through as many vertices make those vertices
        # non-simple; the T rungs have a vertex with |det A_S| = 2
        rng = random.Random(seed)
        n, normals, offsets = ladder_product(rng, codes)
        if through:
            n, normals, offsets = through_vertices(rng, HPolytope(n, normals, offsets), through)
        P, made = build_with_pivots(n, normals, offsets)
        assert_carried_pairings_and_face_order(P, made)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_non_simple_ladder_products(self, seed):
        # vertices made non-simple among simple ones: the pivots that remain carry
        # the pairings, and the faces, each with a rank, come in lattice order
        rng = random.Random(seed)
        pivoted = non_simple = 0
        for codes in LADDER:
            n, normals, offsets = through_vertices(rng, HPolytope(*ladder_product(rng, codes)), 2)
            P, made = build_with_pivots(n, normals, offsets)
            assert_carried_pairings_and_face_order(P, made)
            pivoted += len(made)
            non_simple += not P._simple
        assert pivoted > 50 and non_simple > 5, (pivoted, non_simple)


class TestDelzant:
    def test_catalog_passes(self, cp2, square, hirzebruch):
        for P in (cp2, square, hirzebruch, catalog.cp3()):
            rep = validate_delzant(P)
            assert rep.ok, rep.failures()
            assert all(abs(v.det) == 1 for v in rep.verdicts)

    def test_bad_triangle(self, bad_triangle):
        rep = validate_delzant(bad_triangle)
        assert not rep.ok
        bad = rep.failures()
        assert len(bad) == 1
        assert bad[0].vertex == (F(1), F(0))
        assert abs(bad[0].det) == 2


class TestQuasitoric:
    def test_cp2_signed_normals(self, cp2):
        # sign choices making each vertex determinant +1
        rep = validate_quasitoric(cp2, [(1, 0), (0, 1), (-1, 1)])
        assert rep.ok

    def test_repeated_vector_on_parallel_facets_ok(self, square):
        # parallel facets never meet at a vertex, so they may share a vector
        rep = validate_quasitoric(square, [(1, 0), (1, 0), (0, 1), (0, 1)])
        assert rep.ok
        assert all(d == 1 for _, d in rep.vertex_dets)

    def test_strict_vs_relaxed(self, square):
        vectors = [(1, 0), (1, 0), (0, 1), (0, -1)]
        strict = validate_quasitoric(square, vectors, strict=True)
        relaxed = validate_quasitoric(square, vectors, strict=False)
        assert set(d for _, d in strict.vertex_dets) == {1, -1}
        assert relaxed.ok
        assert not strict.ok

    def test_repeated_vector_on_adjacent_facets(self, cp2):
        rep = validate_quasitoric(cp2, [(1, 0), (1, 0), (1, 1)], strict=False)
        assert not rep.ok
        assert any(d == 0 for _, d in rep.vertex_dets)

    def test_count_mismatch(self, cp2):
        with pytest.raises(PolytopeError):
            validate_quasitoric(cp2, [(1, 0)])

    @pytest.mark.parametrize("vectors,message", [
        ([(1, 0, 5), (0, 1, 7), (-1, 1, 9)],
         "facet vector 0 has length 3 and facet vector 1 has length 3 and facet vector 2 has length 3"),
        ([(1, 0), (0,), (-1, 1)], "facet vector 1 has length 1"),
    ], ids=["too-long", "too-short"])
    def test_vector_length_mismatch(self, cp2, vectors, message):
        with pytest.raises(PolytopeError) as exc:
            validate_quasitoric(cp2, vectors)
        assert str(exc.value) == f"the polytope has dimension 2, but {message}"

    @pytest.mark.parametrize("vector", [(-1.0, 1), (F(-1), 1), (-1, False)], ids=["float", "fraction", "bool"])
    def test_vector_entry_not_an_int_rejected(self, cp2, vector):
        # each of these was converted by int() to the vector (-1, 1) or (-1, 0)
        with pytest.raises(PolytopeError, match=re.escape(f"facet vector {vector}: expected integers")):
            validate_quasitoric(cp2, [(1, 0), (0, 1), vector])


class TestMinimalFace:
    def test_wrong_length_rejected(self, cp2):
        # the message points_equivalent gives, not the pairing helper's
        for r in ((F(1),), (0, 0, 0)):
            with pytest.raises(PolytopeError, match=f"^r has length {len(r)}, the polytope has dimension 2$"):
                minimal_face(cp2, r)

    def test_interior(self, cp2):
        f = minimal_face(cp2, (F(1), F(1)))
        assert f.active == frozenset() and f.dim == 2

    def test_edge_point(self, cp2):
        f = minimal_face(cp2, (F(1), F(0)))
        assert f.active == frozenset({1}) and f.dim == 1

    def test_vertex(self, cp2):
        f = minimal_face(cp2, (F(0), F(0)))
        assert f.active == frozenset({0, 1}) and f.dim == 0

    def test_outside_rejected(self, cp2):
        with pytest.raises(PolytopeError, match="outside the polytope"):
            minimal_face(cp2, (F(5), F(5)))

    def test_tight_facets(self, cp2):
        assert minimal_face(cp2, (F(3), F(0))).active == frozenset({1, 2})
        assert minimal_face(cp2, (F(1), F(1))).active == frozenset()
        with pytest.raises(PolytopeError, match="outside the polytope"):
            minimal_face(cp2, (F(-1), F(0)))
        with pytest.raises(PolytopeError, match="outside the polytope"):
            minimal_face(cp2, (F(0), F(4)))  # tight at facet 0, past facet 2

    @staticmethod
    def oracle(P, r):
        """(active set, dimension, vertices) of the face at r, by the slacks in Fractions, one at a time."""
        slacks = [lam - sum(F(x) * y for x, y in zip(r, a)) for a, lam in zip(P.normals, P.offsets)]
        if min(slacks) < 0:
            return None
        active = frozenset(i for i, s in enumerate(slacks) if s == 0)
        return active, P.n - len(active), tuple(v for v, act in enumerate_vertices(P) if act >= active)

    @pytest.mark.parametrize("r", [(1,) * 10, (F(1, 2),) * 10, (0,) + (F(1, 2),) * 9, (F(1, 3), 1) + (0,) * 8],
                             ids=["far-corner", "centre", "one-facet", "face"])
    def test_box10_against_fraction_slacks(self, r):
        P = catalog.box([1] * 10)
        f = minimal_face(P, r)
        assert (f.active, f.dim, f.vertices) == self.oracle(P, r)
        assert minimal_face(P, tuple(map(F, r))) == f

    @pytest.mark.parametrize("r", [(2,) + (F(1, 2),) * 9, (F(1, 2),) * 9 + (F(-1, 7),), (1,) * 9 + (F(11, 10),)])
    def test_box10_outside_names_the_point(self, r):
        P = catalog.box([1] * 10)
        assert self.oracle(P, r) is None
        for form in (r, tuple(map(F, r)), list(r)):
            with pytest.raises(PolytopeError, match=f"^{re.escape(f'point {format_point(r)} outside the polytope')}$"):
                minimal_face(P, form)


class TestTight:
    """`_tight`, the one rule for the facets tight at a point, which minimal_face and a given chart vertex share."""

    BOX = catalog.box([2, 1, F(3, 2)])  # facets 2i: x_i >= 0, 2i + 1: x_i <= L_i
    SEGMENT = HPolytope(1, ((-1,), (1,)), (0, F(5, 2)))
    TABLE = [
        ("cp2", (0, 0), {0, 1}), ("cp2", (3, 0), {1, 2}), ("cp2", (1, 0), {1}), ("cp2", (F(3, 2), F(3, 2)), {2}),
        ("cp2", (1, 1), set()), ("cp2", (0, 4), None), ("cp2", (-1, 0), None), ("cp2", (F(1, 3), F(-1, 5)), None),
        ("box", (2, 1, 0), {1, 3, 4}), ("box", (1, 0, 0), {2, 4}), ("box", (1, F(1, 2), 0), {4}),
        ("box", (2, F(1, 2), F(3, 4)), {1}), ("box", (1, F(1, 2), F(3, 4)), set()), ("box", (0, 2, 0), None),
        ("box", (F(5, 2), 0, F(3, 2)), None), ("segment", (0,), {0}), ("segment", (F(5, 2),), {1}),
        ("segment", (1,), set()), ("segment", (3,), None), ("segment", (F(-1, 2),), None),
    ]

    @pytest.mark.parametrize("name,r,expected", TABLE, ids=[f"{n}-{format_point(r)}" for n, r, _ in TABLE])
    def test_table(self, cp2, name, r, expected):
        # a vertex, an edge, a facet, the interior, one slack negative beside one at zero (cp2 (0, 4),
        # box (0, 2, 0)), a segment; ints and Fractions give one answer
        P = {"cp2": cp2, "box": self.BOX, "segment": self.SEGMENT}[name]
        want = None if expected is None else frozenset(expected)
        assert polytope._tight(P, r) == want
        assert polytope._tight(P, tuple(map(F, r))) == want and polytope._tight(P, list(r)) == want

    def test_vertex_gives_its_active_set(self, cp2):
        for P in (cp2, self.BOX, self.SEGMENT, catalog.hirzebruch(), octahedron()):
            for v, act in enumerate_vertices(P):
                assert polytope._tight(P, v) == act
                if all(x.denominator == 1 for x in v):
                    assert polytope._tight(P, tuple(map(int, v))) == act


class TestInSubtorus:
    """in_subtorus names a malformed generator or delta: a float or a bool is no integer entry."""

    @pytest.mark.parametrize("gens,delta,message", [
        (((1.5, 0),), (F(1, 2), 0), "got generator (1.5, 0) of length 2"),
        (((True, 0),), (F(1, 2), 0), "got generator (True, 0) of length 2"),
        (((1, 0), (F(1), 1)), (0, 0), "got generator (Fraction(1, 1), 1) of length 2"),
        (((1, 0, 0),), (0, 0), "got generator (1, 0, 0) of length 3"),
        (((1, 0),), (0, 0, 0), "got delta of length 3"),
        ((), (F(1, 2),), "got delta of length 1"),
    ], ids=["float", "bool", "fraction", "generator-length", "delta-length", "no-generators-delta-length"])
    def test_bad_shape_or_entry(self, gens, delta, message):
        with pytest.raises(ValueError, match=f"^in_subtorus: expected 2 integers in each generator and 2 "
                                             f"coordinates in delta, {re.escape(message)}$"):
            in_subtorus(gens, delta, 2)

    @pytest.mark.parametrize("delta,k", [((0.5, 0), 1), ((0, True), 2), ((F(1, 2), None), 2)])
    def test_delta_coordinate_named(self, delta, k):
        for gens in ((), ((1, 0),)):
            with pytest.raises(ValueError, match=f"^in_subtorus: delta, coordinate {k}: expected an int or a "
                                                 f"Fraction, got {re.escape(repr(delta[k - 1]))}$"):
                in_subtorus(gens, delta, 2)

    def test_answers(self):
        # the subtorus of (1, 0) holds every shift along x, and a y shift only by an integer
        assert in_subtorus(((1, 0),), (F(1, 2), 0), 2) and in_subtorus(((1, 0),), (F(1, 3), 5), 2)
        assert not in_subtorus(((1, 0),), (0, F(1, 2)), 2)
        assert in_subtorus((), (1, -2), 2) and not in_subtorus((), (F(1, 2), 0), 2)
        assert in_subtorus(((1, 0), (0, 1)), (F(1, 7), F(2, 9)), 2)
        assert in_subtorus(((1, 1),), (F(1, 4), F(5, 4)), 2) and not in_subtorus(((1, 1),), (F(1, 4), F(1, 2)), 2)


class TestCharacteristicSubtorus:
    def test_facet_circle(self, cp2):
        f = minimal_face(cp2, (F(3, 2), F(3, 2)))  # facet with normal (1,1)
        assert characteristic_subtorus(cp2, f) == ((1, 1),)

    def test_vertex_full_torus(self, cp2):
        f = minimal_face(cp2, (F(0), F(0)))
        assert len(characteristic_subtorus(cp2, f)) == 2

    def test_whole_polytope_trivial(self, cp2):
        f = minimal_face(cp2, (F(1), F(1)))
        assert len(characteristic_subtorus(cp2, f)) == 0

    def test_codimension_matches_rank(self, cp2, hirzebruch):
        for P in (cp2, hirzebruch, catalog.cp3()):
            for f in face_lattice(P):
                assert len(characteristic_subtorus(P, f)) == P.n - f.dim

    def test_dependent_generators_name_the_face(self):
        # four facets meet at each vertex of the octahedron, one too many for a 3-torus
        f = minimal_face(octahedron(), (F(1), F(0), F(0)))
        with pytest.raises(PolytopeError, match=r"^subtorus generators of face \[0, 1, 2, 3\] are linearly "
                                                r"dependent: 4 facets meet in codimension 3$"):
            characteristic_subtorus(octahedron(), f)


class TestPointsEquivalent:
    def test_facet_direction(self, cp2):
        r = (F(1), F(0))  # interior of facet with normal (0,-1)
        assert points_equivalent(cp2, ((F(1, 4), F(7, 10)), r), ((F(1, 4), F(1, 10)), r))

    def test_off_direction(self, cp2):
        r = (F(1), F(0))
        assert not points_equivalent(cp2, ((F(1, 4), F(7, 10)), r), ((F(9, 10), F(7, 10)), r))

    def test_vertex_collapses(self, cp2):
        r = (F(0), F(0))
        assert points_equivalent(cp2, ((F(1, 3), F(2, 7)), r), ((F(5, 6), F(1, 2)), r))

    def test_interior_singleton(self, cp2):
        r = (F(1), F(1))
        assert points_equivalent(cp2, ((F(1, 2), F(1, 2)), r), ((F(1, 2), F(1, 2)), r))
        assert not points_equivalent(cp2, ((F(1, 2), F(1, 2)), r), ((F(1, 2), F(1, 3)), r))

    def test_integer_shift_identified(self, cp2):
        r = (F(1), F(1))
        assert points_equivalent(cp2, ((F(3, 2), F(1, 2)), r), ((F(1, 2), F(5, 2)), r))

    def test_different_base_points(self, cp2):
        t = (F(0), F(0))
        assert not points_equivalent(cp2, ((t), (F(1), F(1))), ((t), (F(1), F(2))))

    @pytest.mark.parametrize("t2,r", [((F(1, 4), F(1, 10)), (1, 0)), ((F(9, 10), F(7, 10)), (1, 0)),
                                      ((F(5, 6), F(1, 2)), (0, 0)), ((F(1, 2), F(1, 3)), (1, 1))])
    def test_point_types(self, cp2, t2, r):
        # a list and an equal tuple, in ints or Fractions, are one point, and give the two-tuple answer
        t1 = (F(1, 4), F(7, 10))
        want = points_equivalent(cp2, (t1, tuple(map(F, r))), (t2, tuple(map(F, r))))
        for r1, r2 in ((list(r), tuple(r)), (list(map(F, r)), r), (tuple(r), list(map(F, r)))):
            assert points_equivalent(cp2, (t1, r1), (t2, r2)) is want
            assert points_equivalent(cp2, (list(t1), r2), (list(t2), r1)) is want
        # unequal points are never equivalent, whatever their types
        other = (r[0], r[1] + F(1, 2))
        for r1, r2 in ((list(r), other), (r, list(other)), (list(other), tuple(map(F, r)))):
            assert points_equivalent(cp2, (t1, r1), (t1, r2)) is False

    @pytest.mark.parametrize("r1,r2", [((5, 5), (1, 0)), ((1, 0), (5, 5)), ((1, 0), (-1, 0))])
    def test_outside_rejected(self, cp2, r1, r2):
        t = (F(0), F(0))
        with pytest.raises(PolytopeError, match="outside the polytope"):
            points_equivalent(cp2, (t, tuple(map(F, r1))), (t, tuple(map(F, r2))))

    @pytest.mark.parametrize("which", ["r1", "r2", "t1", "t2"])
    def test_wrong_dimension_rejected(self, cp2, which):
        args = {"r1": (F(1), F(0)), "r2": (F(1), F(0)), "t1": (F(1, 4), F(7, 10)), "t2": (F(1, 4), F(1, 10))}
        args[which] += (F(5),)
        with pytest.raises(PolytopeError, match=f"{which} has length 3, the polytope has dimension 2"):
            points_equivalent(cp2, (args["t1"], args["r1"]), (args["t2"], args["r2"]))

    def test_equivalence_relation_on_samples(self, cp2, square):
        torus_pts = [(F(a, 5), F(b, 4)) for a in range(3) for b in range(3)][:8]
        base_pts = [(F(1), F(1)), (F(1), F(0)), (F(0), F(0)), (F(3, 2), F(3, 2))]
        for P, bases in ((cp2, base_pts), (square, [(F(1, 2), F(1, 2)), (F(0), F(1, 2)), (F(1), F(1))])):
            for r in bases:
                rel ={(i, j): points_equivalent(P, (torus_pts[i], r), (torus_pts[j], r))
                       for i in range(len(torus_pts)) for j in range(len(torus_pts))}
                for i in range(len(torus_pts)):
                    assert rel[(i, i)]
                    for j in range(len(torus_pts)):
                        assert rel[(i, j)] == rel[(j, i)]
                        for k in range(len(torus_pts)):
                            if rel[(i, j)] and rel[(j, k)]:
                                assert rel[(i, k)]
