"""The lift verdict is a function of the geometry, not of the coordinates.

Over the distinct curves of lift-corpus seeds 1-5 and the stored chords
(bench/corpus.py, bench/chords.json), the verdict of `check_lift` must not
change under six changes of coordinates:

* a lattice change: a normal a becomes A a, a point x becomes A^-T x + c
  and K becomes A K, for A in GL(n, Z) and a rational shift c;
* a dilation of the offsets and of the curve by 5/2;
* the reversal s -> a + b - s, which also swaps the two endpoint reports,
  condition for condition, since both ends keep their default chart vertex;
* the affine reparametrization s = 2u + 1/3;
* the reversed circle K -> -K;
* every vertex of each endpoint's minimal face, passed as a chart vertex.

Two changes of P leave the surface the same near the curve, so they keep
the status of every report, over every curve of the set:

* the product with an interval: P x [0, 1], gamma x {1/2} and K x 0,
  whose lift is S x {point};
* a corner chop, a toric blow-up at a vertex v away from the curve: the
  facet <sum a_i, x> <= <sum a_i, v> - eps over the normals a_i active at
  v.  The default chart vertex of an endpoint may change.

The examples are two curves whose verdicts are open questions: the square
of ROADMAP item 13 (accepted, though the symplectic form vanishes at a
pole) and the edge of item 3 (rejected for a weight ratio of 1/2).  This
file pins that their verdicts are invariant, not that they are right.
"""

import os
import sys
from fractions import Fraction
from operator import mul

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly_eval
from toriclift import catalog
from toriclift.chart import CircleEmbedding
from toriclift.criterion import check_lift
from toriclift.exactmath import isolate_root
from toriclift.polytope import HPolytope, PolytopeError, enumerate_vertices, minimal_face

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import corpus  # noqa: E402

F = Fraction
POLYTOPES = corpus.build_polytopes(catalog)


def _distinct_curves():
    chords = corpus.load_chords()
    seen = {}
    for c in [c for seed in range(1, 6) for c in corpus.lift_corpus(seed, chords)] + chords:
        seen.setdefault(c.label(), c)
    return list(seen.values())


CURVES = _distinct_curves()
ITEM13_SQUARE = corpus.Curve("item-13", "unit_square", [[0, 1, -1], [0, 1]], (0, 1), (1, -1), "accept")
ITEM3_EDGE = corpus.Curve("item-3", "unit_square", [[0, 1, 2], [0]], (0, F(1, 2)), (2, 1), "reject")

# row operations (i, d, t) on coordinates i and j = i + d mod n: add t times
# coordinate j to coordinate i, or flip the sign of coordinate i when j = i
row_ops = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from([-1, 1])), max_size=4)
shifts = st.lists(st.fractions(-2, 2, max_denominator=4), min_size=3, max_size=3)


def compose_linear(p, alpha, beta):
    """p(alpha s + beta) by Horner, in Fractions."""
    out = []
    for c in reversed(p):
        nxt = [F(0)] * (len(out) + 1)
        for k, x in enumerate(out):
            nxt[k] += x * beta
            nxt[k + 1] += x * alpha
        nxt[0] += c
        out = nxt
    return out


def unimodular(n, ops):
    """(A, A^-1) as integer row lists: A = E_k ... E_1 for the row operations E of `ops`."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    Ainv = [row[:] for row in A]
    for i, d, t in ops:
        i, j = i % n, (i + d) % n
        if i == j:  # E = E^-1 flips the sign of coordinate i
            A[i] = [-x for x in A[i]]
            for row in Ainv:
                row[i] = -row[i]
        else:  # E = I + t e_i e_j^T, E^-1 = I - t e_i e_j^T
            A[i] = [x + t * y for x, y in zip(A[i], A[j])]
            for row in Ainv:
                row[j] -= t * row[i]
    return A, Ainv


def apply(M, v):
    return tuple(sum(m * x for m, x in zip(row, v)) for row in M)


def lattice_change(P, gamma, K, ops, shift):
    """P, gamma and K in the coordinates x' = A^-T x + c, with normals A a and circle A K."""
    A, Ainv = unimodular(P.n, ops)
    c = shift[:P.n]
    normals = tuple(apply(A, a) for a in P.normals)
    offsets = tuple(lam + sum(x * y for x, y in zip(a, c)) for a, lam in zip(normals, P.offsets))
    deg = max(len(p) for p in gamma)
    coeff = [[p[k] if k < len(p) else 0 for k in range(deg)] for p in gamma]
    gamma2 = [[sum(Ainv[j][i] * coeff[j][k] for j in range(P.n)) + (c[i] if k == 0 else 0)
               for k in range(deg)] for i in range(P.n)]  # gamma' = A^-T gamma + c
    return HPolytope(P.n, normals, offsets), gamma2, apply(A, K)


def endpoint_rows(report):
    """An endpoint report without its name: a reject condition is located at the report name."""
    return [(c.condition, "" if c.location == report.name else c.location, c.outcome, c.detail)
            for c in report.conditions]


def endpoint_vertices(P, gamma, e):
    """The vertices of the minimal face of gamma(e), or none when gamma(e) lies outside P."""
    try:
        return minimal_face(P, [sum(F(x) * e ** k for k, x in enumerate(p)) for p in gamma]).vertices
    except PolytopeError:
        return ()


@given(curve=st.sampled_from(CURVES), ops=row_ops, shift=shifts)
@example(curve=ITEM13_SQUARE, ops=[(0, 1, 1)], shift=[F(1, 2)] * 3)
@example(curve=ITEM3_EDGE, ops=[(0, 0, 1), (1, 1, -1)], shift=[F(-1, 3)] * 3)
@settings(max_examples=250, deadline=None)
def test_verdict_is_invariant(curve, ops, shift):
    P, gamma, (a, b), K = POLYTOPES[curve.polytope], curve.coords, curve.interval, curve.circle
    base = check_lift(P, gamma, (a, b), CircleEmbedding(K))
    verdict, label = base.verdict, curve.label()

    P2, gamma2, K2 = lattice_change(P, gamma, K, ops, shift)
    assert check_lift(P2, gamma2, (a, b), CircleEmbedding(K2)).verdict == verdict, ("lattice", ops, label)

    r = F(5, 2)
    dilated = HPolytope(P.n, P.normals, tuple(r * lam for lam in P.offsets))
    assert check_lift(dilated, [[r * x for x in p] for p in gamma], (a, b),
                      CircleEmbedding(K)).verdict == verdict, ("dilation", label)

    reversed_ = check_lift(P, [compose_linear(p, -1, a + b) for p in gamma], (a, b), CircleEmbedding(K))
    assert reversed_.verdict == verdict, ("reversal", label)
    assert endpoint_rows(reversed_.reports[2]) == endpoint_rows(base.reports[3]), ("reversal", label)
    assert endpoint_rows(reversed_.reports[3]) == endpoint_rows(base.reports[2]), ("reversal", label)

    u = ((a - F(1, 3)) / 2, (b - F(1, 3)) / 2)
    assert check_lift(P, [compose_linear(p, 2, F(1, 3)) for p in gamma], u,
                      CircleEmbedding(K)).verdict == verdict, ("reparametrization", label)

    assert check_lift(P, gamma, (a, b), CircleEmbedding([-x for x in K])).verdict == verdict, ("-K", label)

    for ep, e in enumerate((a, b)):
        for o in endpoint_vertices(P, gamma, e):
            charts = (o, None) if ep == 0 else (None, o)
            assert check_lift(P, gamma, (a, b), CircleEmbedding(K), charts).verdict == verdict, \
                ("chart vertex", ep, o, label)


def statuses(verdict):
    return verdict.verdict, [r.status for r in verdict.reports]


def base_verdict(curve):
    return check_lift(POLYTOPES[curve.polytope], curve.coords, curve.interval, CircleEmbedding(curve.circle))


def interval_product(P):
    """P x [0, 1]: each normal gains a coordinate 0, and two facets bound the new one."""
    normals = [(*a, 0) for a in P.normals] + [(0,) * P.n + (1,), (0,) * P.n + (-1,)]
    return HPolytope(P.n + 1, normals, (*P.offsets, 1, 0))


def corner_cuts(P):
    """The facet (c, offset) that chops each simple vertex v of P: c the sum of its active
    normals, offset <c, v> - eps.  Along an edge from v, <c, x> falls by the lattice length
    travelled, and at any other vertex w by h(w) > 0, so eps = min(1/50, min h / 2) cuts off
    v alone.  A vertex whose c is already a normal of P is skipped."""
    verts, cuts = enumerate_vertices(P), []
    for v, active in verts:
        c = tuple(map(sum, zip(*(P.normals[i] for i in active))))
        if len(active) == P.n and c not in P.normals:
            top = sum(map(mul, c, v))
            h = min(top - sum(map(mul, c, w)) for w, _ in verts if w != v)
            cuts.append((c, top - min(F(1, 50), h / 2)))
    return cuts


def test_product_with_an_interval_keeps_every_report():
    products = {name: interval_product(P) for name, P in POLYTOPES.items()}
    for curve in CURVES:
        lifted = check_lift(products[curve.polytope], [*curve.coords, [F(1, 2)]], curve.interval,
                            CircleEmbedding((*curve.circle, 0)))
        assert statuses(lifted) == statuses(base_verdict(curve)), curve.label()


def test_corner_chop_away_from_the_curve_keeps_every_report():
    # the chop is clear of the curve when its slack is positive at a and b and has no root
    # between them; each clear chop of each curve is checked
    cuts = {name: corner_cuts(P) for name, P in POLYTOPES.items()}
    chopped = {}
    for curve in CURVES:
        P, (a, b), base, clear = POLYTOPES[curve.polytope], curve.interval, statuses(base_verdict(curve)), 0
        size = max(map(len, curve.coords))
        for c, offset in cuts[curve.polytope]:
            slack = [sum(-x * g[k] for x, g in zip(c, curve.coords) if k < len(g)) for k in range(size)]
            slack[0] += offset
            if poly_eval(slack, a) <= 0 or poly_eval(slack, b) <= 0 or isolate_root(slack, a, b) is not None:
                continue
            key = curve.polytope, c
            if key not in chopped:
                chopped[key] = HPolytope(P.n, (*P.normals, c), (*P.offsets, offset))
            got = check_lift(chopped[key], curve.coords, curve.interval, CircleEmbedding(curve.circle))
            assert statuses(got) == base, (curve.label(), c)
            clear += 1
        assert clear, curve.label()  # every curve of the set stays clear of some vertex
