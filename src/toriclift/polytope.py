"""H-representation polytopes: vertices, faces, Delzant/quasitoric checks,
the characteristic subtorus map, and the quotient identification rule.

A polytope is {x : <x, normal_i> <= offset_i} with primitive integer
normals and int or Fraction offsets.  Its combinatorics is read from the
vertex active sets.  The vertices are found by walking the edge graph
from one start vertex, which an exact dual simplex finds in integers, so
the work grows with the number of vertices rather than with the number
of n-subsets of facets; an edge that no facet blocks shows that P is
unbounded.  P keeps one vertex table, in vertex order: by each vertex's
sorted facet key, the tuple of its active facets, one record of its edges
and the determinant D of its active normals.  The start vertex's comes
from the Hermite form the dual simplex took of its basis; a simple
vertex reached from a simple one along an edge that one facet blocks
pivots the record of the vertex left, with its edges' pairings with
every normal, as lrs updates its dictionary (Avis, "lrs: a revised
implementation of the reverse search vertex enumeration algorithm",
2000); any other vertex takes a kernel per (n-1)-subset of its facets.
The Delzant and quasitoric checks read the keys from the table, with no
sort.  A point question scans the vertex records for the active sets that
hold the facets tight at it, which integer slacks give; `face_lattice` builds
every face per call, on a simple polytope as the subsets of the vertex
keys, a face with k facets of dimension n - k, else as the intersections
of the vertex active sets with a rank for each.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactmath import (
    IntVec,
    _check_point,
    _integer_polys,
    dot,
    hnf,
    int_det,
    integer_kernel_basis,
    is_int,
    is_rational,
    primitive,
    rank,
    saturation_index,
)

Point = tuple[Fraction, ...]


class PolytopeError(ValueError):
    """Invalid polytope data (unbounded, degenerate, malformed)."""


def format_point(p: Sequence[Fraction]) -> str:
    """A point for messages: (5, 0), (1/2, 3)."""
    return "(" + ", ".join(map(str, p)) + ")"


class HPolytope:
    """Bounded full-dimensional polytope in H-representation.

    Construction checks the data, then walks the vertices with
    `enumerate_vertices`: normals that do not span, an empty system, a
    recession ray and a facet tight on all of P are each a PolytopeError.
    Compared by identity.  It keeps the vertex table and the criterion's
    two memos; faces and charts are built per call.
    """

    def __init__(self, n: int, normals: Iterable[Sequence[int]], offsets: Iterable[Fraction]):
        if not is_int(n):
            raise PolytopeError(f"n: expected an integer, got {n!r}")
        if n < 1:
            raise PolytopeError(f"n: the dimension must be at least 1, got {n}")
        self.n = n
        self.normals = tuple(map(tuple, normals))
        self.offsets = tuple(offsets)
        if len(self.normals) != len(self.offsets):
            raise PolytopeError("normal/offset count mismatch")
        for o in self.offsets:
            if not is_rational(o):
                raise PolytopeError(f"offset {o!r}: expected an int or a Fraction")
        self.offsets = tuple(o if type(o) is Fraction else Fraction(o) for o in self.offsets)
        for a in self.normals:
            if len(a) != n:
                raise PolytopeError(f"facet normal {a} has length {len(a)}, the polytope has dimension {n}")
            if not all(map(is_int, a)):
                raise PolytopeError(f"facet normal {a}: expected integers")
            if not any(a):
                raise PolytopeError(f"facet normal {a} is zero")
            if primitive(a) != a:
                raise PolytopeError(f"facet normal {a} is not primitive")
        if len(set(self.normals)) != len(self.normals):
            raise PolytopeError("duplicate facet normal")
        # the vertex table of enumerate_vertices: the records, and (edges, D) by sorted active
        # tuple, both in vertex order
        self._vertices = None
        self._simple = False  # every vertex simple: set by the walk, read by face_lattice and _face
        self._edges = {}
        # memos of the criterion, filled on first use: the cleared offsets and negated normals
        # (criterion._map), the endpoint charts by tight facets
        self._cleared = None
        self._endpoint_charts = {}
        verts = enumerate_vertices(self)  # raises for an empty or unbounded system
        # full-dimensional iff no facet is tight on all of P, i.e. at every vertex
        if frozenset.intersection(*(active for _, active in verts)):
            raise PolytopeError("polytope is not full-dimensional")

    def __repr__(self):
        return f"HPolytope(n={self.n}, normals={self.normals}, offsets={self.offsets})"

    @property
    def d(self) -> int:
        return len(self.normals)


def _kernel(normals: Sequence[IntVec], n: int) -> list[IntVec]:
    """Z-basis of the lattice vectors orthogonal to every normal; Z^n when there are none."""
    if not normals:
        return [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return integer_kernel_basis(normals)


class Face(NamedTuple):
    """Face as its canonical active facet set plus vertex data."""

    active: frozenset[int]
    dim: int
    vertices: tuple[Point, ...]


def _start_vertex(P: HPolytope) -> tuple[list[int], list[int], int, tuple[tuple[IntVec, ...], int]]:
    """One vertex of P as the walk's integer state (X, S, q) and its basis's record
    (edges, D), by the exact dual simplex with Bland's rule: x = X / q, the
    facet slacks are S / q, q > 0 and gcd(q, *S, *X) = 1.

    The pivot rows of the Hermite form of all normals are n facets B, in
    ascending order, with independent normals; fewer than n pivots mean the
    normals do not span, so P is unbounded.  With c their normal sum, y = 1
    on B is feasible for the dual of max <c, x> over P: min <b, y> with
    A^T y = c, y >= 0.  The offsets are cleared once to integers lam over
    their lcm L.  Each step takes H, U = hnf(A_B): H = A_B U, det U = +1,
    D = det A_B is the diagonal product of H, and the integral D H^-1 comes
    by forward substitution with exact division, so M = U D H^-1 = D A_B^-1.
    X is sign(D) M lam_B over q = |D|, the slacks q lam_i - <a_i, X> over
    q L.  When none is negative X is the vertex, and its edge j, relaxing
    the j-th facet of B, is -sign(D) M_j made primitive.  Otherwise the
    smallest violated facet i enters, w_j = <M_j, a_i> / D solves
    A_B^T w = a_i, and the basis facet minimising y_j / w_j over w_j > 0
    (smallest index on ties) leaves, B kept sorted with y.  No w_j > 0
    means the dual is unbounded, so P is empty.
    """
    n = P.n
    H, _ = hnf(P.normals)
    if not any(row[-1] for row in H):  # the last column of H is zero iff rank < n
        raise PolytopeError("unbounded polytope: normals do not span")
    basis = [next(i for i, row in enumerate(H) if row[k]) for k in range(n)]
    L, (lam,) = _integer_polys(P.offsets)
    y = [Fraction(1)] * n
    while True:
        H, U = hnf([P.normals[i] for i in basis])
        D = prod(H[k][k] for k in range(n))
        M = []
        for j in range(n):
            z = [0] * n  # column j of D H^-1: zero above row j, as H is lower triangular
            z[j] = D // H[j][j]
            for k in range(j + 1, n):
                z[k] = -sum(H[k][i] * z[i] for i in range(j, k)) // H[k][k]  # exact
            M.append([dot(urow, z) for urow in U])
        sign, q = (1 if D > 0 else -1), abs(D)
        X = [sign * sum(m[k] * lam[i] for m, i in zip(M, basis)) for k in range(n)]
        S = [q * li - dot(a, X) for a, li in zip(P.normals, lam)]
        enter = next((i for i, s in enumerate(S) if s < 0), None)
        if enter is None:
            g = gcd(q * L, *S, *X)
            edges = tuple(primitive([-sign * x for x in m]) for m in M)
            return [xk // g for xk in X], [s // g for s in S], q * L // g, (edges, D)
        w = [Fraction(dot(m, P.normals[enter]), D) for m in M]
        ratios = [(y[j] / w[j], basis[j], j) for j in range(n) if w[j] > 0]
        if not ratios:
            raise PolytopeError("empty polytope")
        theta, _, out = min(ratios)
        y = [yj - theta * wj for yj, wj in zip(y, w)]
        y[out], basis[out] = theta, enter
        basis, y = map(list, zip(*sorted(zip(basis, y))))


def enumerate_vertices(P: HPolytope) -> list[tuple[Point, frozenset[int]]]:
    """All vertices with their full active facet sets, sorted lexicographically.

    The edge graph of a polytope is connected, so a walk over it from
    `_start_vertex` finds every vertex (Avis and Fukuda, "A pivoting
    algorithm for convex hulls and vertex enumeration of arrangements and
    polyhedra", DCG 1992).  Each vertex carries its point and its facet
    slacks as integer lists X and S over one denominator q > 0, x = X / q
    and slack_i = S_i / q; its active set is where the slacks vanish.  Along
    an edge u, with integer pairings p_i = <a_i, u>, the neighbour lies at
    step t = min S_i / (q p_i) over p_i > 0, found by cross-multiplying
    (`_blocking`); an edge that no facet blocks is a recession ray of an
    unbounded P.  At the neighbour X' = X p_b + S_b u and S' = S p_b - S_b p
    over q' = q p_b, b a blocking facet, all three divided by their gcd
    when it is not 1.  P keeps one record (edges, D) per vertex by sorted
    active set, D = det A_S or None when not simple, made as the walk
    leaves the vertex and filed in vertex order.  A simple start vertex's
    active set is the dual simplex's basis, whose record `_start_vertex`
    returns.  A neighbour reached from a simple vertex along an edge that
    b alone blocks is simple; its record and its edges' pairings are
    pivoted from the vertex left (`_pivot_edges`) and ride on the walk's
    stack with its sorted active set.  Any other vertex takes
    `_kernel_edges`.  Vertices and edges are known by the bitmasks of their
    facets, edge j's at a simple vertex the vertex's less key[j], so each edge
    is walked once, from the end reached first; an edge walked is blocked,
    so no recession ray is skipped.  Points sort on integer keys over lcm(q).
    """
    if P._vertices is None:
        X, S, q, record = _start_vertex(P)
        key = tuple(i for i, s in enumerate(S) if s == 0)
        mask = sum(1 << i for i in key)
        found = {mask: (key, X, q)}  # by the bitmask of the active facets
        walked: set[int] = set()  # the bitmasks of the facets of the edges walked
        # each entry carries (record, pairings) from a pivot or, at a simple start, the dual simplex
        todo = [(mask, key, X, S, q, (record, None) if len(key) == P.n else None)]
        while todo:
            mask, key, X, S, q, reached = todo.pop()
            simple = len(key) == P.n
            (edges, D), pairs = reached or (_kernel_edges(P, key), None)
            P._edges[key] = edges, D
            pairs = pairs or [[dot(a, u) for a in P.normals] for u in edges]
            for j, (u, p) in enumerate(zip(edges, pairs)):
                # edge j lies in every active facet but the j-th at a simple vertex
                edge = mask ^ (1 << key[j]) if simple else sum(1 << i for i in key if p[i] == 0)
                if edge in walked:
                    continue
                b, blocking = _blocking(S, p)
                if b is None:
                    raise PolytopeError(f"unbounded polytope: recession ray {u}")
                walked.add(edge)
                # the facets the edge lies in stay tight, the ones blocking it become tight
                nxt = edge | blocking
                if nxt not in found:
                    pb, Sb = p[b], S[b]
                    X2 = [xk * pb + Sb * uk for xk, uk in zip(X, u)]
                    S2 = [s * pb - Sb * pi for s, pi in zip(S, p)]
                    q2 = q * pb
                    g = gcd(q2, *S2, *X2)
                    if g != 1:  # on most steps the gcd is 1
                        X2, S2, q2 = [xk // g for xk in X2], [s // g for s in S2], q2 // g
                    if simple and blocking == 1 << b:  # b alone blocks: the neighbour is simple too
                        nkey = tuple(sorted(key[:j] + key[j + 1:] + (b,)))
                        pivot = _pivot_edges(P, key, edges, D, pairs, j, b)
                    else:
                        nkey, pivot = tuple(i for i in range(P.d) if nxt >> i & 1), None
                    found[nxt] = (nkey, X2, q2)
                    todo.append((nxt, nkey, X2, S2, q2, pivot))
        L = lcm(*(q for _, _, q in found.values()))
        walk = sorted(found.values(), key=lambda vert: [xk * (L // vert[2]) for xk in vert[1]])
        # vertices share coordinates, so each distinct (X_k, q) is made a Fraction once
        coord = {c: Fraction(*c) for c in {(xk, q) for _, X, q in walk for xk in X}}
        # active sets built in facet order: their iteration order and repr do not depend on the path
        P._vertices = [(tuple(coord[xk, q] for xk in X), frozenset(key)) for key, X, q in walk]
        P._edges = {key: P._edges[key] for key, _, _ in walk}
        P._simple = all(len(key) == P.n for key in P._edges)
    return P._vertices


def _face(P: HPolytope, active: frozenset[int]) -> Face:
    """The face with the active set `active`: the vertices whose active sets contain it, in
    vertex order, of dimension n - |active| on a simple polytope and n - rank otherwise."""
    verts = tuple(v for v, act in P._vertices if act >= active)
    codim = len(active) if P._simple else rank([P.normals[i] for i in sorted(active)])
    return Face(active, P.n - codim, verts)


def face_lattice(P: HPolytope) -> list[Face]:
    """Every face of every dimension, including P itself and the vertices, built per call
    and sorted by dimension, then by sorted active set.

    On a simple polytope the faces through a vertex with active facets S
    are exactly those whose active sets are the subsets of S, of dimension
    n minus the subset's size, so each vertex is filed under every subset
    of its active set, by size, work bound by the size of the output.  A
    polytope with a non-simple vertex takes its faces as the intersections
    of vertex active sets, which are all of them, as the active set of the
    smallest face containing two faces is the intersection of theirs; each
    then scans the vertices and takes a rank for its dimension (`_face`).
    P itself has the empty active set.
    """
    n, verts = P.n, enumerate_vertices(P)
    if P._simple:
        by_size = [defaultdict(list) for _ in range(n)]  # [k][a k-subset, k < n]: its vertices
        for (v, _), key in zip(verts, P._edges):
            for k, members in enumerate(by_size):
                for sub in itertools.combinations(key, k):
                    members[sub].append(v)
        # the vertices, then the larger subsets first, each by facet tuple: the (dim, sorted
        # active) order; an active set has n facets, so the vertices are the faces of size n
        faces = [tuple.__new__(Face, (act, 0, (v,))) for _, (v, act) in sorted(zip(P._edges, verts))]
        return faces + [tuple.__new__(Face, (frozenset(sub), n - k, tuple(by_size[k][sub])))
                        for k in range(n - 1, -1, -1) for sub in sorted(by_size[k])]
    sets: set[frozenset[int]] = set()
    for _, act in verts:
        sets |= {act & f for f in sets} | {act}
    return sorted((_face(P, active) for active in sets), key=lambda f: (f.dim, sorted(f.active)))


def edge_vectors_at_vertex(P: HPolytope, active: Iterable[int]) -> list[IntVec]:
    """Primitive edge directions at a vertex, as columns.

    `active` holds the facets through the vertex, as `enumerate_vertices`
    gives them.  An edge direction spans the kernel line of n - 1 active
    normals of rank n - 1 and pairs to <= 0 with every active normal.  At
    a simple vertex there are n of them: column j relaxes the j-th active
    facet (sorted by facet index), pairing negatively with it and to zero
    with the others, so it is column j of -A_S^-1 made primitive.  They
    are read from the record the walk kept for every vertex
    (`enumerate_vertices`); a set that is no vertex's active set is an error.
    """
    key = tuple(sorted(active))
    if key not in P._edges:
        raise PolytopeError(f"facets {list(key)} are not the active set of a vertex")
    return list(P._edges[key][0])


def _blocking(S: list[int], p: list[int]) -> tuple[Optional[int], int]:
    """The ratio test: (b, the bitmask of the facets that first block the edge with pairings
    p from the vertex with slacks S, those minimising S_i / p_i over p_i > 0), b the first
    of them; (None, 0) when no facet blocks the edge."""
    b, blocking = None, 0
    for i, pi in enumerate(p):
        if pi > 0:
            if b is None or S[i] * p[b] < S[b] * pi:  # S_i / p_i < S_b / p_b
                b, blocking = i, 1 << i
            elif S[i] * p[b] == S[b] * pi:
                blocking |= 1 << i
    return b, blocking


def _pivot_edges(P: HPolytope, key: tuple[int, ...], edges: tuple[IntVec, ...], D: int,
                 pairs: list[list[int]], j: int, b: int
                 ) -> tuple[tuple[tuple[IntVec, ...], int], list[list[int]]]:
    """((edges, det A_S'), pairings) at the simple neighbour reached from the simple vertex
    with the sorted active facets `key`, edges `edges` and D = det A_S along edge j, which
    the facet b alone blocks; pairs[k] = p(u_k) holds edge k's pairings <a_i, u_k>.

    The neighbour's active set S' is S less f_j = key[j], plus b.  Its edge
    relaxing b is -u_j, with pairings -p(u_j), and for k != j its edge
    relaxing f_k is w_k = (p_b u_k - p(u_k)_b u_j) / g, g the gcd that makes
    it primitive, with pairings (p_b p(u_k) - p(u_k)_b p(u_j)) / g: w_k pairs
    to zero with a_b and with every other facet of S' but f_k, and
    p_b <a_f_k, u_k> < 0 with f_k.  Each edge goes to the place of its facet
    in sorted S'.  With a_b in row j, A_S' has det
    D <a_b, A_S^-1 e_j> = D p_b / p_f_j, exact as u_j is -|D| A_S^-1 e_j over
    the gcd of that column, and moving a_b to its sorted place |pos - j| rows
    away multiplies it by (-1)^|pos - j|.
    """
    u, p, pb = edges[j], pairs[j], pairs[j][b]
    cols, cpairs = [], []
    for k, (uk, pk) in enumerate(zip(edges, pairs)):
        if k != j:
            r = pk[b]
            if r:  # else w_k = u_k with the same pairings, as u_k is primitive and p_b > 0
                w = [pb * x - r * y for x, y in zip(uk, u)]
                g = gcd(*w)
                uk, pk = tuple(w), [pb * x - r * y for x, y in zip(pk, p)]
                if g != 1:  # on most edges the gcd is 1
                    uk, pk = tuple(x // g for x in w), [x // g for x in pk]
            cols.append(uk)
            cpairs.append(pk)
    pos = bisect_left(key, b) - (key[j] < b)  # the facets of S' below b; b is not in S
    cols.insert(pos, tuple(-x for x in u))
    cpairs.insert(pos, [-x for x in p])
    det = D * pb // p[key[j]]
    return (tuple(cols), -det if (pos - j) & 1 else det), cpairs


def _kernel_edges(P: HPolytope, key: tuple[int, ...]) -> tuple[tuple[IntVec, ...], Optional[int]]:
    """(edges, D) at a vertex that no pivot reached: one kernel line per (n-1)-subset of its
    facets of rank n - 1, and D = det A_S when the vertex is simple, else None."""
    cols = []
    # reversed, so that the j-th subset leaves out the j-th facet, as in the order at a simple vertex
    for rest in itertools.combinations(key[::-1], P.n - 1):
        kern = _kernel([P.normals[f] for f in rest], P.n)
        if len(kern) != 1:
            continue
        u = kern[0]
        pairs = [dot(u, P.normals[f]) for f in key]
        if max(pairs) > 0:
            if min(pairs) < 0:
                continue  # neither half of the line stays in P near the vertex
            u = tuple(-x for x in u)
        if u not in cols:
            cols.append(u)
    return tuple(cols), int_det([P.normals[f] for f in key]) if len(key) == P.n else None


class VertexVerdict(NamedTuple):
    vertex: Point
    simple: bool
    det: Optional[int]
    smooth: bool


class DelzantReport(NamedTuple):
    ok: bool
    verdicts: tuple[VertexVerdict, ...]

    def failures(self) -> list[VertexVerdict]:
        return [v for v in self.verdicts if not v.smooth]


def validate_delzant(P: HPolytope) -> DelzantReport:
    """Per-vertex simple/smooth verdicts (integer normals make P rational); pass iff all pass.

    A simple vertex is smooth iff its edge matrix has |det| = 1.  The walk
    kept D = det A_S with the edges (`enumerate_vertices`): when |D| = 1 the
    edge matrix is -A_S^-1, of determinant (-1)^n D; only when |D| != 1 is
    the determinant of the edges computed.
    """
    verdicts = []
    for (v, _), (key, (edges, D)) in zip(enumerate_vertices(P), P._edges.items()):
        if len(key) != P.n:
            verdicts.append(VertexVerdict(v, False, None, False))
            continue
        det = (-1) ** P.n * D if abs(D) == 1 else int_det(edges)
        verdicts.append(VertexVerdict(v, True, det, abs(det) == 1))
    return DelzantReport(all(v.smooth for v in verdicts), tuple(verdicts))


class QuasitoricReport(NamedTuple):
    ok: bool
    vertex_dets: tuple[tuple[Point, int], ...]


def validate_quasitoric(P: HPolytope, facet_vectors: Sequence[Sequence[int]],
                        strict: bool = True) -> QuasitoricReport:
    """Facet-vector determinant condition at every vertex.

    `strict` demands det = +1 exactly (facet vectors taken in increasing
    facet-index order); relaxed mode accepts |det| = 1.
    """
    if len(facet_vectors) != P.d:
        raise PolytopeError("one facet vector required per facet")
    vecs = [tuple(v) for v in facet_vectors]
    bad = [v for v in vecs if not all(map(is_int, v))]
    if bad:
        raise PolytopeError(f"facet vector {bad[0]}: expected integers")
    wrong = [f"facet vector {i} has length {len(v)}" for i, v in enumerate(vecs) if len(v) != P.n]
    if wrong:
        raise PolytopeError(f"the polytope has dimension {P.n}, but {' and '.join(wrong)}")
    dets = []
    ok = True
    for (v, _), key in zip(enumerate_vertices(P), P._edges):
        if len(key) != P.n:
            raise PolytopeError("quasitoric validation needs a simple polytope")
        det = int_det([vecs[i] for i in key])
        dets.append((v, det))
        if (det != 1) if strict else (abs(det) != 1):
            ok = False
    return QuasitoricReport(ok, tuple(dets))


def _tight(P: HPolytope, r: Sequence[Fraction]) -> Optional[frozenset[int]]:
    """The facets tight at the point r, or None outside P, by the slacks over one denominator."""
    lam, X = _integer_polys(P.offsets, r)[1]
    slacks = [x - dot(a, X) for a, x in zip(P.normals, lam)]
    return None if min(slacks) < 0 else frozenset([i for i, s in enumerate(slacks) if not s])


def minimal_face(P: HPolytope, r: Sequence[Fraction]) -> Face:
    """The face containing r in its relative interior: its active set is the facets tight at r."""
    if len(r) != P.n:
        raise PolytopeError(f"r has length {len(r)}, the polytope has dimension {P.n}")
    _check_point(r, "r")
    if (active := _tight(P, r)) is None:
        raise PolytopeError(f"point {format_point(r)} outside the polytope")
    return _face(P, active)


def characteristic_subtorus(P: HPolytope, F: Face) -> tuple[IntVec, ...]:
    """Generators of the isotropy subtorus of a face, as columns: the active normals.

    They are independent exactly when there are codim F = n - dim F of them.
    """
    gens = tuple(P.normals[i] for i in sorted(F.active))
    if len(gens) != P.n - F.dim:
        raise PolytopeError(f"subtorus generators of face {sorted(F.active)} are linearly dependent: "
                            f"{len(gens)} facets meet in codimension {P.n - F.dim}")
    if gens:
        idx = saturation_index(gens)
        if idx != 1:
            raise PolytopeError(
                f"subtorus generators of face {sorted(F.active)} are not saturated (index {idx})"
            )
    return gens


def in_subtorus(gens: Sequence[IntVec], delta: Sequence[Fraction], n: int) -> bool:
    """Is delta (mod Z^n) in the subtorus spanned by the integer generator columns?  Each has n entries.

    Decides existence of real phi and integer m with delta = G phi + m.
    The rows of a Z-basis C of the left kernel of G cut out span_R(G), and
    C extends to a unimodular matrix, so C maps Z^n onto Z^k: the condition
    is C delta in C Z^n = Z^k, that is, C delta is integral.
    """
    wrong = [f"generator {tuple(g)} of length {len(g)}" for g in gens if len(g) != n or not all(map(is_int, g))]
    if wrong or len(delta) != n:
        raise ValueError(f"in_subtorus: expected {n} integers in each generator and {n} coordinates in delta, "
                         f"got {wrong[0] if wrong else f'delta of length {len(delta)}'}")
    _check_point(delta, "in_subtorus: delta")
    return all(dot(c, delta).denominator == 1 for c in _kernel(gens, n))


def points_equivalent(P: HPolytope, tp1: tuple[Sequence[Fraction], Sequence[Fraction]],
                      tp2: tuple[Sequence[Fraction], Sequence[Fraction]]) -> bool:
    """Identification rule of the quotient construction.

    (t1, r1) ~ (t2, r2) iff r1 = r2 and t1 - t2 (mod Z^n) lies in the
    subtorus attached to the minimal face containing r1.
    """
    t1, r1 = tp1
    t2, r2 = tp2
    for name, x in (("r1", r1), ("r2", r2), ("t1", t1), ("t2", t2)):
        if len(x) != P.n:
            raise PolytopeError(f"{name} has length {len(x)}, the polytope has dimension {P.n}")
        _check_point(x, name)
    F = minimal_face(P, r1)  # each minimal_face raises PolytopeError for a point outside P
    if tuple(r1) != tuple(r2):
        minimal_face(P, r2)
        return False
    return in_subtorus(characteristic_subtorus(P, F), [a - b for a, b in zip(t1, t2)], P.n)
