"""H-representation polytopes: vertices, faces, Delzant/quasitoric checks,
the characteristic subtorus map, and the quotient identification rule.

A polytope is {x : <x, normal_i> <= offset_i} with primitive integer
normals and rational offsets.  Its combinatorics is read from the vertex
active sets: the vertices are the points of P where n facets with
independent normals meet (every n-subset is tried, each solved through
its Hermite form), and the faces are the intersections of vertex active
sets; edge bases are read from those sets too.  Vertices, the face
lattice and the faces looked up by `minimal_face` are computed once per
polytope and kept on it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactmath import (
    IntVec,
    dot,
    hnf,
    identity_matrix,
    int_det,
    integer_kernel_basis,
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

    Equal and hashed by (n, normals, offsets).  Vertices, the face
    lattice, faces and charts are memoised on it as they are computed.
    """

    def __init__(self, n: int, normals: Iterable[Sequence[int]], offsets: Iterable[Fraction]):
        if n < 1:
            raise PolytopeError(f"n: the dimension must be at least 1, got {n}")
        self.n = n
        self.normals = tuple(tuple(int(x) for x in a) for a in normals)
        self.offsets = tuple(Fraction(o) for o in offsets)
        if len(self.normals) != len(self.offsets):
            raise PolytopeError("normal/offset count mismatch")
        for a in self.normals:
            if len(a) != n:
                raise PolytopeError("normal of wrong dimension")
            if not any(a):
                raise PolytopeError("zero facet normal")
            if primitive(a) != a:
                raise PolytopeError(f"facet normal {a} is not primitive")
        if len(set(self.normals)) != len(self.normals):
            raise PolytopeError("duplicate facet normal")
        _check_bounded(self.normals, n)
        # memos of enumerate_vertices, face_lattice, _face and chart.make_chart
        self._vertices = None
        self._lattice = None
        self._faces = {}
        self._charts = {}
        verts = enumerate_vertices(self)
        if not verts:
            raise PolytopeError("empty polytope")
        # full-dimensional iff no facet is tight on all of P, i.e. at every vertex
        if frozenset.intersection(*(active for _, active in verts)):
            raise PolytopeError("polytope is not full-dimensional")

    def _key(self):
        return self.n, self.normals, self.offsets

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, HPolytope) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"HPolytope(n={self.n}, normals={self.normals}, offsets={self.offsets})"

    @property
    def d(self) -> int:
        return len(self.normals)

    def tight_facets(self, p: Sequence[Fraction]) -> Optional[frozenset[int]]:
        """The facets tight at p, or None when p lies outside P: one pass of pairings."""
        tight = []
        for i, (a, lam) in enumerate(zip(self.normals, self.offsets)):
            pairing = dot(p, a)
            if pairing > lam:
                return None
            if pairing == lam:
                tight.append(i)
        return frozenset(tight)


def _kernel(normals: Sequence[IntVec], n: int) -> list[IntVec]:
    """Z-basis of the lattice vectors orthogonal to every normal; Z^n when there are none."""
    if not normals:
        return [tuple(row) for row in identity_matrix(n)]
    return integer_kernel_basis(normals)


def _check_bounded(normals: Sequence[IntVec], n: int) -> None:
    """The recession cone {x : <x, a_i> <= 0 for all i} must be {0}."""
    if rank(normals) < n:
        raise PolytopeError("unbounded polytope: normals do not span")
    # every extreme ray of the cone is the kernel line of n - 1 normals
    for subset in itertools.combinations(normals, n - 1):
        kern = _kernel(subset, n)
        if len(kern) != 1:
            continue
        for d in (kern[0], tuple(-x for x in kern[0])):
            if all(dot(d, a) <= 0 for a in normals):
                raise PolytopeError(f"unbounded polytope: recession ray {d}")


class Face(NamedTuple):
    """Face as its canonical active facet set plus vertex data."""

    active: frozenset[int]
    dim: int
    vertices: tuple[Point, ...]


class Subtorus(NamedTuple):
    """Subtorus of T^n given by generator columns in the Lie-algebra lattice."""

    generators: tuple[IntVec, ...]


def enumerate_vertices(P: HPolytope) -> list[tuple[Point, frozenset[int]]]:
    """All vertices with their full active facet sets, sorted lexicographically.

    n facets meet in one point exactly when the Hermite form H = A U of
    their normals has a nonzero last column; then H is lower triangular
    with nonzero pivots, H y = b is solved by forward substitution, and
    the point is x = U y.
    """
    if P._vertices is None:
        seen: dict[Point, frozenset[int]] = {}
        for subset in itertools.combinations(range(P.d), P.n):
            H, U = hnf([P.normals[i] for i in subset])
            if H[-1][-1] == 0:
                continue  # dependent normals
            y: list[Fraction] = []
            for i, row in zip(subset, H):
                y.append((P.offsets[i] - sum(h * yj for h, yj in zip(row, y))) / row[len(y)])
            p = tuple(sum(u * yj for u, yj in zip(urow, y)) for urow in U)
            if p not in seen and (active := P.tight_facets(p)) is not None:
                seen[p] = active
        P._vertices = sorted(seen.items())
    return P._vertices


def _face(P: HPolytope, active: frozenset[int]) -> Face:
    """The face whose active facet set is `active`, which must be one."""
    face = P._faces.get(active)
    if face is None:
        dim = P.n - rank([P.normals[i] for i in sorted(active)])
        vertices = tuple(p for p, va in P._vertices if va >= active)  # set in __init__
        face = P._faces[active] = Face(active, dim, vertices)
    return face


def face_lattice(P: HPolytope) -> list[Face]:
    """Every face of every dimension, including P itself and the vertices.

    The active set of the smallest face containing two faces is the
    intersection of their active sets, so the faces are exactly the
    intersections of vertex active sets, simple vertices or not; P itself
    is the intersection of all of them, which is empty.  One pass over the
    vertices collects them.
    """
    if P._lattice is None:
        sets: set[frozenset[int]] = set()
        for _, act in enumerate_vertices(P):
            sets |= {act & f for f in sets} | {act}
        faces = sorted((_face(P, act) for act in sets), key=lambda f: (f.dim, sorted(f.active)))
        P._lattice = faces
    return P._lattice


def edge_vectors_at_vertex(P: HPolytope, active: Iterable[int]) -> list[IntVec]:
    """Primitive edge directions at a simple vertex, as columns.

`active` holds the n facets through the vertex, as `enumerate_vertices`
    gives them; their normals are independent.  Column j relaxes the j-th
    active facet (sorted by facet index): it spans the kernel line of the
    other active normals and pairs negatively with the relaxed one.
    """
    active = sorted(active)
    cols = []
    for fj in active:
        u = _kernel([P.normals[f] for f in active if f != fj], P.n)[0]
        cols.append(tuple(-x for x in u) if dot(u, P.normals[fj]) > 0 else u)
    return cols


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
    """Per-vertex simple/smooth verdicts (integer normals make P rational); pass iff all pass."""
    verdicts = []
    for v, active in enumerate_vertices(P):
        if len(active) != P.n:
            verdicts.append(VertexVerdict(v, False, None, False))
            continue
        det = int_det(edge_vectors_at_vertex(P, active))
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
    vecs = [tuple(int(x) for x in v) for v in facet_vectors]
    wrong = [f"facet vector {i} has length {len(v)}" for i, v in enumerate(vecs) if len(v) != P.n]
    if wrong:
        raise PolytopeError(f"the polytope has dimension {P.n}, but {' and '.join(wrong)}")
    dets = []
    ok = True
    for v, active in enumerate_vertices(P):
        if len(active) != P.n:
            raise PolytopeError("quasitoric validation needs a simple polytope")
        det = int_det([vecs[i] for i in sorted(active)])
        dets.append((v, det))
        if (det != 1) if strict else (abs(det) != 1):
            ok = False
    return QuasitoricReport(ok, tuple(dets))


def minimal_face(P: HPolytope, r: Sequence[Fraction]) -> Face:
    """The face containing r in its relative interior: its active set is the facets tight at r."""
    r = tuple(Fraction(x) for x in r)
    active = P.tight_facets(r)
    if active is None:
        raise PolytopeError(f"point {format_point(r)} outside the polytope")
    return _face(P, active)


def characteristic_subtorus(P: HPolytope, F: Face) -> Subtorus:
    """Generators of the isotropy subtorus of a face: the active normals."""
    gens = tuple(P.normals[i] for i in sorted(F.active))
    if gens:
        idx = saturation_index(gens)
        if idx != 1:
            raise PolytopeError(
                f"subtorus generators of face {sorted(F.active)} are not saturated (index {idx})"
            )
    return Subtorus(gens)


def in_subtorus(gens: Sequence[IntVec], delta: Sequence[Fraction], n: int) -> bool:
    """Is delta (mod Z^n) in the subtorus spanned by the generator columns?

    Decides existence of real phi and integer m with delta = G phi + m.
    The rows of a Z-basis C of the left kernel of G cut out span_R(G), and
    C extends to a unimodular matrix, so C maps Z^n onto Z^k: the condition
    is C delta in C Z^n = Z^k, that is, C delta is integral.
    """
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
    r1 = tuple(Fraction(x) for x in r1)
    r2 = tuple(Fraction(x) for x in r2)
    F = minimal_face(P, r1)  # each minimal_face raises PolytopeError for a point outside P
    if r1 != r2:
        minimal_face(P, r2)
        return False
    sub = characteristic_subtorus(P, F)
    delta = tuple(Fraction(a) - Fraction(b) for a, b in zip(t1, t2))
    return in_subtorus(sub.generators, delta, P.n)
