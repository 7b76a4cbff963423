"""Seeded inputs for the benchmark workloads, each with its known answer.

Nothing here imports toriclift at module level: the callers time the
package import as part of set-up, so functions that need the package take
its modules as arguments.

Every input carries the answer the program must give:

* curves carry their verdict.  ``inconclusive`` is never wrong, it is
  counted apart; a different decided verdict is wrong.
* polytopes carry their vertex count, face count, and the number of
  non-Delzant vertices (each with |det| = 2).
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
CHORDS_FILE = os.path.join(HERE, "chords.json")

BOX3 = (2, 1, F(3, 2))

# name -> (toriclift.catalog function, arguments); built once per process
POLYTOPES = {
    "cp2_3": ("cp2", (3,)),
    "unit_square": ("unit_square", ()),
    "hirzebruch": ("hirzebruch", ()),
    "cp3": ("cp3", ()),
    "box3": ("box", (list(BOX3),)),
}


def box3_json() -> dict:
    """box3 in the toriclift polytope file format (data/ has no such file)."""
    facets = []
    for i, length in enumerate(BOX3):
        for sign, offset in ((-1, 0), (1, length)):
            facets.append({"normal": [sign * (j == i) for j in range(3)], "offset": str(offset)})
    return {"n": 3, "facets": facets}


CHORDS_PER_STRATUM = 8   # per (polytope, bump degree): 5 * 3 * 8 = 120 chords
FAMILY_LOW = 48          # (s, q s^d), d = 1..5: decided at the default order
FAMILY_HIGH = 16         # same family, d = 17..24: valuation beyond the jet window
ZERO_SQUARE = 8          # exactly zero coordinate under a nonlinear parameter map
ZERO_BOX = 8


def build_polytopes(catalog) -> dict:
    return {name: getattr(catalog, fn)(*args) for name, (fn, args) in POLYTOPES.items()}


class Curve:
    """One lift-corpus entry: polytope name, curve, circle, accepted verdicts."""

    __slots__ = ("kind", "polytope", "coords", "interval", "circle", "expected")

    def __init__(self, kind, polytope, coords, interval, circle, expected):
        self.kind = kind
        self.polytope = polytope
        self.coords = [[F(c) for c in row] for row in coords]
        self.interval = (F(interval[0]), F(interval[1]))
        self.circle = tuple(circle)
        self.expected = expected

    def label(self) -> str:
        coords = [[str(c) for c in row] for row in self.coords]
        return (f"{self.kind} on {self.polytope}: coords={coords} "
                f"domain=[{self.interval[0]}, {self.interval[1]}] circle={list(self.circle)}")

    def to_json(self) -> dict:
        """Curve file in the toriclift input format."""
        return {
            "coords": [[str(c) for c in row] for row in self.coords],
            "domain": [str(self.interval[0]), str(self.interval[1])],
            "circle": list(self.circle),
        }


def family_curve(s_star: F, d: int, k2: int) -> Curve:
    """(s, q s^d) on CP^2(3) from the origin to the facet x + y = 3.

    Lifts iff k2 == 1 and d is odd.
    """
    q = (3 - s_star) / s_star**d
    coords = [[0, 1], [0] * d + [q]]
    expected = "accept" if (k2 == 1 and d % 2 == 1) else "reject"
    kind = "family" if d <= 16 else "family-high-valuation"
    return Curve(kind, "cp2_3", coords, (0, s_star), (1, k2), expected)


def _ratio_ok(k1: int, rest) -> bool:
    return k1 != 0 and all(k % k1 == 0 for k in rest)


def zero_square_curve(s1: F, swap: bool, k: tuple[int, int]) -> Curve:
    """Edge of the unit square traversed by x = s + c s^2, other coordinate 0.

    The zero coordinate lifts for every weight, so the verdict is decided by
    the weight ratio at the two vertices alone.
    """
    c = (1 - s1) / s1**2
    moving, zero = [0, 1, c], [0]
    coords = [zero, moving] if swap else [moving, zero]
    k1, k2 = (k[1], k[0]) if swap else k
    expected = "accept" if _ratio_ok(k1, [k2]) else "reject"
    return Curve("zero-coordinate", "unit_square", coords, (0, s1), k, expected)


def zero_box_curve(s1: F, k: tuple[int, int, int]) -> Curve:
    """Edge of box3 from the origin to (2, 0, 0), two coordinates exactly 0."""
    c = (2 - s1) / s1**2
    coords = [[0, 1, c], [0], [0]]
    expected = "accept" if _ratio_ok(k[0], k[1:]) else "reject"
    return Curve("zero-coordinate", "box3", coords, (0, s1), k, expected)


def load_chords() -> list[Curve]:
    with open(CHORDS_FILE) as fh:
        data = json.load(fh)
    return [Curve(f"chord-deg{c['deg']}", c["polytope"], c["coords"], (0, 1), c["circle"], c["expected"])
            for c in data["chords"]]


def lift_corpus(seed: int, chords: list[Curve] | None = None) -> list[Curve]:
    """200 curves: known families, zero-coordinate edges, stored chords.

    Counts per kind and per (polytope, degree) stratum are fixed; the seed
    draws the parameters and which stored chords are used.  The list comes
    in generation order; the timed loop shuffles every pass.
    """
    rng = random.Random(seed)
    out = []
    for i in range(FAMILY_LOW):
        # s* in each third of (0, 3) equally often: the sampler's radius grid
        # overshoots the curve exactly when s* > 2
        s_star = F(20 * (i % 3) + rng.randint(1, 19), 20)
        out.append(family_curve(s_star, 1 + i % 5, (i // 5) % 4))
    for i in range(FAMILY_HIGH):
        s_star = F(rng.randint(1, 59), 20)
        out.append(family_curve(s_star, 17 + i % 8, (0, 1, 1, 2)[i % 4]))
    # every other zero-coordinate edge lifts: weight ratios integral, or not
    for i in range(ZERO_SQUARE):
        s1 = F(rng.randint(1, 19), 20)
        k = (1, rng.randint(-3, 3)) if i % 2 == 0 else (2, rng.choice((-3, -1, 1, 3)))
        out.append(zero_square_curve(s1, i % 4 >= 2, k[::-1] if i % 4 >= 2 else k))
    for i in range(ZERO_BOX):
        s1 = F(rng.randint(1, 39), 20)
        k1 = rng.choice((1, -1)) if i % 2 == 0 else 2
        rest = [rng.randint(-3, 3) * k1 for _ in range(2)]
        if i % 2:
            rest[rng.randrange(2)] = rng.choice((-3, -1, 1, 3))
        out.append(zero_box_curve(s1, (k1, *rest)))
    strata: dict[tuple[str, str], list[Curve]] = {}
    for c in chords if chords is not None else load_chords():
        strata.setdefault((c.polytope, c.kind), []).append(c)
    for key in sorted(strata):
        out.extend(rng.sample(strata[key], CHORDS_PER_STRATUM))
    return out


def surface_draw(seed: int) -> list[Curve]:
    """Corpus curves whose rotated surface exists: they stay inside P.

    Every other known-family curve of the seed's corpus (all lie in CP^2(3)
    by construction), the zero-coordinate edges that lift, and every chord
    of the stored pool that lifts.
    """
    chords = load_chords()
    curves = lift_corpus(seed, chords)
    family = [c for c in curves if c.kind == "family"][::2]
    edges = [c for c in curves if c.kind == "zero-coordinate" and c.expected == "accept"]
    return family + edges + [c for c in chords if c.expected == "accept"]


# ---------------------------------------------------------------------------
# chords (used by make_chords.py to build the stored pool)


def random_chord(rng: random.Random, P, faces, deg: int):
    """A + s(B - A) + s(1 - s) p(s) w with A, B on disjoint proper faces."""
    proper = [f for f in faces if f.dim < P.n]
    while True:
        fa, fb = rng.sample(proper, 2)
        if not set(fa.vertices) & set(fb.vertices):
            break

    def relint_point(face):
        w = [F(rng.randint(1, 6)) for _ in face.vertices]
        t = sum(w)
        return [sum(wi * v[i] for wi, v in zip(w, face.vertices)) / t for i in range(P.n)]

    A, B = relint_point(fa), relint_point(fb)
    p = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(deg + 1)]
    w = [rng.randint(-1, 1) for _ in range(P.n)]
    bump = [F(0)] * (deg + 3)  # s(1 - s) p(s)
    for i, c in enumerate(p):
        bump[i + 1] += c
        bump[i + 2] -= c
    coords = []
    for j in range(P.n):
        row = [A[j], B[j] - A[j]] + [F(0)] * (deg + 1)
        coords.append([r + b * w[j] for r, b in zip(row, bump)])
    while True:
        K = tuple(rng.randint(-2, 2) for _ in range(P.n))
        if any(K):
            return coords, K


# ---------------------------------------------------------------------------
# polytope ladder


def _polygon(rng: random.Random, k: int):
    """Delzant polygon with k sides: random corner cuts of a triangle or rectangle.

    Facets are kept in cyclic order with the lattice length of each edge.
    Cutting the corner between facets i and i+1 adds the normal a_i + a_{i+1}
    at depth eps below the corner; both neighbouring edges shrink by eps and
    the new edge has length eps, so eps below both lengths keeps every vertex.
    """
    if k >= 4 and rng.random() < 0.5:
        a, b = F(rng.randint(3, 6)), F(rng.randint(3, 6))
        fac = [[(-1, 0), F(0), b], [(0, -1), F(0), a], [(1, 0), a, b], [(0, 1), b, a]]
    else:
        L = F(rng.randint(3, 6))
        fac = [[(-1, 0), F(0), L], [(0, -1), F(0), L], [(1, 1), L, L]]
    while len(fac) < k:
        i = rng.randrange(len(fac))
        j = (i + 1) % len(fac)
        eps = min(fac[i][2], fac[j][2]) * F(rng.randint(1, 3), 4)
        normal = (fac[i][0][0] + fac[j][0][0], fac[i][0][1] + fac[j][0][1])
        fac[i][2] -= eps
        fac[j][2] -= eps
        fac.insert(i + 1, [normal, fac[i][1] + fac[j][1] - eps, eps])
    return [f[0] for f in fac], [f[1] for f in fac], k, 2 * k + 1, 0


def _interval(rng: random.Random):
    return [(-1,), (1,)], [F(0), F(rng.randint(1, 5), rng.randint(1, 3))], 2, 3, 0


def _bad_triangle(rng: random.Random):
    """conv{(0,0), (1,0), (0,2)}: one vertex with |det| = 2."""
    return [(-1, 0), (0, -1), (2, 1)], [F(0), F(0), F(2)], 3, 7, 1


# The rungs of the ladder: the sides of each factor are fixed, so a rung
# costs about the same on every seed; the seed draws corner cuts, scales and
# offsets.  "P<k>" is a Delzant k-gon, "I" an interval, "T" the non-Delzant
# triangle.  Each rung has PER_RUNG products, the costliest one more: with
# 3, the op at op_tail_ms (10 ops beyond it, 12 of that rung in 4 passes)
# sat on the border between the top two rungs, and moved by 12% between
# seeds.
LADDER = (
    ("P4",), ("P6",), ("T",),
    ("P5", "I"), ("P6", "I"), ("T", "I"),
    ("P4", "P5"), ("P5", "I", "I"), ("T", "P4"),
    ("P5", "P4", "I"), ("P4", "P5", "I"), ("T", "P4", "I"), ("P6", "P4", "I"),
)
PER_RUNG = 3
TOP_RUNG = 4


def _factor(rng: random.Random, code: str):
    if code == "I":
        return _interval(rng)
    if code == "T":
        return _bad_triangle(rng)
    return _polygon(rng, int(code[1:]))


class LadderItem:
    """Product polytope data plus its known vertex, face and failure counts."""

    __slots__ = ("name", "n", "normals", "offsets", "vertices", "faces", "bad_vertices")

    def __init__(self, name, n, normals, offsets, vertices, faces, bad_vertices):
        self.name, self.n = name, n
        self.normals, self.offsets = normals, offsets
        self.vertices, self.faces, self.bad_vertices = vertices, faces, bad_vertices

    def translated(self, t) -> "LadderItem":
        """The same polytope moved by the integer vector t: same faces, same work."""
        offsets = tuple(lam + sum(a * x for a, x in zip(normal, t)) for normal, lam in zip(self.normals, self.offsets))
        return LadderItem(self.name, self.n, self.normals, offsets, self.vertices, self.faces, self.bad_vertices)


def ladder_item(rng: random.Random, codes) -> LadderItem:
    """Product of the coded factors, each scaled and translated by random rationals.

    Scaling and translating keep every face and every edge-basis determinant,
    so the known counts hold while the offsets differ from op to op.
    """
    factors = [_factor(rng, c) for c in codes]
    n = sum(len(f[0][0]) for f in factors)
    normals, offsets = [], []
    col = 0
    V, Fc, bad = 1, 1, 0
    for fn, fo, fv, ff, fb in factors:
        m = len(fn[0])
        # fixed denominators keep the size of the rationals, and so the cost
        # of the exact arithmetic, the same from seed to seed
        scale = F(rng.randint(7, 29), 6)
        shift = [F(rng.randint(-50, 50), 7) for _ in range(m)]
        for a, lam in zip(fn, fo):
            normals.append(tuple([0] * col + list(a) + [0] * (n - col - m)))
            offsets.append(scale * lam + sum(x * y for x, y in zip(a, shift)))
        col += m
        bad = bad * fv + fb * V - bad * fb  # vertices (a, b) with a or b non-Delzant
        V *= fv
        Fc *= ff
    return LadderItem("x".join(codes), n, tuple(normals), tuple(offsets), V, Fc, bad)


class LadderSource:
    """Passes over PER_RUNG seeded products per rung (TOP_RUNG for the last).

    Every pass moves each product by a fresh integer vector, so a pass
    repeats the same work while no polytope repeats within a process (the
    package's global cache would otherwise answer the repeat).
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.base = [ladder_item(self.rng, codes) for codes in LADDER
                     for _ in range(TOP_RUNG if codes == LADDER[-1] else PER_RUNG)]
        self.seen: set = set()

    def next_pass(self) -> list[LadderItem]:
        out = []
        for item in self.base:
            while True:
                moved = item.translated([self.rng.randint(-20, 20) for _ in range(item.n)])
                if moved.offsets not in self.seen:
                    self.seen.add(moved.offsets)
                    out.append(moved)
                    break
        return out
