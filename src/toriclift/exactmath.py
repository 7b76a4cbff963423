"""Exact rational arithmetic, integer lattice algebra, and real-root isolation.

Everything in this module is exact: integers are arbitrary precision,
rationals are `fractions.Fraction`, and no floating point appears anywhere.
Integer matrices are lists of rows; where a function speaks of "columns"
(HNF, edge bases) the data is still stored row-major.  `hnf` is the one
elimination routine: the rank, the integer kernel, the saturation index
and the determinant are all read from its triangular form.  Real roots
are isolated on dyadic integer pieces: the interval is mapped onto (0, 1)
once, then halved by bit shifts and Taylor shifts by 1 until a root is
isolated, and by its sign after, with Fractions only in the bracket returned.
A list that may have a repeated root is made square-free first, by an
integer gcd checked by exact division (the heuristic gcd of Char et al.).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul, ne
from typing import Optional, Sequence

IntVec = tuple[int, ...]
IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# integer vectors


def is_int(x) -> bool:
    """An int that is not a bool: True and False are not read as 1 and 0."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_rational(x) -> bool:
    """An int that is not a bool, or a Fraction: the exact inputs of the library."""
    return is_int(x) or isinstance(x, Fraction)


def _check_point(r: Sequence[Fraction], name: str) -> None:
    """Raise ValueError unless every coordinate of the point `name` is an int or a Fraction."""
    for k, x in enumerate(r):
        if not is_rational(x):
            raise ValueError(f"{name}, coordinate {k + 1}: expected an int or a Fraction, got {x!r}")


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries.

    The sign of the first nonzero entry is preserved.  Rejects the zero
    vector.
    """
    g = gcd(*v)
    if g == 0:
        raise ValueError("primitive: zero vector")
    return tuple(x // g for x in v)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dot: dimension mismatch")
    return sum(map(mul, u, v))


# ---------------------------------------------------------------------------
# integer matrices


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def hnf(A: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite form, the one elimination routine.

    Returns (H, U) with H = A @ U and det U = +1: each step is an
    extended-gcd column combination of determinant (x*a + y*b)/g = 1.  In H
    the pivot rows descend left to right, so the first rank(A) columns are
    nonzero and the columns of U under the zero ones are a Z-basis of the
    integer kernel of A; for square A, det A is the diagonal product of H.
    Pivots keep their sign and entries left of a pivot are not reduced.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    H = [list(row) for row in A]
    U = [[int(i == j) for j in range(cols)] for i in range(cols)]
    pivot = 0
    for r in range(rows):
        if pivot >= cols:
            break
        # zero out row r to the right of the pivot column:
        # (col_p, col_c) <- (x*col_p + y*col_c, (a*col_c - b*col_p)/g)
        for c in range(pivot + 1, cols):
            a, b = H[r][pivot], H[r][c]
            if b == 0:
                continue
            g, x, y = _ext_gcd(a, b)
            a, b = a // g, b // g
            for M in (H, U):
                for row in M:
                    vp, vc = row[pivot], row[c]
                    row[pivot], row[c] = x * vp + y * vc, a * vc - b * vp
        if H[r][pivot] != 0:
            pivot += 1
    return H, U


def int_det(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix: the diagonal product of its Hermite form."""
    if any(len(row) != len(A) for row in A):
        raise ValueError("int_det: matrix not square")
    H, _ = hnf(A)
    return prod(H[i][i] for i in range(len(A)))


def rank(A: Sequence[Sequence[int]]) -> int:
    H, _ = hnf(A)
    return sum(1 for col in zip(*H) if any(col))


def integer_kernel_basis(A: Sequence[Sequence[int]]) -> list[IntVec]:
    """Z-basis of the integer kernel {x in Z^n : A x = 0} of a matrix with rows.

    Each basis vector is primitive and the basis extends to a Z-basis of
    Z^n (saturation index 1).  A needs at least one row, which fixes n.
    """
    H, U = hnf(A)
    return [tuple(row[j] for row in U) for j in range(len(U)) if not any(row[j] for row in H)]


def saturation_index(cols: Sequence[IntVec]) -> int:
    """Index of span_Z(cols) inside its real-span lattice.

    Equals the gcd of all maximal minors; 1 means the columns extend to a
    Z-basis of Z^n.  Unimodular column operations keep that gcd, so it is
    the absolute value of the product of the pivots of the Hermite form
    [L | 0] of the matrix whose rows are the columns.  Requires the columns
    to be linearly independent.
    """
    k = len(cols)
    if k == 0:
        return 1
    H, _ = hnf(cols)
    if k > len(H[0]) or H[k - 1][k - 1] == 0:
        raise ValueError("saturation_index: columns are linearly dependent")
    return abs(prod(H[i][i] for i in range(k)))


# ---------------------------------------------------------------------------
# univariate rational polynomials (coefficient lists, lowest degree first)

RatPoly = list[Fraction]


def poly_trim(p: Sequence[Fraction]) -> RatPoly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> RatPoly:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_scale(p: Sequence[Fraction], c: Fraction) -> RatPoly:
    return poly_trim([c * x for x in p])


def poly_sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> RatPoly:
    return poly_add(p, poly_scale(q, Fraction(-1)))


def poly_deriv(p: Sequence[Fraction]) -> RatPoly:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def _integer_polys(*polys: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """(D, [D*p for each p]) as integer lists, D > 0 the lcm of every denominator.

    Entries may be Fractions or ints; an int is read as it is, not wrapped.
    """
    D = lcm(*(x.denominator for p in polys for x in p))
    return D, [[x.numerator * (D // x.denominator) for x in p] for p in polys]


def _compose_int(c: Sequence[int], shift: Fraction, scale: Fraction) -> tuple[list[int], int]:
    """(q, D^deg) with q(t) = D^deg c(shift + scale*t) integer, by Horner over the denominator D.

    At shift 0 it is the diagonal scaling q_k = c_k b^k D^(deg - k), for scale = b/D.
    """
    if not c:
        return [], 1
    if not shift:
        b, D, deg = scale.numerator, scale.denominator, len(c) - 1
        return [x * b ** k * D ** (deg - k) for k, x in enumerate(c)], D ** deg
    D = lcm(shift.denominator, scale.denominator)
    a, b = shift.numerator * (D // shift.denominator), scale.numerator * (D // scale.denominator)
    out, Dk = [c[-1]], 1
    for ci in reversed(c[:-1]):  # out <- out*(a + b t) + ci*D^k
        Dk *= D
        out = [a * x + b * y for x, y in zip(out + [0], [0] + out)]
        out[0] += ci * Dk
    return out, Dk


def poly_compose_linear(p: Sequence[Fraction], shift: Fraction, scale: Fraction) -> RatPoly:
    """Coefficients of p(shift + scale * t) in t."""
    den, (c,) = _integer_polys(poly_trim(p))
    q, Dk = _compose_int(c, Fraction(shift), Fraction(scale))
    return poly_trim([Fraction(x, den * Dk) for x in q])


def _eval_int(c: Sequence[int], x: Fraction) -> int:
    """den^deg c(num/den) for x = num/den: an integer with the sign of c(x), by Horner."""
    num, den = x.numerator, x.denominator
    acc, dk = 0, 1
    for ci in reversed(c):
        acc = acc * num + ci * dk
        dk *= den
    return acc


def _shift1(b: Sequence[int]) -> list[int]:
    """p(x + 1), for p given and returned highest degree first: one prefix sum per degree."""
    b = list(b)
    for n in range(len(b), 1, -1):
        b[:n] = accumulate(b[:n])
    return b


def _descartes(c: Sequence[int]) -> int:
    """Descartes bound on the roots of c in (0, 1), with multiplicity, for c lowest degree first.

    The sign variations of (1+x)^d c(1/(1+x)), which maps x in (0, oo)
    onto (0, 1): 0 means no root, 1 exactly one, and the count exceeds the
    number of roots by an even number.
    """
    signs = [x > 0 for x in _shift1(c) if x]  # c highest degree first is x^d c(1/x)
    return sum(map(ne, signs, signs[1:]))


ISOLATE_WIDTH = Fraction(1, 1024)


def isolate_root(p: Sequence[Fraction], left: Fraction, right: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """None if p has no real root strictly inside (left, right), else a bracket of one.

    Bisection keeps the left half whenever it holds a root; the bracket is
    the first piece no wider than ISOLATE_WIDTH, or (mid, mid) when a wider
    piece's midpoint is a root.  It depends only on the roots, so p and D*p
    (D > 0) give the same.  A ValueError names an entry of p, left or right
    that is not an int or a Fraction (a bool, a float).  The interval is
    mapped onto (0, 1) once, and `_isolate` searches the mapped integer
    list; a caller that already holds that list, as `check_lift` does for
    its facet slacks, calls `_isolate` directly.  The zero polynomial is rejected.
    """
    exact = all(type(x) is int for x in p)  # else each coefficient is checked too
    for k, x in enumerate((left, right) if exact else (left, right, *p)):
        if not is_rational(x):
            name = f"interval end {k}" if k < 2 else f"coefficient of s^{k - 2}"
            raise ValueError(f"isolate_root: {name}: expected an int or a Fraction, got {x!r}")
    c = poly_trim(p) if exact else _integer_polys(poly_trim(p))[1][0]
    if not c:
        raise ValueError("isolate_root: zero polynomial")
    ln, ld, rn, rd = left.numerator, left.denominator, right.numerator, right.denominator
    if not ln * rd < rn * ld:
        raise ValueError("isolate_root: empty interval")
    width = Fraction(rn * ld - ln * rd, ld * rd)
    return _isolate(_compose_int(c, left, width)[0], left, width)


def _divide(p: Sequence[int], h: Sequence[int]) -> Optional[list[int]]:
    """p / h for integer lists, or None unless h divides p with an integer quotient."""
    quot, rem = [], list(p)
    for d in range(len(p) - len(h), -1, -1):
        f, r = divmod(rem[d + len(h) - 1], h[-1])
        if r:
            return None
        quot.append(f)
        for i, x in enumerate(h):
            rem[d + i] -= f * x
    return None if any(rem) else quot[::-1]


def _square_free(q: list[int]) -> list[int]:
    """q / gcd(q, q') up to a constant factor; q itself when q is square-free.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 1989):
    for xi >= 2 min(|q|, |q'|) + 2 in the max norm, h, the symmetric xi-adic
    digits of gcd(q(xi), q'(xi)) over their gcd, is gcd(q, q') if it divides
    both.  A repeated factor g has its roots within xi/2 (Cauchy's bound),
    so |g(xi)| > xi/2 and h is not constant: a constant h proves q
    square-free.  Otherwise xi is squared until h divides, which ends as a
    wrong h's stray factor divides the resultant of the cofactors.
    """
    dq = [i * x for i, x in enumerate(q)][1:]
    xi = 2 * min(max(map(abs, q)), max(map(abs, dq))) + 2
    while True:
        g, h = gcd(_eval_int(q, xi), _eval_int(dq, xi)), []
        while g:
            h.append((g + xi // 2) % xi - xi // 2)
            g = (g - h[-1]) // xi
        c = gcd(*h)
        h = [x // c for x in h]
        if len(h) == 1:
            return q
        quot = _divide(q, h)
        if quot is not None and _divide(dq, h) is not None:
            return quot
        xi *= xi


def _isolate(q: list[int], left: Fraction, width: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """`isolate_root` on q(t) ~ p(left + width t), the integer list of p mapped onto (0, 1).

    A q whose nonzero coefficients all have one sign has no root in
    (0, oo), so it is None at once.  Otherwise one left-first
    Vincent-Collins-Akritas search decides each piece: Descartes count 0
    is no root, and 1 exactly one, which is simple, so q changes sign
    there.  That piece is then halved down to level k0 by the sign of q
    at each midpoint, one integer Horner per level, against its sign just
    right of the piece's left end.  If the first count is 2 or more,
    `_square_free` replaces q by q / gcd(q, q'), found in integers: it
    has the same roots, so every bracket stays the same.  Below
    ISOLATE_WIDTH a piece is split only to learn whether it holds a root.

    The pieces are dyadic and integer (Rouillier and Zimmermann, J. Comput.
    Appl. Math. 2004): piece (k, j) holds Q(t) ~ q((j + t)/2^k).  Its left
    half 2^d Q(t/2) shifts each coefficient by bits, its right half is that
    at t + 1, and the left half's coefficient sum has the sign of q at the
    midpoint.  Pieces are no wider than ISOLATE_WIDTH from a level k0
    found once; Fractions appear only in the bracket returned.
    """
    if min(q) >= 0 or max(q) <= 0:
        return None
    count = _descartes(q)
    if count > 1:
        q = _square_free(q)
    # level k0: the least k with width/2^k <= ISOLATE_WIDTH
    k0 = (-(-width.numerator * ISOLATE_WIDTH.denominator
            // (width.denominator * ISOLATE_WIDTH.numerator)) - 1).bit_length()

    def at(j: int, k: int) -> Fraction:
        return left + width * Fraction(j, 1 << k)

    def bracket(k: int, j: int) -> tuple[Fraction, Fraction]:
        j >>= k - k0
        return at(j, k0), at(j + 1, k0)

    pieces = [(0, 0, q[::-1], count)]  # (k, j, Q highest degree first, Descartes count)
    while pieces:
        k, j, Q, count = pieces.pop()
        if count == 0:
            continue
        if count == 1:
            s = next(x for x in reversed(Q) if x) > 0  # the sign of Q just right of 0: its lowest term's
            while k < k0:
                k, j, v = k + 1, 2 * j + 1, 0
                for i, x in enumerate(reversed(q)):
                    v = v * j + (x << k * i)  # 2^(k deg) q(j/2^k), by Horner
                if not v:
                    return (at(j, k),) * 2
                j -= (v > 0) != s  # the left half when q changes sign there
            return bracket(k, j)
        Q = [x << i for i, x in enumerate(Q)]  # the left half, 2^d Q(t/2)
        if sum(Q) == 0:  # Q(1/2) at the midpoint
            return bracket(k, j) if k >= k0 else (at(2 * j + 1, k + 1),) * 2
        R = _shift1(Q)  # the right half
        pieces += [(k + 1, 2 * j + 1, R, _descartes(R[::-1])), (k + 1, 2 * j, Q, _descartes(Q[::-1]))]
    return None
