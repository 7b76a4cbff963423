from fractions import Fraction

import pytest

from toriclift import catalog
from toriclift.exactmath import poly_deriv, poly_scale, poly_trim

# the catalog polytopes, by the names of their files in data/
CATALOG = {
    "cp2_3": catalog.cp2,
    "cp3": catalog.cp3,
    "unit_square": catalog.unit_square,
    "hirzebruch": catalog.hirzebruch,
    "non_delzant_triangle": catalog.non_delzant_triangle,
}


def polytope_to_dict(P):
    """P in the polytope file format read by `io.polytope_from_dict`."""
    return {
        "n": P.n,
        "facets": [
            {"normal": list(a), "offset": str(lam)}
            for a, lam in zip(P.normals, P.offsets)
        ],
    }


def poly_eval(p, x):
    """p(x) by Horner in Fractions."""
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def chart_polys(graph):
    """The chart polynomials of an endpoint graph in Fractions: its integer lists over `den`."""
    return [[Fraction(c, graph.den) for c in x] for x in graph.num]


@pytest.fixture(scope="session")
def cp2():
    return catalog.cp2(3)


@pytest.fixture(scope="session")
def square():
    return catalog.unit_square()


@pytest.fixture(scope="session")
def hirzebruch():
    return catalog.hirzebruch()


@pytest.fixture(scope="session")
def bad_triangle():
    return catalog.non_delzant_triangle()


class NoScan(list):
    """Vertex records that fail the test when anything iterates them."""

    def __iter__(self):
        raise AssertionError("the vertex records were scanned")


def frac_pt(*xs):
    return tuple(Fraction(x) for x in xs)


def _sign_changes(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def poly_divmod(p, q):
    """Quotient and remainder of coefficient lists over the rationals, by long division."""
    p, q = poly_trim(p), poly_trim(q)
    quot, rem = [Fraction(0)] * max(len(p) - len(q) + 1, 0), list(p)
    while len(rem) >= len(q) and rem:
        f = Fraction(rem[-1]) / q[-1]
        d = len(rem) - len(q)
        quot[d] = f
        for i, c in enumerate(q):
            rem[d + i] -= f * c
        rem = poly_trim(rem)
    return poly_trim(quot), rem


def square_free_part(p):
    """p / gcd(p, p') by the Euclidean algorithm over the rationals: the reference for
    the integer square-free step, kept apart from the code it checks."""
    a, b = poly_trim(p), poly_deriv(p)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_divmod(p, a)[0]


def sturm_count(p, left, right):
    """Distinct real roots of p in the open (left, right) from a Sturm chain of
    its square-free part: the differential oracle for isolate_root's root test."""
    p = poly_trim(p)
    if len(p) == 1:
        return 0
    sf = square_free_part(p)
    if len(sf) == 1:
        return 0
    chain = [sf, poly_deriv(sf)]
    while True:
        r = poly_scale(poly_divmod(chain[-2], chain[-1])[1], Fraction(-1))
        if not r:
            break
        chain.append(r)
    count = (_sign_changes([poly_eval(q, left) for q in chain])
             - _sign_changes([poly_eval(q, right) for q in chain]))  # roots in (left, right]
    return count - (poly_eval(sf, right) == 0)
