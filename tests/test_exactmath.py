import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly_divmod, poly_eval, square_free_part, sturm_count
from toriclift import exactmath
from toriclift.exactmath import (
    ISOLATE_WIDTH,
    hnf,
    int_det,
    integer_kernel_basis,
    isolate_root,
    poly_add,
    poly_compose_linear,
    poly_trim,
    primitive,
    rank,
    saturation_index,
)


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def poly_mul(p, q):
    """Schoolbook product of coefficient lists, trimmed; builds the test polynomials."""
    out = [Fraction(0)] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def brute_det(A):
    """Expansion by minors, the independent oracle for int_det."""
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * brute_det(minor)
    return total


class TestHnf:
    def test_identity(self):
        H, U = hnf([[1, 0], [0, 1]])
        assert H == [[1, 0], [0, 1]]
        assert U == [[1, 0], [0, 1]]

    def test_swap(self):
        # no sign normalisation: H is triangular, U has det exactly +1, and
        # the pivots carry det A = -1
        A = [[0, 1], [1, 0]]
        H, U = hnf(A)
        assert mat_mul(A, U) == H
        assert H[0][1] == 0
        assert brute_det(U) == 1
        assert abs(H[0][0]) == 1
        assert H[0][0] * H[1][1] == brute_det(A)

    def test_det_preserved(self):
        A = [[2, 4], [1, 3]]
        H, U = hnf(A)
        assert abs(int_det(H)) == 2
        assert mat_mul(A, U) == H
        # lower triangular with positive pivots
        assert H[0][1] == 0
        assert H[0][0] > 0 and H[1][1] > 0

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_random_products(self, A):
        H, U = hnf(A)
        assert mat_mul(A, U) == H
        assert abs(int_det(U)) == 1
        # upper part above each pivot row is zero
        for i in range(3):
            for j in range(i + 1, 3):
                if int_det(A) != 0:
                    assert H[i][j] == 0

    @given(st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(lambda c: st.lists(
        st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r))))
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[-3, 0], [5, -2]])  # negative pivot with nothing to its right
    @settings(max_examples=200, deadline=None)
    def test_column_echelon_with_det_one(self, A):
        H, U = hnf(A)
        assert mat_mul(A, U) == H
        assert brute_det(U) == 1
        # column echelon: the nonzero columns come first, and each starts in
        # a later row than the one before
        tops = [next((i for i, row in enumerate(H) if row[j]), None) for j in range(len(U))]
        r = rank(A)
        assert all(t is None for t in tops[r:]) and None not in tops[:r]
        assert tops[:r] == sorted(set(tops[:r]))

    def test_rank_deficient_zero_columns(self):
        H, _ = hnf([[1, 2], [2, 4]])
        assert [H[0][1], H[1][1]] == [0, 0]


class TestRank:
    def test_full_rank(self):
        assert rank([[2, 1, 0], [0, 1, 1], [1, 0, 3]]) == 3
        assert rank([[1, 0, 0], [0, 1, 0]]) == 2

    def test_deficient(self):
        assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
        assert rank([[1, 2], [2, 4], [-3, -6]]) == 1

    def test_zero_matrix(self):
        assert rank([[0, 0, 0], [0, 0, 0]]) == 0


class TestIntegerKernelBasis:
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=3)))
    @example([[2, 1, 1]])  # scaled rational null vectors span an index-2 sublattice
    @example([[1, 2, 3], [2, 4, 6]])
    @example([[0, 0, 0]])
    @settings(max_examples=100, deadline=None)
    def test_saturated_basis(self, A):
        basis = integer_kernel_basis(A)
        assert len(basis) == len(A[0]) - rank(A)
        assert all(mat_mul(A, [[x] for x in v]) == [[0]] * len(A) for v in basis)
        # index 1: a Z-basis of the integer kernel, not scaled null vectors
        assert saturation_index(basis) == 1


class TestSaturationIndex:
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=n)))
    @example([[2, 1]])  # pivot 2 in the first row, but the minors are 2 and 1
    @example([[2, 0, 0], [0, 2, 0]])
    @example([[1, 2, 3], [2, 4, 6]])
    @settings(max_examples=200, deadline=None)
    def test_gcd_of_maximal_minors(self, cols):
        k, n = len(cols), len(cols[0])
        g = 0
        for rows in itertools.combinations(range(n), k):
            g = gcd(g, abs(brute_det([[c[i] for c in cols] for i in rows])))
        if g == 0:
            with pytest.raises(ValueError, match="linearly dependent"):
                saturation_index(cols)
        else:
            assert saturation_index(cols) == g

    def test_empty_and_too_many(self):
        assert saturation_index([]) == 1
        with pytest.raises(ValueError, match="linearly dependent"):
            saturation_index([(1, 0), (0, 1), (1, 1)])


class TestDet:
    def test_identity(self):
        assert int_det([[1, 0], [0, 1]]) == 1

    def test_examples(self):
        assert int_det([[1, 0], [1, 2]]) == 2
        assert int_det([[-1, 1], [-1, 0]]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            int_det([[1, 2, 3], [4, 5, 6]])

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([[0, 1], [1, 0]])
    @example([[0, 0], [0, 1]])
    @example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    @settings(max_examples=200, deadline=None)
    def test_diagonal_product_matches_minor_expansion(self, A):
        assert int_det(A) == brute_det(A)

    def test_empty_matrix(self):
        assert int_det([]) == 1

    def test_against_minor_expansion(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(25):
                A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                assert int_det(A) == brute_det(A)


class TestPrimitive:
    @pytest.mark.parametrize("v,expected", [
        ((2, 4), (1, 2)),
        ((-3, 3), (-1, 1)),
        ((5, 0, 0), (1, 0, 0)),
    ])
    def test_examples(self, v, expected):
        assert primitive(v) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_dot_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="^dot: dimension mismatch$"):
            exactmath.dot((1, 2), (1,))

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, v):
        if not any(v):
            return
        p = primitive(v)
        assert primitive(p) == p
        from math import gcd
        g = 0
        for x in p:
            g = gcd(g, abs(x))
        assert g == 1


class TestArith:
    def test_add(self):
        # the x terms cancel exactly and are trimmed
        assert poly_add([Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]) == [Fraction(2)]

    def test_mul(self):
        x = [Fraction(0), Fraction(1)]
        assert poly_mul(x, x) == [0, 0, 1]

    def test_difference_of_squares(self):
        assert poly_mul([Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]) == [1, 0, -1]


def isolate_root_oracle(p, left, right, count=sturm_count):
    """isolate_root's bisection of an interval holding a root, with count(p, lo, hi),
    by default the Sturm oracle, as its root test."""
    lo, hi = Fraction(left), Fraction(right)
    while hi - lo > ISOLATE_WIDTH:
        mid = (lo + hi) / 2
        if poly_eval(p, mid) == 0:
            return mid, mid
        if count(p, lo, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def compose_reference(p, shift, scale):
    """p(shift + scale t) by Fraction Horner: the oracle for poly_compose_linear."""
    out = []
    for c in reversed(poly_trim(p)):
        out = poly_add(poly_mul(out, [Fraction(shift), Fraction(scale)]), [c])
    return out


small_rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 7, 1024, 10**6 + 3]))
large_denominators = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(10**9, 10**11))


@st.composite
def roots_problem(draw):
    """(p, a, b): a product of rational linear factors with multiplicities up to 3,
    some at the interval ends or at its first bisection midpoint, times a
    random integer factor that may bring irrational roots."""
    a, b = sorted(draw(st.lists(st.one_of(small_rationals, large_denominators),
                                min_size=2, max_size=2, unique=True)))
    roots = draw(st.lists(st.one_of(small_rationals, st.sampled_from([a, b, (a + b) / 2])), max_size=4))
    p = [Fraction(draw(st.sampled_from([1, -1, 3, -7])))]
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = poly_mul(p, [-r, Fraction(1)])
    extra = draw(st.lists(st.integers(-9, 9), max_size=4))
    if any(extra):
        p = poly_mul(p, [Fraction(c) for c in extra])
    return p, a, b


class TestIsolateRoot:
    @given(roots_problem())
    @example(([Fraction(-1), Fraction(0), Fraction(1)], Fraction(-1), Fraction(1)))  # roots at both ends
    @example(([Fraction(1), Fraction(-2), Fraction(1)], Fraction(0), Fraction(2)))  # double root at the midpoint
    # roots 1/3 and 1 in (0, 2): the first midpoint is a root, and isolate_root returns (1, 1)
    @example((poly_mul([Fraction(-1, 3), Fraction(1)], [Fraction(-1), Fraction(1)]), Fraction(0), Fraction(2)))
    # plain ints with two roots, 1 +- 1/sqrt(3), in (0, 2): the square-free step must stay exact
    @example(([2, -6, 3], Fraction(0), Fraction(2)))
    # widths of exactly ISOLATE_WIDTH * 2^k, k = 0, 1, 10, where the bracket is found at level k,
    # and just above them, one level deeper
    @example(([Fraction(-1, 3000), Fraction(1)], Fraction(0), ISOLATE_WIDTH))
    @example(([Fraction(-1, 3000), Fraction(1)], Fraction(0), ISOLATE_WIDTH + Fraction(1, 10**9)))
    @example(([Fraction(-1, 1500), Fraction(1)], Fraction(0), 2 * ISOLATE_WIDTH))
    @example(([Fraction(-1, 1500), Fraction(1)], Fraction(0), 2 * ISOLATE_WIDTH + Fraction(1, 10**9)))
    @example(([Fraction(-1, 3), Fraction(1)], Fraction(1, 7), Fraction(1, 7) + 1024 * ISOLATE_WIDTH))
    @example(([Fraction(-1, 3), Fraction(1)], Fraction(1, 7), Fraction(1, 7) + 1024 * ISOLATE_WIDTH + Fraction(1, 10**9)))
    # int endpoints, as well as int coefficients
    @example(([-1, 0, 3], 0, 1))
    @example(([Fraction(-1, 4), Fraction(0), Fraction(1)], -1, 3))
    # one root, isolated by the first Descartes count and then refined by signs
    @example(([Fraction(-2), Fraction(0), Fraction(1)], Fraction(0), Fraction(2)))
    @example(([Fraction(-2), Fraction(0), Fraction(1)], Fraction(-1), Fraction(2)))
    # a root at the left end: the sign just right of it is that of the lowest nonzero term
    @example((poly_mul([Fraction(0), Fraction(1)], [Fraction(-1, 3), Fraction(1)]), Fraction(0), Fraction(1)))
    # 3/8 isolated at level 0, then met as an exact midpoint during the refinement
    @example((poly_mul([Fraction(-3, 8), Fraction(1)], [Fraction(1), Fraction(1)]), Fraction(0), Fraction(1)))
    # one root, 1/sqrt(3), in a count-1 piece whose lowest coefficient is exactly +1: its sign sets the refinement
    @example(([1, 0, -3], 0, 1))
    # (s - 7/8)(s - 15/16): 7/8 is the midpoint of the level-2 piece (3/4, 1) that holds both roots
    @example(([Fraction(105, 128), Fraction(-29, 16), 1], 0, 1))
    # 1/2048, the midpoint of the bracket (0, 1/1024): the refinement stops at that bracket's level
    @example(([Fraction(-1, 2048), 1], 0, 1))
    @settings(max_examples=200, deadline=None)
    def test_against_sturm(self, problem):
        p, a, b = problem
        want = isolate_root_oracle(p, a, b) if sturm_count(p, a, b) else None
        assert isolate_root(p, a, b) == want
        # the same polynomial times the lcm of its denominators, as the criterion passes its slacks
        den = lcm(*(Fraction(c).denominator for c in p))
        assert isolate_root([int(c * den) for c in p], a, b) == want

    @staticmethod
    def close_roots():
        """(s - 3/10)(s - 3/10 - 10^-9): two roots far closer than ISOLATE_WIDTH."""
        r1, r2 = Fraction(3, 10), Fraction(3, 10) + Fraction(1, 10**9)
        return poly_mul([-r1, Fraction(1)], [-r2, Fraction(1)]), r1, r2

    def test_close_roots_separated(self):
        p, r1, r2 = self.close_roots()
        # the first piece no wider than ISOLATE_WIDTH holds both roots
        assert isolate_root(p, Fraction(0), Fraction(1)) == (Fraction(307, 1024), Fraction(308, 1024))
        assert isolate_root(p, r1, r2) is None
        assert isolate_root(p, Fraction(0), r2) == isolate_root_oracle(p, Fraction(0), r2)
        # narrower than ISOLATE_WIDTH from the start: the interval itself is the bracket,
        # and the search below that width only decides whether there is a root
        d = Fraction(1, 10**12)
        assert isolate_root(p, r1 - d, r2 + d) == (r1 - d, r2 + d)
        assert isolate_root(p, r1 + d, r2 - d) is None

    def test_square_free_part_taken_once(self, monkeypatch):
        # a square-free input is proved so and kept; its square loses its repeated factor once
        p, r1, r2 = self.close_roots()
        reduced = self.square_free_spy(monkeypatch)
        d = Fraction(1, 10**12)
        for q, taken in ((p, 0), (poly_mul(p, p), 1)):
            for a, b in ((Fraction(0), Fraction(1)), (r1 - d, r2 + d)):
                reduced.clear()
                assert isolate_root(q, a, b) is not None
                assert len(reduced) == taken, (q, a, b)

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(exactmath, name)
        monkeypatch.setattr(exactmath, name, lambda *a: calls.append(a) or real(*a))
        return calls

    @staticmethod
    def square_free_spy(monkeypatch):
        """The lists `_square_free` returns other than its input: one for each list
        that had a repeated factor to take out."""
        reduced = []
        real = exactmath._square_free

        def spy(q):
            out = real(q)
            if out != q:
                reduced.append(out)
            return out

        monkeypatch.setattr(exactmath, "_square_free", spy)
        return reduced

    def test_square_free_degree_64_skips_gcd(self, monkeypatch):
        # 64 distinct roots k/65 in (0, 1): a Descartes count of 64, and a list proved square-free
        reduced = self.square_free_spy(monkeypatch)
        p = [Fraction(1)]
        for k in range(1, 65):
            p = poly_mul(p, [Fraction(-k, 65), Fraction(1)])
        assert isolate_root(p, 0, 1) == (Fraction(15, 1024), Fraction(16, 1024))
        assert not reduced

    @staticmethod
    def tangency(q):
        """(s - 1/3)^2 q(s): a curve that touches a facet at s = 1/3."""
        return poly_mul(poly_mul([Fraction(-1, 3), Fraction(1)], [Fraction(-1, 3), Fraction(1)]), q)

    def test_degree_66_tangency_brackets_the_double_root(self, monkeypatch):
        # (s - 1/3)^2 (s^64 + s + 1): the repeated factor is found and taken out
        reduced = self.square_free_spy(monkeypatch)
        p = self.tangency([Fraction(1), Fraction(1)] + [Fraction(0)] * 62 + [Fraction(1)])
        assert len(p) == 67
        assert isolate_root(p, 0, 1) == (Fraction(341, 1024), Fraction(342, 1024))
        assert len(reduced) == 1

    def test_tangency_square_free_in_one_integer_gcd(self, monkeypatch):
        # the degree-66 tangency above and a seeded degree-130 one each take one call to
        # `_square_free`, which evaluates q and q' once each: its first xi is enough
        rng = random.Random(7)
        q = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1)) for _ in range(129)]
        for p in (self.tangency([Fraction(1), Fraction(1)] + [Fraction(0)] * 62 + [Fraction(1)]),
                  self.tangency(q)):
            calls, evals = self.spy(monkeypatch, "_square_free"), self.spy(monkeypatch, "_eval_int")
            assert isolate_root(p, 0, 1) == (Fraction(341, 1024), Fraction(342, 1024))
            assert (len(calls), len(evals)) == (1, 2), len(p)
            monkeypatch.undo()

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.lists(st.integers(-9, 9), min_size=2, max_size=7))
    @example([1], [-1, 0, 1])
    @example([-1, 1], [-1, 1])  # (s - 1)^3
    @example([0, 1], [3, 0, 1])
    @example([0, 2], [1, 0])  # 4 s^2: the digits of gcd(400, 80) at xi = 10 read s^2 - 2s, so xi is squared
    # square-free, but the first candidate divides only one of c and c': s - 2 divides c, s - 1 divides c'
    @example([-2], [4, 4, -3])
    @example([1], [4, 2, -1])
    @settings(max_examples=200, deadline=None)
    def test_square_free_against_rational_gcd(self, f, g):
        # c = f^2 g loses its repeated factors: the result divides c and is, up to a
        # constant, c / gcd(c, c') by the Euclidean algorithm over the rationals
        c = [int(x) for x in poly_mul(poly_mul(f, f), g)]
        if len(c) < 2:
            return
        got = exactmath._square_free(c)
        assert all(type(x) is int for x in got)
        assert not poly_divmod(c, got)[1]
        want = square_free_part(c)
        assert [Fraction(x, got[-1]) for x in got] == [x / want[-1] for x in want]

    def test_int_endpoints(self):
        # ints and Fractions give one bracket, always of Fractions
        p = [Fraction(-2), Fraction(0), Fraction(1)]
        got = isolate_root(p, 1, 2)
        assert got == isolate_root(p, Fraction(1), Fraction(2)) == (Fraction(1448, 1024), Fraction(1449, 1024))
        assert all(type(x) is Fraction for x in got)
        assert isolate_root([-1, 2], 0, 1) == (Fraction(1, 2), Fraction(1, 2))  # the first midpoint
        assert isolate_root([-1, 1], 0, 1) is None

    def test_dyadic_midpoint_roots(self):
        # 3/8 is the midpoint of the level-2 piece (1/4, 1/2), far wider than ISOLATE_WIDTH
        assert isolate_root(poly_mul([Fraction(-3, 8), Fraction(1)], [Fraction(1), Fraction(1)]),
                            Fraction(0), Fraction(1)) == (Fraction(3, 8), Fraction(3, 8))
        # 3/4096 and 7/8192 share the bracket (0, 1/1024); the search splits it to find the
        # leftmost root, and meets 3/4096 as the midpoint of a level-11 piece: the bracket stands
        p = poly_mul([Fraction(-3, 4096), Fraction(1)], [Fraction(-7, 8192), Fraction(1)])
        assert isolate_root(p, Fraction(0), Fraction(1)) == (Fraction(0), Fraction(1, 1024))
        assert isolate_root(p, 0, 1) == isolate_root_oracle(p, 0, 1)

    def test_interval_composed_once(self, monkeypatch):
        # the interval is mapped onto (0, 1) exactly once per call, even when the square-free
        # part is taken: that step runs on the mapped list
        calls, reduced = self.spy(monkeypatch, "_compose_int"), self.square_free_spy(monkeypatch)
        p, _, _ = self.close_roots()
        for q, a, b, taken in (([Fraction(-2), Fraction(0), Fraction(1)], Fraction(0), Fraction(2), 0),
                               ([Fraction(1), Fraction(0), Fraction(1)], Fraction(0), Fraction(5), 0),
                               # no real root and a Descartes count of 2, but square-free
                               ([Fraction(1), Fraction(0), Fraction(1)], Fraction(-5), Fraction(5), 0),
                               (poly_mul(p, p), Fraction(0), Fraction(1), 1)):
            calls.clear()
            reduced.clear()
            isolate_root(q, a, b)
            assert (len(calls), len(reduced)) == (1, taken), (q, a, b)

    def test_one_sign_takes_no_descartes_count(self, monkeypatch):
        # 1 + s^2 maps onto a list of positive coefficients: no root, and nothing searched
        calls = self.spy(monkeypatch, "_descartes")
        assert isolate_root([1, 0, 1], 0, 5) is None
        assert calls == []

    def test_isolated_root_refined_by_signs(self, monkeypatch):
        # 1/sqrt(3) is isolated by the first Descartes count, its one Taylor shift; each
        # of the ten levels down to ISOLATE_WIDTH then reads the sign of q at a midpoint
        calls = self.spy(monkeypatch, "_shift1")
        assert isolate_root([-1, 0, 3], 0, 1) == (Fraction(591, 1024), Fraction(37, 64))
        assert len(calls) == 1

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty interval"):
            isolate_root([Fraction(1), Fraction(1)], Fraction(1), Fraction(1))

    @pytest.mark.parametrize("p,left,right,slot,bad", [
        ([1, -1], 0.5, 2, "interval end 0", "0.5"),
        ([1, -1], 0, True, "interval end 1", "True"),
        ([Fraction(1, 2), 1.0], 0, 2, "coefficient of s^1", "1.0"),
        ([True, -1], 0, 2, "coefficient of s^0", "True"),
        ([1, 0.0], 0, 2, "coefficient of s^1", "0.0"),  # a zero that trimming would drop
    ], ids=["float-end", "bool-end", "float-coefficient", "bool-coefficient", "float-zero-coefficient"])
    def test_inexact_input_named(self, p, left, right, slot, bad):
        # a float end crashed on .numerator and a bool was read as 1
        with pytest.raises(ValueError, match=re.escape(
                f"isolate_root: {slot}: expected an int or a Fraction, got {bad}") + "$"):
            isolate_root(p, left, right)


class TestComposeLinear:
    @given(st.lists(small_rationals, max_size=7), st.one_of(small_rationals, large_denominators),
           st.one_of(small_rationals, large_denominators, st.just(Fraction(0))))
    @example([Fraction(0), Fraction(0)], Fraction(1), Fraction(2))
    # shift 0 is the diagonal scaling, by an int and by a Fraction
    @example([Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)], Fraction(0), 3)
    @example([Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)], Fraction(0), Fraction(-3, 4))
    @settings(max_examples=100, deadline=None)
    def test_against_fraction_horner(self, p, shift, scale):
        assert poly_compose_linear(p, shift, scale) == compose_reference(p, shift, scale)

    def test_integer_arguments(self):
        # p(s) = s^2 + 1/2 at s = 2 - t
        assert poly_compose_linear([Fraction(1, 2), 0, Fraction(1)], 2, -1) == [
            Fraction(9, 2), Fraction(-4), Fraction(1)]


class TestSturm:
    def F(self, *cs):
        return [Fraction(c) for c in cs]

    def test_no_real_roots(self):
        assert isolate_root(self.F(1, 0, 1), Fraction(-10), Fraction(10)) is None

    def test_open_interval_excludes_endpoint(self):
        # s(s-1): roots 0 and 1; only 1 is inside (0, 2), and it is the first midpoint
        p = self.F(0, -1, 1)
        assert isolate_root(p, Fraction(0), Fraction(2)) == (Fraction(1), Fraction(1))
        assert isolate_root(p, Fraction(0), Fraction(1)) is None

    def test_sqrt_two(self):
        p = self.F(-2, 0, 1)
        assert isolate_root(p, Fraction(0), Fraction(2)) == (Fraction(1448, 1024), Fraction(1449, 1024))
        assert isolate_root(p, Fraction(0), Fraction(1)) is None

    def test_multiplicity_counted_once(self):
        # (s-1)^2: Descartes counts 2 on (0, 3); the square-free part s - 1 has the one root
        p = self.F(1, -2, 1)
        lo, hi = isolate_root(p, Fraction(0), Fraction(3))
        assert lo < 1 < hi and hi - lo <= ISOLATE_WIDTH
        assert isolate_root(p, Fraction(1), Fraction(3)) is None

    def test_zero_poly_rejected(self):
        # the empty list, and zeros as ints or as Fractions
        for p in ([], [0, 0], [Fraction(0), 0]):
            with pytest.raises(ValueError, match="^isolate_root: zero polynomial$"):
                isolate_root(p, Fraction(0), Fraction(1))

    def test_against_numeric_sampling(self):
        rng = random.Random(11)
        for _ in range(30):
            deg = rng.randint(1, 8)
            roots = rng.sample(range(-10, 11), deg)
            poly = [Fraction(1)]
            for r in roots:
                poly = poly_mul(poly, [Fraction(-r), Fraction(1)])
            a, b = Fraction(-21, 2), Fraction(21, 2)

            def count(p, lo, hi):
                return sum(1 for r in roots if lo < r < hi)
            assert isolate_root(poly, a, b) == isolate_root_oracle(poly, a, b, count)
            assert isolate_root(poly, b, Fraction(12)) is None

    def test_isolate_root(self):
        p = self.F(-2, 0, 1)
        lo, hi = isolate_root(p, Fraction(0), Fraction(2))
        assert lo <= hi and hi - lo <= Fraction(1, 1024)
        assert poly_eval(p, lo) <= 0 <= poly_eval(p, hi)
