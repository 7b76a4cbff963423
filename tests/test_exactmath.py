import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toriclift.exactmath import (
    hnf,
    int_det,
    integer_kernel_basis,
    isolate_root,
    mat_mul,
    poly_eval,
    poly_mul,
    primitive,
    rank,
    saturation_index,
    sturm_count,
)


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
        A = [[0, 1], [1, 0]]
        H, U = hnf(A)
        assert H == [[1, 0], [0, 1]]
        assert mat_mul(A, U) == H
        assert abs(int_det(U)) == 1

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


class TestSturm:
    def F(self, *cs):
        return [Fraction(c) for c in cs]

    def test_no_real_roots(self):
        assert sturm_count(self.F(1, 0, 1), Fraction(-10), Fraction(10)) == 0

    def test_open_interval_excludes_endpoint(self):
        # s(s-1): roots 0 and 1, only 1 interior to (0, 2)
        assert sturm_count(self.F(0, -1, 1), Fraction(0), Fraction(2)) == 1

    def test_sqrt_two(self):
        assert sturm_count(self.F(-2, 0, 1), Fraction(0), Fraction(2)) == 1

    def test_multiplicity_counted_once(self):
        # (s-1)^2
        assert sturm_count(self.F(1, -2, 1), Fraction(0), Fraction(2)) == 1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            sturm_count([], Fraction(0), Fraction(1))

    def test_against_numeric_sampling(self):
        rng = random.Random(11)
        for _ in range(30):
            deg = rng.randint(1, 8)
            roots = rng.sample(range(-10, 11), deg)
            poly = [Fraction(1)]
            for r in roots:
                poly = poly_mul(poly, [Fraction(-r), Fraction(1)])
            a, b = Fraction(-21, 2), Fraction(21, 2)
            expected = sum(1 for r in set(roots) if a < r < b)
            assert sturm_count(poly, a, b) == expected

    def test_isolate_root(self):
        p = self.F(-2, 0, 1)
        lo, hi = isolate_root(p, Fraction(0), Fraction(2))
        assert lo <= hi and hi - lo <= Fraction(1, 1024)
        assert poly_eval(p, lo) <= 0 <= poly_eval(p, hi)
