"""The endpoint jet data in closed form.

At an endpoint the graph coordinate g_j = x_j o x_p^{-1} has the valuation
and leading sign of the exact chart polynomial x_j(tau), so these tests
check the kernel that reads them from the polynomials: `divided_smoothness`
for sqrt(2 x_j) / r_1^m.  `valuation` and the radius itself (m = 0, the
`TestSqrtFactorClass` cases) have their tests in test_criterion.py.
"""

import math
from fractions import Fraction

import pytest

from toriclift.criterion import divided_smoothness

F = Fraction


def J(*coeffs):
    return [F(c) for c in coeffs]


class TestDividedSmoothness:
    @pytest.mark.parametrize("coeffs,m,status,reason", [
        ((0, 1), 1, "holds", None),          # z2 = c z1, the smooth disc
        ((0, 1), 0, "fails", "parity"),      # the cone
        ((0, 0, 1), 1, "fails", "parity"),
        ((0, 0, 0, 1), 1, "holds", None),
        ((0, 1), 2, "fails", "negative_power"),
        ((0, -1), 1, "fails", "negative_leading"),
    ])
    def test_table(self, coeffs, m, status, reason):
        out = divided_smoothness(J(*coeffs), m)
        assert ("holds" if out is None else "fails") == status
        assert out == reason

    def test_identically_zero_holds(self):
        assert divided_smoothness([], 3) is None

    def test_numeric_probe_agrees(self):
        # holds case: x = tau, m = 1 gives sqrt(2 tau) / r_1 = 1 with
        # r_1 = sqrt(2 tau); parity-fail case: m = 0 gives r_1 itself, the
        # cone |r|, whose one-sided slope at 0 stays 1
        f = lambda r: math.sqrt(2 * (r * r / 2)) / abs(r)
        assert f(1e-6) == pytest.approx(1.0, rel=1e-9)
        slope = (math.sqrt(2 * ((1e-6) ** 2 / 2)) - 0.0) / 1e-6
        assert abs(slope) > 0.5
        assert divided_smoothness(J(0, 1), 1) is None
        assert divided_smoothness(J(0, 1), 0) == "parity"
