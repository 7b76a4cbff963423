"""Decide whether curves in the moment polytope lift to smooth invariant
surfaces, and read the diagnostics.

Three instructive cases on the scaled projective-plane simplex:

  1. the diagonal with circle direction (1, 1)  -> accept (a round disc),
  2. the diagonal with circle direction (1, 0)  -> reject (a half-cone:
     the weight ratio m = 0 clashes with the odd valuation of x_2),
  3. an antidiagonal segment with direction (1, 1) -> reject (the tangent
     is orthogonal to the circle direction everywhere, so the pulled-back
     area form vanishes).

Run:  python3 demos/lift_criterion.py
"""

from fractions import Fraction as F

from toriclift import catalog
from toriclift.chart import CircleEmbedding
from toriclift.criterion import build_graph, check_lift, valuation


def show(title, P, gamma, interval, K):
    print(f"\n=== {title} ===")
    verdict = check_lift(P, gamma, interval, CircleEmbedding(K))
    print(f"  verdict: {verdict.verdict}")
    for rep in verdict.reports:
        print(f"  {rep.name}: {rep.status}")
        for c in rep.conditions:
            extra = f" ({c.detail})" if c.detail else ""
            print(f"    {c.condition} [{c.location}]: {c.outcome}{extra}")
    return verdict


def main():
    P = catalog.cp2(3)
    diag = [[F(0), F(1)], [F(0), F(1)]]
    iv = (F(0), F(3, 2))

    show("diagonal, K = (1, 1)", P, diag, iv, (1, 1))
    show("diagonal, K = (1, 0)", P, diag, iv, (1, 0))
    show("antidiagonal (s, 2 - s), K = (1, 1)", P,
         [[F(0), F(1)], [F(2), F(-1)]], (F(0), F(2)), (1, 1))

    # a peek under the hood: the chart polynomials of the accepted disc
    graph = build_graph(P, diag, iv, 0, CircleEmbedding((1, 1)))
    print("\nEndpoint chart of the accepted disc at the origin:")
    vertex = ", ".join(map(str, graph.chart.vertex))
    print(f"  chart vertex ({vertex}), weights k = {graph.k}")
    for pos, num in enumerate(graph.num, start=1):
        x = [F(c, graph.den) for c in num]
        coeffs = ", ".join(map(str, x))
        print(f"  x_{pos}(tau) coefficients [{coeffs}], valuation {valuation(x)}")
    print(f"  face index set Q = {sorted(graph.Q)}, tau range = {graph.x1_max}")


if __name__ == "__main__":
    main()
