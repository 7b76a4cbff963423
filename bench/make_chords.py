"""Regenerate bench/chords.json, the stored chord pool of the lift corpus.

Run from the repository root:

    python3 bench/make_chords.py

Each chord's expected verdict is the verdict check_lift gives at the
default order.  Where that verdict is ``inconclusive``, the expected
verdict comes from the closed form of the endpoint conditions: in the
endpoint chart the parameter coordinate has x_p(0) = 0 and x_p'(0) > 0,
so g_j = x_j o x_p^{-1} has the valuation of x_j and the sign of its
leading coefficient.  The script checks that the closed form agrees with
every decided verdict before it writes anything.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from corpus import CHORDS_FILE, build_polytopes, random_chord  # noqa: E402
from toriclift import catalog  # noqa: E402
from toriclift.chart import CircleEmbedding  # noqa: E402
from toriclift.criterion import GraphBuildReject, build_graph, check_lift  # noqa: E402
from toriclift.exactmath import poly_add, poly_compose_linear, poly_scale, poly_sub, poly_trim  # noqa: E402
from toriclift.polytope import face_lattice  # noqa: E402

POOL_SEED = 2512
PER_STRATUM = 30
DEGREES = (0, 1, 2)


def endpoint_holds(P, gamma, interval, endpoint, circle) -> bool:
    """Closed-form endpoint criterion from the chart polynomials x_j(tau)."""
    try:
        graph = build_graph(P, gamma, interval, endpoint, circle)
    except GraphBuildReject:
        return False
    e = interval[0] if endpoint == 0 else interval[1]
    sign = F(1 if endpoint == 0 else -1)
    chart = graph.chart
    diff = [poly_sub(poly_compose_linear(c, e, sign), [chart.vertex[j]]) for j, c in enumerate(gamma)]
    x = []
    for row in chart.inverse:
        acc = []
        for j in range(P.n):
            acc = poly_add(acc, poly_scale(diff[j], row[j]))
        x.append(poly_trim(acc))
    k1 = graph.k[0]
    if k1 == 0:
        return False
    for pos, j in enumerate(graph.other_chart_indices, start=2):
        ki = graph.k[pos - 1]
        if pos in graph.Q:
            if ki != 0:
                return False
            continue  # x_j(0) > 0 on the face: the square root is smooth
        if ki % k1:
            return False
        if not x[j]:
            continue  # identically zero coordinate
        v = next(i for i, c in enumerate(x[j]) if c != 0)
        if x[j][v] < 0 or v < ki // k1 or (v - ki // k1) % 2:
            return False
    return True


def closed_form_verdict(P, gamma, interval, circle, seed_verdict) -> str:
    for name in ("interior", "transversality"):
        if seed_verdict.report(name).status == "fails":
            return "reject"
    ok = all(endpoint_holds(P, gamma, interval, ep, circle) for ep in (0, 1))
    return "accept" if ok else "reject"


def main() -> int:
    rng = random.Random(POOL_SEED)
    polytopes = build_polytopes(catalog)
    interval = (F(0), F(1))
    chords = []
    for name, P in polytopes.items():
        faces = face_lattice(P)
        for deg in DEGREES:
            made = 0
            while made < PER_STRATUM:
                coords, K = random_chord(rng, P, faces, deg)
                circle = CircleEmbedding(K)
                try:
                    verdict = check_lift(P, coords, interval, circle)
                except ValueError:
                    continue  # singular parametrisation: malformed input, exit 3
                closed = closed_form_verdict(P, coords, interval, circle, verdict)
                if verdict.verdict == "inconclusive":
                    expected, source = closed, "closed-form"
                else:
                    if closed != verdict.verdict:
                        raise SystemExit(f"closed form {closed} != check_lift {verdict.verdict}: {coords} {K}")
                    expected, source = verdict.verdict, "check_lift"
                chords.append({
                    "polytope": name,
                    "deg": deg,
                    "coords": [[str(c) for c in row] for row in coords],
                    "circle": list(K),
                    "expected": expected,
                    "source": source,
                })
                made += 1
    with open(CHORDS_FILE, "w") as fh:
        json.dump({"pool_seed": POOL_SEED, "domain": ["0", "1"], "chords": chords}, fh, separators=(",", ":"))
        fh.write("\n")
    by = {}
    for c in chords:
        by[c["expected"], c["source"]] = by.get((c["expected"], c["source"]), 0) + 1
    print(f"wrote {len(chords)} chords to {CHORDS_FILE}: {by}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
