"""Sample the rotated surfaces behind the lift verdicts and cross-check
them numerically.

For each case this script builds the endpoint graph, runs the
floating-point planarity probe at the tau = 0 tip, verifies the pullback
density identity, and writes an OBJ mesh into a new temporary directory,
printing each path.  The directory and its meshes are removed on exit.

Run:  python3 demos/surface_sampler.py
"""

import os
import tempfile
from fractions import Fraction as F

from toriclift import catalog
from toriclift.chart import CircleEmbedding
from toriclift.criterion import build_graph
from toriclift.surface import (
    export_mesh,
    pullback_density,
    sample_surface,
    smoothness_probe,
)


def show(name, P, gamma, interval, K, outdir):
    graph = build_graph(P, gamma, interval, 0, CircleEmbedding(K))
    probe = smoothness_probe(graph)
    print(f"\n=== {name} ===")
    print(f"  weights k = {graph.k}")
    print(f"  probe: {probe.kind} "
          f"(residuals {probe.residual_coarse:.3g} -> {probe.residual_fine:.3g}, "
          f"ratio {probe.ratio:.2f})")
    omega, exact = pullback_density(graph, 0.5)
    print(f"  pullback density at tau = 0.5: numeric {omega:.10f}, exact {exact:.10f}")
    sample = sample_surface(graph, 80, 64)
    out = os.path.join(outdir, f"{name}.obj")
    export_mesh(sample, "obj", out)
    print(f"  wrote {out}")


def main():
    P = catalog.cp2(3)
    diag = [[F(0), F(1)], [F(0), F(1)]]
    iv = (F(0), F(3, 2))
    with tempfile.TemporaryDirectory(prefix="toriclift-meshes-") as outdir:
        show("disc", P, diag, iv, (1, 1), outdir)  # smooth: probe says planar
        show("cone", P, diag, iv, (1, 0), outdir)  # corner at the tip: conelike
        show("paraboloid", P, [[F(0), F(1)], [F(0), F(0), F(1)]],
             (F(0), F(1)), (1, 0), outdir)         # C^1 sheet: planar again


if __name__ == "__main__":
    main()
