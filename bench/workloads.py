"""The four benchmark workloads.

A workload builds its inputs in ``setup`` and then hands out passes: lists
of items, each one op.  ``run`` performs an op and is the only part timed;
``check`` compares its result with the known answer and returns one of

* ``("ok", "")``
* ``("unresolved", why)``: an ``inconclusive`` verdict, or a surface sample
  showing the sampler defect of ROADMAP item 2 (points whose moment image
  leaves P, or a sampler error on a curve that lies in P);
* ``("wrong", why)``: a wrong answer.

``next_pass`` repeats the same inputs in generation order (the ladder's as
fresh translates; the timed loop shuffles each pass), and
``run_traced`` is the op as the traced run performs it: the same call, except
that cli-mix calls ``cli.main`` in process.  toriclift is imported inside
``setup``, which is timed, and every call goes through a module attribute so
that the tracer's wrappers see it.

``reference`` names the reference (see ``run.slowness``) timed beside each
op to gauge the host's speed: in-process Python, or for the CLI
subprocesses a fresh interpreter.

``pass_s`` is a workload's nominal pass time: near what one pass took on a
shared 2-core x86-64 Linux VM, on the commit that defined the benchmark,
and set a little lower for polytope-ladder and cli-mix so that a run at
``--seconds 12`` makes 4 passes (see README.md).  It fixes the number of
passes a run makes (see run.py) and is never measured.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP_OPS = 4


class LiftCorpus:
    """op = one check_lift call at the default order."""

    name = "lift-corpus"
    why = "check_lift over 200 seeded curves with known verdicts: criterion, jets and Sturm chains"
    pass_s = 4.0
    reference = "python"

    def setup(self, seed: int, workdir: str) -> None:
        from toriclift import catalog, chart, criterion, polytope

        self.criterion = criterion
        polys = corpus.build_polytopes(catalog)
        for P in polys.values():
            polytope.face_lattice(P)
        self.items = [(c, polys[c.polytope], chart.CircleEmbedding(c.circle)) for c in corpus.lift_corpus(seed)]
        # the first curves are low-degree family curves, so warm-up costs
        # about the same on every seed
        for item in self.items[:WARMUP_OPS]:
            self.run(item)

    def next_pass(self) -> list:
        return self.items

    def run(self, item):
        c, P, K = item
        return self.criterion.check_lift(P, c.coords, c.interval, K).verdict

    run_traced = run

    def check(self, item, verdict):
        c = item[0]
        if verdict == "inconclusive":
            return "unresolved", f"inconclusive (expected {c.expected}): {c.label()}"
        if verdict != c.expected:
            return "wrong", f"verdict {verdict}, expected {c.expected}: {c.label()}"
        return "ok", ""


class PolytopeLadder:
    """op = HPolytope construction, validate_delzant, face_lattice on a fresh product."""

    name = "polytope-ladder"
    why = "fresh Delzant products, n = 2..5, d <= 12: polytope and exact kernels, jets idle"
    pass_s = 3.0
    reference = "python"

    def setup(self, seed: int, workdir: str) -> None:
        from toriclift import polytope

        self.polytope = polytope
        self.source = corpus.LadderSource(seed)
        for item in self.source.next_pass()[:WARMUP_OPS]:
            self.run(item)

    def next_pass(self) -> list:
        return self.source.next_pass()

    def run(self, item):
        pm = self.polytope
        P = pm.HPolytope(item.n, item.normals, item.offsets)
        return pm.validate_delzant(P), pm.face_lattice(P)

    run_traced = run

    def check(self, item, result):
        report, faces = result
        vertices = sum(1 for f in faces if f.dim == 0)
        if (vertices, len(faces)) != (item.vertices, item.faces):
            return "wrong", (f"{item.name}: {vertices} vertices and {len(faces)} faces, "
                             f"expected {item.vertices} and {item.faces}")
        bad = report.failures()
        if (len(bad) != item.bad_vertices or report.ok != (item.bad_vertices == 0)
                or any(v.det is None or abs(v.det) != 2 for v in bad)):
            return "wrong", (f"{item.name}: {len(bad)} non-Delzant vertices "
                             f"{[v.det for v in bad]}, expected {item.bad_vertices} with |det| 2")
        return "ok", ""


class CliCommand:
    __slots__ = ("argv", "code", "verify")

    def __init__(self, argv, code, verify=None):
        self.argv, self.code, self.verify = argv, code, verify


def _obj_counts(path: str) -> tuple[int, int]:
    """Vertex and face lines of an OBJ file."""
    with open(path) as fh:
        kinds = [line[:2] for line in fh]
    return kinds.count("v "), kinds.count("f ")


def _json_count(field, want):
    def verify(out: str):
        got = len(json.loads(out)[field])
        return "" if got == want else f"{got} {field}, expected {want}"
    return verify


class CliMix:
    """op = one ``python -m toriclift.cli <cmd> ... --json`` subprocess."""

    name = "cli-mix"
    why = "sequential CLI subprocesses: interpreter start and imports dominate; exit codes and JSON bytes"
    pass_s = 3.0
    reference = "interpreter"
    NX, NT = 12, 16

    def setup(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        data = os.path.join(ROOT, "data")
        cmds = []
        known = {  # vertices, faces, Delzant
            "cp2_3": (3, 7, True), "cp3": (4, 15, True), "hirzebruch": (4, 9, True),
            "unit_square": (4, 9, True), "non_delzant_triangle": (3, 7, False),
        }
        for name, (nv, nf, ok) in known.items():
            path = os.path.join(data, f"{name}.json")
            cmds.append(CliCommand(["validate", path, "--json"], 0 if ok else 1,
                                   _json_count("vertices", nv)))
            if name != "non_delzant_triangle":
                cmds.append(CliCommand(["faces", path, "--json"], 0, _json_count("faces", nf)))
        # CP^2(3), r on the edge y = 0: equivalent iff t1 - t2 is integral in x
        cp2 = os.path.join(data, "cp2_3.json")
        for _ in range(2):
            r = F(rng.randint(1, 29), 10)
            t1 = [F(rng.randint(0, 99), 100) for _ in range(2)]
            same = [t1[0] + rng.randint(-2, 2), F(rng.randint(0, 99), 100)]
            other = [t1[0] + F(rng.randint(1, 99), 100), F(rng.randint(0, 99), 100)]
            for t2, code in ((same, 0), (other, 1)):
                # "--t2=-1/2,..." keeps argparse from reading a negative value as an option
                cmds.append(CliCommand(["equiv", cp2, f"--r={r},0", "--t1=" + ",".join(map(str, t1)),
                                        "--t2=" + ",".join(map(str, t2)), "--json"], code))
        curves = corpus.lift_corpus(seed)
        kinds = (  # two curves each; k2 == 1 is the high-valuation case the seed leaves undecided
            lambda c: c.kind == "family" and c.expected == "accept",
            lambda c: c.kind == "family-high-valuation" and c.circle[1] == 1,
            lambda c: c.kind == "family-high-valuation" and c.circle[1] != 1,
            lambda c: c.kind.startswith("chord"),
            lambda c: c.kind == "zero-coordinate" and c.expected == "accept",
        )
        picks = [c for kind in kinds for c in rng.sample([c for c in curves if kind(c)], 2)]
        box3 = os.path.join(workdir, "box3.json")
        with open(box3, "w") as fh:
            json.dump(corpus.box3_json(), fh)
        for i, c in enumerate(picks):
            path = os.path.join(workdir, f"curve{i}.json")
            with open(path, "w") as fh:
                json.dump(c.to_json(), fh)
            polytope = box3 if c.polytope == "box3" else os.path.join(data, f"{c.polytope}.json")
            cmds.append(CliCommand(["lift-check", polytope, path, "--json"],
                                   {"accept": 0, "reject": 1}[c.expected]))
        for i in range(2):  # the two accepted family curves, from the origin of CP^2(3)
            mesh = os.path.join(workdir, f"mesh{i}.obj")
            cmds.append(CliCommand(["sample", cp2, os.path.join(workdir, f"curve{i}.json"), "--nx", str(self.NX),
                                    "--nt", str(self.NT), "--out", mesh, "--json"], 0, self._verify_mesh(mesh)))
        self.env = dict(os.environ, PYTHONPATH="src")
        self.outputs: dict = {}
        self.items = cmds
        self.run(cmds[0])  # validate on CP^2(3), the same warm-up on every seed

    def _verify_mesh(self, path):
        def verify(out: str):
            got, want = _obj_counts(path), (self.NX * self.NT, (self.NX - 1) * self.NT)
            return "" if got == want else f"mesh (vertices, faces) {got}, expected {want}"
        return verify

    def next_pass(self) -> list:
        return self.items

    def run(self, cmd):
        proc = subprocess.run([sys.executable, "-m", "toriclift.cli", *cmd.argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return "subprocess", proc.returncode, proc.stdout

    def run_traced(self, cmd):
        """In-process replay of the same argv, so the tracer sees io and cli."""
        from toriclift import cli

        out, err = _stdio.StringIO(), _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        return "in-process", code, out.getvalue()

    def check(self, cmd, result):
        mode, code, out = result
        shown = " ".join(os.path.relpath(a, ROOT) if os.path.isabs(a) else a for a in cmd.argv)
        if code != cmd.code:
            if code == 2 and cmd.argv[0] == "lift-check":
                return "unresolved", f"exit 2 (inconclusive), expected {cmd.code}: {shown}"
            return "wrong", f"exit {code}, expected {cmd.code}: {shown}"
        if self.outputs.setdefault((mode, tuple(cmd.argv)), out) != out:
            return "wrong", f"--json output differs between repeats: {shown}"
        problem = cmd.verify(out) if cmd.verify else ""
        if problem:
            return "wrong", f"{problem}: {shown}"
        return "ok", ""


class SurfaceOracle:
    """op = build_graph at endpoint 0, sample, probe, density at 4 points, OBJ export."""

    name = "surface-oracle"
    why = "the float sampler and probe on curves inside P; build_graph used for sampling, not verdicts"
    pass_s = 1.5
    reference = "python"
    NX, NT = 48, 64
    DENSITY_AT = (1 / 16, 0.3, 0.55, 0.8)  # fractions of x1_max, as in acceptance 4
    TOL = 1e-9

    def setup(self, seed: int, workdir: str) -> None:
        import numpy as np
        from toriclift import catalog, chart, criterion, polytope, surface

        self.np, self.chart, self.criterion, self.surface = np, chart, criterion, surface
        polys = corpus.build_polytopes(catalog)
        for P in polys.values():
            polytope.face_lattice(P)
        self.items = [(c, polys[c.polytope], chart.CircleEmbedding(c.circle)) for c in corpus.surface_draw(seed)]
        self.mesh = os.path.join(workdir, "surface.obj")
        self.run(self.items[0])  # a family curve, the same warm-up cost on every seed

    def next_pass(self) -> list:
        return self.items

    def run(self, item):
        c, P, K = item
        sf = self.surface
        graph = self.criterion.build_graph(P, c.coords, c.interval, 0, K)
        try:
            sample = sf.sample_surface(graph, self.NX, self.NT)
            sf.smoothness_probe(graph)
            xm = float(graph.x1_max)
            density = [sf.pullback_density(graph, a * xm) for a in self.DENSITY_AT]
            sf.export_mesh(sample, "obj", self.mesh)
        except sf.SamplerError as exc:
            return graph, None, str(exc)
        return graph, sample, density

    run_traced = run

    def _points_outside(self, graph, sample, P) -> int:
        """Sampled points whose moment image r_j^2/2, mapped back by from_chart, leaves P."""
        np = self.np
        n = P.n
        origin = self.chart.from_chart(graph.chart, [0] * n)
        U = np.array([[float(a - o) for a, o in zip(self.chart.from_chart(
            graph.chart, [int(i == j) for i in range(n)]), origin)] for j in range(n)])
        pts = sample.points
        moment = (pts[..., 0::2] ** 2 + pts[..., 1::2] ** 2) / 2  # graph positions, parameter first
        x = np.empty_like(moment)
        x[..., graph.param_chart_index] = moment[..., 0]
        for pos, j in enumerate(graph.other_chart_indices, start=1):
            x[..., j] = moment[..., pos]
        ambient = np.array([float(o) for o in origin]) + x @ U
        A = np.array(P.normals, dtype=float)
        lam = np.array([float(v) for v in P.offsets])
        slack = ambient @ A.T - lam
        return int(np.count_nonzero(np.any(slack > self.TOL * (1 + np.abs(lam)), axis=-1)))

    def check(self, item, result):
        c, P, _ = item
        graph, sample, density = result
        if sample is None:
            return "unresolved", f"sampler error ({density}): {c.label()}"
        outside = self._points_outside(graph, sample, P)
        if outside:
            return "unresolved", f"{outside} of {self.NX * self.NT} sampled points map outside P: {c.label()}"
        for numeric, exact in density:
            if not abs(numeric - exact) <= 1e-8 * max(1.0, abs(exact)):
                return "wrong", f"pullback density {numeric} != exact {exact}: {c.label()}"
        got, want = _obj_counts(self.mesh), (self.NX * self.NT, (self.NX - 1) * self.NT)
        if got != want:
            return "wrong", f"mesh (vertices, faces) {got}, expected {want}: {c.label()}"
        return "ok", ""


WORKLOADS = {w.name: w for w in (LiftCorpus, PolytopeLadder, CliMix, SurfaceOracle)}
