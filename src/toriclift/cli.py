"""Command-line front end.

Exit codes: 0 accept/pass, 1 reject/fail, 3 usage or parse error.  A
curve the criterion rules out (including an endpoint outside the polytope,
a singular endpoint parametrisation, or for `sample` a curve that leaves
the polytope, where a radius would be the root of a negative number) is a
reject, exit 1; a malformed file or option is exit 3.  Machine output
(--json) is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys

from . import io
from .polytope import (
    PolytopeError,
    face_lattice,
    format_point,
    points_equivalent,
    validate_delzant,
    validate_quasitoric,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 3


def _emit(args, machine: dict, human: list[str]) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(io.dumps_deterministic(machine))
    else:
        for line in human:
            print(line)


def cmd_validate(args) -> int:
    P = io.load_polytope(args.polytope)
    report = validate_delzant(P)
    machine = {
        "command": "validate",
        "ok": report.ok,
        "vertices": [
            {
                "vertex": list(map(str, v.vertex)),
                "simple": v.simple,
                "rational": True,
                "det": v.det,
                "smooth": v.smooth,
            }
            for v in report.verdicts
        ],
    }
    human = [f"Delzant validation: {'PASS' if report.ok else 'FAIL'}"]
    for v in report.verdicts:
        pt = format_point(v.vertex)
        if v.simple and v.smooth:
            human.append(f"  vertex {pt}: ok (det {v.det})")
        elif not v.simple:
            human.append(f"  vertex {pt}: FAIL (not simple)")
        else:
            human.append(f"  vertex {pt}: FAIL (|det| = {abs(v.det)})")
    _emit(args, machine, human)
    return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_quasitoric(args) -> int:
    P = io.load_polytope(args.polytope)
    vectors = io.load_facet_vectors(args.vectors)
    strict = not args.relax_sign
    report = validate_quasitoric(P, vectors, strict=strict)
    machine = {
        "command": "quasitoric",
        "ok": report.ok,
        "strict": strict,
        "vertices": [
            {"vertex": list(map(str, v)), "det": d}
            for v, d in report.vertex_dets
        ],
    }
    human = [f"Quasitoric facet-vector check ({'det = +1' if strict else '|det| = 1'}): "
             f"{'PASS' if report.ok else 'FAIL'}"]
    for v, d in report.vertex_dets:
        human.append(f"  vertex {format_point(v)}: det = {d}")
    _emit(args, machine, human)
    return EXIT_PASS if report.ok else EXIT_FAIL


def cmd_faces(args) -> int:
    P = io.load_polytope(args.polytope)
    faces = face_lattice(P)
    machine = {
        "command": "faces",
        "faces": [
            {
                "active": sorted(f.active),
                "dim": f.dim,
                "vertices": [list(map(str, v)) for v in f.vertices],
            }
            for f in faces
        ],
    }
    human = [f"{len(faces)} faces"]
    for f in faces:
        human.append(f"  dim {f.dim}: facets {sorted(i + 1 for i in f.active)}, "
                     f"{len(f.vertices)} vertices")
    _emit(args, machine, human)
    return EXIT_PASS


def _parse_vec(s: str, field: str):
    return tuple(io.parse_rational(part, field) for part in s.split(","))


def cmd_equiv(args) -> int:
    P = io.load_polytope(args.polytope)
    vecs = {f: _parse_vec(getattr(args, f), f"--{f}") for f in ("r", "t1", "t2")}
    for f, x in vecs.items():  # named as the user typed them, not as points_equivalent names them
        if len(x) != P.n:
            raise io.FormatError(f"--{f} has length {len(x)}, the polytope has dimension {P.n}")
    r = vecs["r"]
    eq = points_equivalent(P, (vecs["t1"], r), (vecs["t2"], r))
    machine = {"command": "equiv", "equivalent": eq}
    _emit(args, machine, [f"equivalent: {eq}"])
    return EXIT_PASS if eq else EXIT_FAIL


def cmd_lift_check(args) -> int:
    from .criterion import check_lift  # only lift-check and sample load the criterion

    P = io.load_polytope(args.polytope)
    spec = io.load_curve(args.curve)
    verdict = check_lift(P, spec.gamma, spec.interval, spec.circle, spec.chart_vertices)
    machine = {"command": "lift-check", **verdict.to_dict()}
    human = [f"verdict: {verdict.verdict}"]
    for rep in verdict.reports:
        human.append(f"  {rep.name}: {rep.status}")
        for c in rep.conditions:
            human.append(f"    {c.condition} [{c.location}]: {c.outcome}"
                         + (f" ({c.detail})" if c.detail else ""))
    _emit(args, machine, human)
    return EXIT_PASS if verdict.verdict == "accept" else EXIT_FAIL


def _parse_project(s: str, n: int) -> tuple[int, int, int]:
    """--project: three coordinates in 1..2n, returned 0-based."""
    try:
        idx = tuple(int(part) for part in s.split(","))
    except ValueError:
        idx = ()
    if len(idx) != 3 or not all(1 <= i <= 2 * n for i in idx):
        raise io.FormatError(f"--project: expected three integers in 1..{2 * n}, got {s!r}")
    return tuple(i - 1 for i in idx)


def cmd_sample(args) -> int:
    # criterion before numpy: the memory its compile takes is freed before numpy loads, so it
    # does not add to the process's peak (about 1 MB when numpy is loaded first)
    from .criterion import GraphBuildReject, build_graph
    from . import surface  # the only numpy user, so no other subcommand loads it

    fmt = args.format or ("obj" if str(args.out).endswith(".obj") else "csv")
    # options before the curve, so that a malformed one is exit 3 whatever the curve does
    if args.nx < 1 or args.nt < 1:
        raise io.FormatError(f"empty grid: --nx {args.nx}, --nt {args.nt}")
    if fmt == "obj" and args.nt < 3:
        raise io.FormatError(f"OBJ export needs nt >= 3, got nt = {args.nt}")
    P = io.load_polytope(args.polytope)
    project = _parse_project(args.project, P.n) if fmt == "obj" else ()  # CSV writes every coordinate
    spec = io.load_curve(args.curve)
    try:
        graph = build_graph(P, spec.gamma, spec.interval, args.endpoint, spec.circle,
                            spec.chart_vertices[args.endpoint])
    except GraphBuildReject as exc:
        print(f"reject: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        sample = surface.sample_surface(graph, args.nx, args.nt)
    except surface.SamplerError as exc:  # a negative radicand: the curve leaves the chart's orthant
        print(f"reject: {exc}", file=sys.stderr)
        return EXIT_FAIL
    surface.export_mesh(sample, fmt, args.out, project=project)
    if not args.json:
        print(f"wrote {args.out} ({args.nx}x{args.nt} grid, format {fmt})")
    else:
        sys.stdout.write(io.dumps_deterministic(
            {"command": "sample", "out": str(args.out), "nx": args.nx, "nt": args.nt,
             "format": fmt}))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toriclift",
        description="Delzant polytope validation and the equivariant curve-lift criterion.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="Delzant (simple/rational/smooth) report")
    p.add_argument("polytope")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("quasitoric", help="facet-vector determinant report")
    p.add_argument("polytope")
    p.add_argument("vectors")
    p.add_argument("--relax-sign", action="store_true", help="accept |det| = 1")
    common(p)
    p.set_defaults(func=cmd_quasitoric)

    p = sub.add_parser("faces", help="face lattice dump")
    p.add_argument("polytope")
    common(p)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("equiv", help="quotient-construction point equivalence")
    p.add_argument("polytope")
    p.add_argument("--r", required=True, help="base point, comma-separated rationals")
    p.add_argument("--t1", required=True, help="first torus point (mod 1)")
    p.add_argument("--t2", required=True, help="second torus point (mod 1)")
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("lift-check", help="decide the equivariant lift criterion")
    p.add_argument("polytope")
    p.add_argument("curve")
    common(p)
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("sample", help="sample the rotated surface and export a mesh")
    p.add_argument("polytope")
    p.add_argument("curve")
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--nt", type=int, default=128)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "obj"])
    p.add_argument("--project", default="1,2,3", help="coordinates for the OBJ projection")
    p.add_argument("--endpoint", type=int, choices=[0, 1], default=0)
    common(p)
    p.set_defaults(func=cmd_sample)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (io.FormatError, PolytopeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
