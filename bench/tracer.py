"""Span tracer that times calls into toriclift's public functions from outside.

Each traced function is replaced, in every ``toriclift.*`` namespace that
binds it, by a wrapper recording a span: name, start, end, parent span and
op id.  Spans stay in memory and are written once, at the end of the run.
A traced name that the package no longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "exactmath": ("solve_rational", "hnf", "rank", "integer_kernel_basis", "int_det",
                  "invert_rational", "sturm_count", "isolate_root"),
    # "construct" is the span around HPolytope.__post_init__
    "polytope": ("construct", "enumerate_vertices", "face_lattice", "validate_delzant",
                 "edge_vectors_at_vertex", "minimal_face"),
    "chart": ("make_chart", "q_set"),
    "jets": ("reversion", "compose", "sqrt_factor_class", "divided_smoothness"),
    "criterion": ("check_lift", "check_interior", "check_transversality", "build_graph",
                  "check_endpoint"),
    "surface": ("sample_surface", "smoothness_probe", "pullback_density", "export_mesh"),
    "io": ("load_polytope", "load_curve", "dumps_deterministic"),
    "cli": ("main",),
}

# Value kept with a span, for the derived ratios below.
NOTES = {
    "polytope.enumerate_vertices": len,
    "jets.sqrt_factor_class": lambda r: r.tag == "unknown",
    "jets.divided_smoothness": lambda r: r.status == "unknown",
}

# (name, unit, better) of every metric a traced run reports
DERIVED = (
    ("polytope.vertex_yield", "ratio", "higher"),
    ("jets.unknown_frac", "ratio", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    out = []
    for mod, names in TRACED.items():
        for fn in names:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
            out.append((f"{mod}.{fn}.self_s", "s", "lower"))
    return out + list(DERIVED)


class Tracer:
    """Wrappers for the traced functions; ``install`` swaps them in, ``op`` tags new spans.

    Create it after toriclift is imported: the binding sites are found once,
    so installing and removing the wrappers is cheap enough to do per op.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._sites: list = []  # (namespace, attribute, original, wrapper)
        homes = {}
        for mod in TRACED:
            try:
                homes[mod] = importlib.import_module(f"toriclift.{mod}")
            except ModuleNotFoundError:
                homes[mod] = None  # a deleted module: all its names are absent
        binders = [m for name, m in sorted(sys.modules.items())
                   if name == "toriclift" or name.startswith("toriclift.")]
        for mod, names in TRACED.items():
            for fn in names:
                key = f"{mod}.{fn}"
                if fn == "construct":
                    cls = getattr(homes[mod], "HPolytope", None)
                    orig = vars(cls).get("__post_init__") if cls is not None else None
                    if orig is None:
                        self.absent.append(key)
                    else:
                        self._sites.append((cls, "__post_init__", orig, self._wrap(key, orig)))
                    continue
                orig = getattr(homes[mod], fn, None)
                if orig is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, orig)
                for m in binders:
                    for attr, value in vars(m).items():
                        if value is orig:
                            self._sites.append((m, attr, orig, wrapper))

    def _wrap(self, name, fn):
        spans, stack, note, clock = self.spans, self._stack, NOTES.get(name), time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = note(result) if note is not None and result is not None else None
                spans[idx] = (name, start, end, parent, tracer.op, value)

        return traced

    def install(self) -> None:
        for obj, attr, _, wrapper in self._sites:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in self._sites:
            setattr(obj, attr, orig)

    def metrics(self) -> dict[str, float]:
        """calls and self time per traced function, plus the span-derived ratios."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        out = {}
        for mod, names in TRACED.items():
            for fn in names:
                out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.self_s"] = self_s[f"{mod}.{fn}"]

        # vertices returned per solve_rational made under enumerate_vertices;
        # calls answered from a cache make no solves and are left out
        solves: Counter = Counter()
        for name, _, _, parent, _, _ in spans:
            if name != "exactmath.solve_rational":
                continue
            while parent >= 0 and spans[parent][0] != "polytope.enumerate_vertices":
                parent = spans[parent][3]
            if parent >= 0:
                solves[parent] += 1
        vertices = sum(spans[i][5] for i in solves)
        out["polytope.vertex_yield"] = vertices / sum(solves.values()) if solves else 0.0

        unknown = [s[5] for s in spans
                   if s[0] in ("jets.sqrt_factor_class", "jets.divided_smoothness") and s[5] is not None]
        out["jets.unknown_frac"] = sum(unknown) / len(unknown) if unknown else 0.0
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
