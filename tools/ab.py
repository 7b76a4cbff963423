#!/usr/bin/env python3
"""Alternating base/change pairs of one benchmark workload, summarised in BENCH_<label>.json.

    python3 tools/ab.py BASE [CHANGE] --workload polytope-ladder --pairs 10 --seeds 4101.. --seconds 12

BASE and CHANGE are git revisions; CHANGE defaults to HEAD.  Each is
extracted with `git archive` into a temporary directory, and the
checkout's `bench/` is copied over both trees, so both sides run one
harness.  Pair i runs `bench/run.py --workload W --seed S_i --seconds T
--trace 0` in each tree, the base first in even pairs and the change
first in odd ones, so neither side always runs second.  Each run moves
its tree to one common path first, so that the two sides' runs differ
in the tree's files and not in its path.  `--seeds` takes
`A..` (A, A+1, ...), `A..B` (both included) or a comma list; it defaults
to `1..`.

The summary, written at the repository root and nowhere else in the
checkout, holds each tree's count of lines in `src/**/*.py`, every
pair's end-to-end metrics, each side's median and quartiles per metric,
the pairs the change won, "better" as BENCHMARK.json declares it, and an
`env` block.  The exit status is 1
when a run gives a wrong answer.  Not part of the tier-1 suite: a pair
costs two benchmark runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOWNESS = re.compile(r"median slowness ([0-9.eE+-]+)")


def parse_seeds(spec: str, pairs: int) -> list[int]:
    """The first `pairs` seeds of `A..`, `A..B` or `a,b,c`."""
    if ".." in spec:
        first, _, last = spec.partition("..")
        seeds = list(range(int(first), int(last) + 1 if last else int(first) + pairs))
    else:
        seeds = [int(s) for s in spec.split(",")]
    if len(seeds) < pairs:
        raise ValueError(f"--seeds {spec} gives {len(seeds)} seeds for {pairs} pairs")
    return seeds[:pairs]


def directions() -> dict[str, str]:
    """The end-to-end metrics of BENCHMARK.json, each with the direction that is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(xs: list[float]) -> dict[str, float]:
    """Median and the first and third quartiles (inclusive method; one value is all three)."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's quartiles, the pairs the change won (a tie wins neither),
    the relative change of the medians, and whether the medians differ, in the better
    direction, by more than the base's interquartile range."""
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        b, c = quartiles(base), quartiles(change)
        gain = sign * (c["median"] - b["median"])
        out[name] = {
            "better": direction, "base": b, "change": c,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)), "pairs": len(pairs),
            "median_change": c["median"] / b["median"] - 1 if b["median"] else None,
            "beyond_base_iqr": gain > b["q3"] - b["q1"],
        }
    return out


def src_lines(tree: Path) -> int:
    """The lines of the Python files under `tree`/src, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src").rglob("*.py"))


def extract(rev: str, dest: Path) -> str:
    """The tree of `rev` in `dest`, with the checkout's bench/; returns the commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    shutil.rmtree(dest / "bench", ignore_errors=True)
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    return sha


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of `tree`, moved to the one path every run uses:
    its metrics, answer counts and slowness."""
    here = tree.parent / "run"
    tree.rename(here)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=here, capture_output=True, text=True)
    finally:
        here.rename(tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree.name}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    slow = SLOWNESS.search(proc.stdout)
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "slowness": float(slow.group(1)) if slow else None}


def env_block() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the base revision")
    ap.add_argument("change", nargs="?", default="HEAD", help="the changed revision (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", default="1..", help="A.., A..B or a,b,c: one seed per pair (default 1..)")
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--label", default=None, help="the summary is BENCH_<label>.json (default: the workload)")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds, args.pairs)
    better = directions()
    path = ROOT / f"BENCH_{args.label or args.workload}.json"

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        revs = {side: {"rev": rev, "commit": extract(rev, trees[side])}
                for side, rev in (("base", args.base), ("change", args.change))}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        print(f"src/ lines: {lines['base']} -> {lines['change']}", flush=True)
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{len(seeds)} seed {seed}: " + ", ".join(
                f"{name} {pair['base']['metrics'][name]:.4g} -> {pair['change']['metrics'][name]:.4g}"
                for name in ("ops_per_s", "op_p50_ms", "op_tail_ms")), flush=True)

    summary = summarise(pairs, better)
    doc = {"workload": args.workload, "seconds": args.seconds, "seeds": seeds, **revs, "src_lines": lines,
           "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
           "env": env_block(), "pairs": pairs, "summary": summary}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, s in summary.items():
        rel = "" if s["median_change"] is None else f" ({100 * s['median_change']:+.1f}%)"
        print(f"{name}: median {s['base']['median']:.4g} -> {s['change']['median']:.4g}{rel}, "
              f"base IQR {s['base']['q1']:.4g}..{s['base']['q3']:.4g}, change won {s['wins']}/{s['pairs']}")
    print(f"wrote {path.name}")
    return 0 if all(p[side]["correct"] for p in pairs for side in ("base", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())
