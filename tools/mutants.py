"""Mutation testing for a range of lines: which small faults do the given tests miss?

Each mutant changes one site in the file: it swaps `<`/`<=`, `>`/`>=`,
`==`/`!=`, `in`/`not in` or `and`/`or`, or adds 1 to an int constant.
Sites in the line range are shuffled with a seed and sampled.  Each
mutant runs `pytest -x -q` on the given test files in a scratch copy of
the tree, so the checkout is never edited.  Every run, the unmutated one
included, passes `--hypothesis-seed` with the value of `--seed`, so that
property tests draw the same examples each time and a run repeated with
the same arguments reports the same survivors.  A mutant survives when the
tests still pass.  Survivors listed in `equivalent_mutants.txt` beside
this script are known to be equivalent (no input tells them from the
original); any other survivor is a fault the tests would miss.  Each
known key for the file that no longer names one of its sites (its line
was edited or removed) is printed as stale, to be pruned from the list.

    python3 tools/mutants.py src/toriclift/exactmath.py 300-420 tests/test_exactmath.py --sample 40

The exit status is 1 when a survivor is not a known equivalent.  A
mutant that makes the tests run longer than three times the unmutated
run, plus 10 s, counts as killed.  Not part of the tier-1 suite: each
mutant costs one run of the given tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOWN = Path(__file__).resolve().parent / "equivalent_mutants.txt"
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or"}


def sites(tree: ast.AST, lines: range) -> list[tuple[ast.AST, int]]:
    """(node, index) for each mutable site in the line range: an operator of a comparison
    (index: its position in the chain), a boolean operator, or an int constant (index -1)."""
    out = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) not in lines:
            continue
        if isinstance(node, ast.Compare):
            out += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BoolOp):
            out.append((node, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, -1))
    return sorted(out, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


def describe(node: ast.AST, index: int) -> str:
    """The mutant at a site, as `old` -> `new`."""
    if isinstance(node, ast.Constant):
        return f"{node.value} -> {node.value + 1}"
    op = node.ops[index] if isinstance(node, ast.Compare) else node.op
    return f"`{SYMBOLS[type(op)]}` -> `{SYMBOLS[SWAPS[type(op)]]}`"


def mutate(node: ast.AST, index: int):
    """Apply the mutant at a site; return the function that undoes it."""
    if isinstance(node, ast.Constant):
        old = node.value
        node.value = old + 1
        return lambda: setattr(node, "value", old)
    if isinstance(node, ast.Compare):
        old = node.ops[index]
        node.ops[index] = SWAPS[type(old)]()
        return lambda: node.ops.__setitem__(index, old)
    old = node.op
    node.op = SWAPS[type(old)]()
    return lambda: setattr(node, "op", old)


def keys(rel: Path, src_lines: list[str], todo: list[tuple[ast.AST, int]]) -> list[str]:
    """A key for each site that does not name a line number, so that the known list
    outlives edits elsewhere: the file, the source line and the mutant, numbered when
    one line holds the same mutant more than once."""
    out, seen = [], {}
    for node, index in todo:
        key = f"{rel.name}: {src_lines[node.lineno - 1].strip()} | {describe(node, index)}"
        seen[key] = seen.get(key, 0) + 1
        out.append(key if seen[key] == 1 else f"{key} #{seen[key]}")
    return out


def known_equivalent() -> set[str]:
    """The keys in the known list: one a line, `#` lines are the reasons."""
    return {line.strip() for line in KNOWN.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")}


def run_tests(tree_dir: Path, tests: list[str], seed: int, timeout: float) -> bool:
    """True when the tests pass in the scratch tree, hypothesis drawing from the seed."""
    env = dict(os.environ, PYTHONPATH=str(tree_dir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"--hypothesis-seed={seed}", *tests]
    try:
        return subprocess.run(cmd, cwd=tree_dir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("file", help="the source file to mutate, relative to the repository root")
    ap.add_argument("lines", help="the line range, FIRST-LAST, both included")
    ap.add_argument("tests", nargs="+", help="test files or node ids that pytest runs on each mutant")
    ap.add_argument("--sample", type=int, default=None, help="run at most this many mutants")
    ap.add_argument("--seed", type=int, default=0,
                    help="the seed of the shuffle of the sites and of hypothesis")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the scratch copy is removed

    first, last = map(int, args.lines.split("-"))
    rel = Path(args.file)
    source = (ROOT / rel).read_text(encoding="utf-8")
    tree = ast.parse(source)
    src_lines = source.splitlines()
    todo = sites(tree, range(first, last + 1))
    todo = list(zip(todo, keys(rel, src_lines, todo)))
    random.Random(args.seed).shuffle(todo)
    todo = todo[:args.sample]
    known = known_equivalent()
    every = set(keys(rel, src_lines, sites(tree, range(1, len(src_lines) + 1))))
    for key in sorted(k for k in known if k.startswith(f"{rel.name}: ") and k not in every):
        print(f"stale known mutant, no such site in {rel}: {key}", flush=True)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp) / "tree"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".benchmarks", "results"))
        start = time.perf_counter()
        if not run_tests(work, args.tests, args.seed, timeout=600):
            print("the tests fail on the unmutated tree", file=sys.stderr)
            return 2
        timeout = 3 * (time.perf_counter() - start) + 10
        survivors = []
        for (node, index), key in todo:
            undo = mutate(node, index)
            (work / rel).write_text(ast.unparse(tree), encoding="utf-8")
            undo()
            killed = not run_tests(work, args.tests, args.seed, timeout)
            print(f"{'killed' if killed else 'SURVIVED'}  line {node.lineno}: {key}", flush=True)
            if not killed:
                survivors.append(key)

    unknown = [k for k in survivors if k not in known]
    print(f"{len(todo)} mutants: {len(todo) - len(survivors)} killed, {len(survivors)} survived, "
          f"{len(survivors) - len(unknown)} of them known equivalent")
    for key in unknown:
        print(f"not known equivalent: {key}")
    return 1 if unknown else 0


if __name__ == "__main__":
    sys.exit(main())
