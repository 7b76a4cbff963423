"""toriclift benchmark: seeded workloads, end-to-end metrics, traced per-module metrics.

Run from the repository root.  One workload:

    python3 bench/run.py --workload lift-corpus --seed 1 --seconds 12 --trace 0

prints human-readable lines, an ``env`` line, and as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-module metrics with
``--trace 1``.  Every workload, untraced and then traced, each in a fresh
interpreter, with a summary written to bench/results/BENCH_<src digest>.json:

    python3 bench/run.py

Load is a closed loop with one caller: one op at a time, in one process.
The timed loop runs a fixed number of whole passes over the workload's
inputs: ``--seconds`` divided by the workload's nominal pass time, so the
count does not depend on the program's speed.  Op and set-up times are
divided by the host's slowness at that moment, measured with a fixed
reference run beside them (see ``slowness``).  The traced
run performs exactly one traced and one untraced pass.  See
bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import metadata

from tracer import DERIVED, Tracer, metric_specs
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

SETUP_CHILDREN = 11  # setup_s is the median of this many fresh set-ups
SETUP_REFS = 5  # reference samples between two fresh set-ups
REF_LOOP = 7000  # iterations of the small-integer reference loop
REF_TERMS = 200  # terms of the harmonic series in the big-rational reference sum
# Nominal time of each reference, about its time on a calm host: a time t is
# reported as t / slowness, where slowness = reference time / nominal.
REF_NOMINAL_S = {"loop": 0.45e-3, "rationals": 0.4e-3, "interpreter": 10e-3}
REF_WINDOW = 8  # an op's local slowness: median over the ops this far either side
STARTUP_SAMPLES = 5
MIN_PASSES = 2
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

END_TO_END = (  # name, unit
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("resolved_frac", "ratio"),
)


class Loop:
    """Outcome of a timed loop: op times, check outcomes, the passes run."""

    def __init__(self):
        self.times: list[float] = []  # every op of every pass
        self.slowness: list[float] = []  # host slowness taken just before each op (timed loop only)
        self.status: Counter = Counter()
        self.problems: Counter = Counter()  # (status, why) -> count
        self.passes = 0
        self.ops_per_pass = 0
        self.peak_rss_kb = 0

    def start_pass(self, items: list) -> None:
        self.passes += 1
        self.ops_per_pass = len(items)

    @property
    def ops(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.status["wrong"] + self.status["raised"]


def run_op(out: Loop, wl, item, op, tracer=None) -> None:
    """Run one op into ``out``, timing it and checking its answer."""
    clock = time.perf_counter
    times = out.times
    if tracer is not None:
        tracer.op = out.ops
    t0 = clock()
    try:
        result = op(item)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        times.append(clock() - t0)
        out.status["raised"] += 1
        out.problems["raised", f"{type(exc).__name__}: {exc}"] += 1
        return
    times.append(clock() - t0)
    status, why = wl.check(item, result)
    out.status[status] += 1
    if why:
        out.problems[status, why] += 1


def reference_s(kind: str) -> float:
    """Wall time of one run of a fixed reference, over its nominal time."""
    t0 = time.perf_counter()
    if kind == "interpreter":
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True, timeout=60)
    elif kind == "loop":
        x = 1
        for i in range(REF_LOOP):
            x = (x * 31 + i) % 1000003
    else:
        total = Fraction(0)
        for i in range(1, REF_TERMS):
            total += Fraction(1, i)
    return (time.perf_counter() - t0) / REF_NOMINAL_S[kind]


def slowness(kind: str) -> float:
    """How slow the host is now, about 1 on a calm host.

    The host's speed drifts by up to 2x over tens of seconds (other
    tenants of a shared machine), and the program's times drift with it.  A
    fixed reference that does not touch toriclift is timed beside every op
    and set-up, and the reported times are divided by its slowness.  Kind
    ``python`` is the geometric mean of a small-integer loop and a
    big-rational sum: of the in-process references tried (each of those
    alone, random reads from a large list, dict and sort work) it tracked
    the library ops and set-ups best.  Kind ``interpreter``, for the CLI
    subprocesses, is the geometric mean of that and ``python -I -S -c pass``.
    """
    python = math.sqrt(reference_s("loop") * reference_s("rationals"))
    if kind == "interpreter":
        return math.sqrt(python * reference_s("interpreter"))
    return python


def in_reference_time(times: list[float], slow: list[float]) -> list[float]:
    """Op times divided by the median slowness over the ops around each."""
    return [t / statistics.median(slow[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
            for i, t in enumerate(times)]


def pass_count(wl, seconds: float) -> int:
    """Passes that fill about ``seconds`` at the workload's nominal pass time.

    The count depends on ``--seconds`` only, not on how fast the program
    runs, so two commits time every input the same number of times.
    """
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def timed_loop(wl, passes: int, rss_usage: int, seed: int) -> Loop:
    """Run ``passes`` whole passes, then read ``peak_rss_kb`` of ``rss_usage`` (a ``resource.RUSAGE_*``).

    Each pass runs its items in a fresh seeded order.  Similar items (a
    ladder rung, say) would otherwise run back to back in every pass, and
    all their times would come from the same few moments of the host's
    load, however many items there are.  The workload's reference runs
    before every op.
    """
    rng = random.Random(seed)
    out = Loop()
    for _ in range(passes):
        items = list(wl.next_pass())
        rng.shuffle(items)
        out.start_pass(items)
        for item in items:
            out.slowness.append(slowness(wl.reference))
            run_op(out, wl, item, wl.run)
    out.peak_rss_kb = resource.getrusage(rss_usage).ru_maxrss
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(times)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[-TAIL_BEYOND - 1], 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)


def fresh_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_CHILDREN fresh interpreters: (wall, reference time).

    Each set-up is divided by the median slowness just before and just
    after it.
    """
    wall, scaled = [], []
    before = [slowness("python") for _ in range(SETUP_REFS)]
    for _ in range(SETUP_CHILDREN):
        t = fresh_setup_s(workload, seed)
        after = [slowness("python") for _ in range(SETUP_REFS)]
        wall.append(t)
        scaled.append(t / statistics.median(before + after))
        before = after
    return wall, scaled


def fresh_setup_s(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--setup-only"], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cli_startup_ms() -> tuple[float, float]:
    """(python -c pass, import toriclift.cli minus that floor) in ms, median of a few runs."""
    env = dict(os.environ, PYTHONPATH="src")

    def median_s(code: str) -> float:
        runs = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    floor = median_s("pass")
    return 1000 * floor, 1000 * (median_s("import toriclift.cli") - floor)


def src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "toriclift")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, loop: Loop, percentile: float) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy_version, "platform": platform.platform(),
        "nproc": os.cpu_count(), "git_sha": git_sha(), "src_sha256": src_digest(),
        "load": "closed loop, one caller", "ops": loop.ops, "passes": loop.passes,
        "ops_per_pass": loop.ops_per_pass, "op_tail_percentile": round(percentile, 2),
        "op_tail_samples_beyond": min(TAIL_BEYOND, loop.ops - 1),
    }


def report_problems(loop: Loop) -> None:
    for (status, why), count in sorted(loop.problems.items()):
        print(f"{status} x{count}: {why}")


def measure(args, wl) -> dict:
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli-mix" else resource.RUSAGE_SELF
    loop = timed_loop(wl, pass_count(wl, args.seconds), usage, args.seed)
    setups_wall, setups = fresh_setups(wl.name, args.seed)
    times = in_reference_time(loop.times, loop.slowness)
    tail_s, percentile = tail(times)
    ops = loop.ops
    values = {
        "ops_per_s": ops / sum(times),  # time in ops; the answer checks are left out
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": loop.peak_rss_kb / 1024,  # ru_maxrss is in KiB on Linux
        "resolved_frac": loop.status["ok"] / ops,
    }
    report_problems(loop)
    for name, unit in END_TO_END:
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{percentile:.2f} of {ops} ops, {TAIL_BEYOND} beyond)"
        print(f"{name} {values[name]:.6g} {unit}{extra}")
    print(f"failed_frac {loop.failed / ops:.6g} ratio  ({loop.failed} of {ops} ops, {loop.passes} passes)")
    print(f"unresolved_frac {loop.status['unresolved'] / ops:.6g} ratio  "
          "(inconclusive verdicts, or the documented sampler defect)")
    wall_tail, _ = tail(loop.times)
    print(f"wall clock, not scaled: ops_per_s {ops / sum(loop.times):.6g} 1/s, "
          f"op_p50_ms {1000 * statistics.median(loop.times):.6g} ms, op_tail_ms {1000 * wall_tail:.6g} ms, "
          f"setup_s {statistics.median(setups_wall):.6g} s; "
          f"median slowness {statistics.median(loop.slowness):.4g}")
    print("env " + json.dumps(environment(args, loop, percentile), sort_keys=True))
    return {
        "correct": loop.failed == 0, "attempted": ops, "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def measure_traced(args, wl) -> dict:
    # One traced pass, so calls and self times are per pass and do not depend
    # on how fast the program runs.  Each op runs traced and untraced back to
    # back, in alternating order, so both see the same load on the host and
    # neither always runs second.  next_pass repeats the inputs (the ladder's
    # as fresh translates).
    tracer = Tracer()
    traced, plain = Loop(), Loop()
    pair = (wl.next_pass(), wl.next_pass())
    traced.start_pass(pair[0])
    plain.start_pass(pair[1])
    for i, (a, b) in enumerate(zip(*pair)):
        for traced_now in ((True, False) if i % 2 == 0 else (False, True)):
            if traced_now:
                tracer.install()
                try:
                    run_op(traced, wl, a, wl.run_traced, tracer)
                finally:
                    tracer.uninstall()
            else:
                run_op(plain, wl, b, wl.run_traced)
    values = tracer.metrics()
    values["trace.overhead_frac"] = sum(traced.times) / sum(plain.times) - 1
    values["cli.interpreter_ms"], values["cli.import_ms"] = cli_startup_ms()
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{wl.name}.jsonl.gz")
    tracer.write(spans_path)
    report_problems(traced)
    report_problems(plain)
    specs = metric_specs()
    busiest = sorted((k for k, _, _ in specs if k.endswith(".self_s")), key=lambda k: -values[k])[:8]
    for k in busiest:
        print(f"{k} {values[k]:.6g} s  ({values[k[:-len('self_s')] + 'calls']} calls)")
    for k, unit, _ in DERIVED:
        print(f"{k} {values[k]:.6g} {unit}")
    if tracer.absent:
        print("absent: " + ", ".join(tracer.absent))
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    _, percentile = tail(traced.times)
    print("env " + json.dumps(environment(args, traced, percentile), sort_keys=True))
    failed = traced.failed + plain.failed
    return {
        "correct": failed == 0, "attempted": traced.ops + plain.ops, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit, _ in specs},
    }


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its reference and every child it starts on one CPU.

    The load is one op at a time, so one CPU is all it uses; but a child
    process would otherwise start on whichever CPU is idle, and the CPUs of
    a shared host are not equally slow at the same moment, so the reference
    timed in this process would gauge the wrong one.  The highest-numbered
    CPU is taken because device interrupts land on CPU 0 by default: pinned
    there, brief stalls the reference cannot see set surface-oracle's
    op_tail_ms, and its spread over ten runs was 0.27, against 0.08 on CPU 1.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    start = time.perf_counter()
    wl = WORKLOADS[args.workload]()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl.setup(args.seed, workdir)
        if args.setup_only:
            result = {"setup_s": time.perf_counter() - start}
        elif args.trace:
            result = measure_traced(args, wl)
        else:
            result = measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
                                  timeout=3 * args.seconds + CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
            key = "per_module" if trace else "end_to_end"
            entry[key] = {k: m["value"] for k, m in result["metrics"].items()}
            entry[f"{key}_run"] = {"correct": result["correct"], "attempted": result["attempted"],
                                   "failed": result["failed"], "env": env,
                                   "notes": [l for l in lines[:-1] if not l.startswith("env ")]}
            ok = ok and result["correct"]
            if not trace:
                print(f"== {name}: {'correct' if result['correct'] else 'WRONG ANSWERS'}, "
                      f"{result['attempted']} ops, {result['failed']} failed")
                for k, unit in END_TO_END:
                    print(f"  {k} {result['metrics'][k]['value']:.6g} {unit}")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"BENCH_{src_digest()[:12]}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "toriclift", "__init__.py")) or not os.path.isdir(
            os.path.join(ROOT, "data")):
        print(f"error: {ROOT} holds no toriclift source tree (src/toriclift, data/); "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
