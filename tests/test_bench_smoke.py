"""Smoke test of the benchmark workloads in bench/workloads.py, of the
chord-pool generator bench/make_chords.py, and of the demos.

Runs each workload's set-up and ops once at seed 1, so a change to the
package that breaks the benchmark harness (or one of its known answers)
fails here instead of only in a benchmark run.  The chord generator's
closed form is checked on stored chords, and the demos are run, so a
package name either of them uses cannot disappear unnoticed.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import make_chords  # noqa: E402
import workloads  # noqa: E402


def _check_items(w, items):
    assert items
    for item in items:
        status, why = w.check(item, w.run(item))
        assert status == "ok", why


# lift-corpus runs its whole pass of 200 curves (family, high-valuation,
# chord and zero-coordinate) in 0.3-0.5 s; this file takes near 3.8 s on
# a shared 2-core x86-64 VM
@pytest.mark.parametrize("name,limit", [
    ("lift-corpus", None),
    ("surface-oracle", None),
    ("cli-mix", 3),
])
def test_workload_pass(name, limit, tmp_path):
    w = workloads.WORKLOADS[name]()
    w.setup(1, str(tmp_path))
    _check_items(w, w.next_pass()[:limit])


def test_ladder_each_dimension(tmp_path):
    # the first product of every rung, P6xP4xI included, meets its known
    # vertex, face and |det| = 2 counts
    w = workloads.WORKLOADS["polytope-ladder"]()
    w.setup(1, str(tmp_path))
    first = {}
    for item in w.next_pass():
        first.setdefault(item.name, item)
    assert len(first) == 13 and sorted({item.n for item in first.values()}) == [2, 3, 4, 5]
    assert "P6xP4xI" in first
    _check_items(w, list(first.values()))


def test_make_chords_closed_form_agrees_with_check_lift():
    # the first few stored chords of every polytope, through the generator's
    # own closed form (chart polynomials from VertexChart.inverse)
    from toriclift import catalog
    from toriclift.chart import CircleEmbedding
    from toriclift.criterion import check_lift

    polytopes = corpus.build_polytopes(catalog)
    chords = corpus.load_chords()
    picked = [c for name in polytopes for c in [c for c in chords if c.polytope == name][:4]]
    assert len(picked) == 4 * len(polytopes)
    interval = (Fraction(0), Fraction(1))
    holds = set()
    for c in picked:
        P, circle = polytopes[c.polytope], CircleEmbedding(c.circle)
        verdict = check_lift(P, c.coords, interval, circle)
        assert verdict.verdict == c.expected, c.label()
        for ep in (0, 1):
            ok = make_chords.endpoint_holds(P, c.coords, interval, ep, circle)
            assert ok == (verdict.report(f"endpoint {ep + 1}").status != "fails"), (ep, c.label())
            holds.add(ok)
    assert holds == {True, False}


DEMO_OUTPUTS = {  # the files each demo writes into its working directory: none
    "delzant_validation.py": set(),
    "lift_criterion.py": set(),
    "surface_sampler.py": set(),
}


@pytest.mark.parametrize("demo", list(DEMO_OUTPUTS))
def test_demo_runs(demo, tmp_path):
    # the demo's temporary files go under tmp_path too, beside its working directory
    work, tmp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=work,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and set(os.listdir(work)) == DEMO_OUTPUTS[demo]
    for line in proc.stdout.splitlines():  # the paths a demo prints for what it wrote
        if line.strip().startswith("wrote "):
            assert line.split("wrote ", 1)[1].startswith(str(tmp))
    assert os.listdir(tmp) == []  # and removed on exit
