"""Smoke test of the benchmark workloads in bench/workloads.py.

Runs each workload's set-up and ops once at seed 1, so a change to the
package that breaks the benchmark harness (or one of its known answers)
fails here instead of only in a benchmark run.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

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
