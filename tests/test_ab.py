"""The summary of tools/ab.py, the base/change pair protocol, on canned pair data."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "tools", "ab.py"))
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def pairs_of(base, change):
    """Canned pairs: per metric, the base's and the change's value in each pair."""
    return [{"base": {"metrics": {k: v[i] for k, v in base.items()}},
             "change": {"metrics": {k: v[i] for k, v in change.items()}}}
            for i in range(len(next(iter(base.values()))))]


def test_directions_come_from_the_benchmark_declaration():
    better = ab.directions()
    assert better["ops_per_s"] == "higher" and better["resolved_frac"] == "higher"
    assert better["op_p50_ms"] == "lower" and better["peak_rss_mb"] == "lower"


def test_summary_medians_quartiles_and_wins():
    pairs = pairs_of({"ops_per_s": [100, 104, 96, 110, 102], "op_p50_ms": [1.0, 1.2, 0.8, 1.1, 0.9]},
                     {"ops_per_s": [112, 104, 113, 109, 120], "op_p50_ms": [0.9, 1.3, 0.7, 1.1, 0.5]})
    s = ab.summarise(pairs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    ops, p50 = s["ops_per_s"], s["op_p50_ms"]
    # inclusive quartiles of 96, 100, 102, 104, 110 and of 104, 109, 112, 113, 120
    assert ops["base"] == {"median": 102, "q1": 100, "q3": 104}
    assert ops["change"] == {"median": 112, "q1": 109, "q3": 113}
    # higher is better: the tie (104, 104) wins neither side, nor does 110 -> 109
    assert ops["wins"] == 3 and ops["pairs"] == 5
    assert ops["median_change"] == pytest.approx(10 / 102)
    assert ops["beyond_base_iqr"]  # 112 - 102 > 104 - 100
    # lower is better: 1.0 -> 0.9, 0.8 -> 0.7 and 0.9 -> 0.5 win, 1.2 -> 1.3 loses
    assert p50["better"] == "lower" and p50["wins"] == 3
    assert p50["base"]["median"] == 1.0 and p50["change"]["median"] == 0.9
    assert not p50["beyond_base_iqr"]  # 1.0 - 0.9 is less than the base's 1.1 - 0.9


def test_summary_of_a_loss_and_of_one_pair():
    pairs = pairs_of({"op_tail_ms": [2.0]}, {"op_tail_ms": [3.0]})
    s = ab.summarise(pairs, {"op_tail_ms": "lower"})["op_tail_ms"]
    assert s["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert s["wins"] == 0 and s["median_change"] == pytest.approx(0.5)
    assert not s["beyond_base_iqr"]  # worse, however narrow the base's spread


@pytest.mark.parametrize("spec,pairs,seeds", [
    ("4101..", 3, [4101, 4102, 4103]), ("5..9", 2, [5, 6]), ("7,3,11", 3, [7, 3, 11]),
])
def test_seeds(spec, pairs, seeds):
    assert ab.parse_seeds(spec, pairs) == seeds


def test_too_few_seeds():
    with pytest.raises(ValueError, match="gives 2 seeds for 3 pairs"):
        ab.parse_seeds("1..2", 3)


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("# one\nz = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "c.py").write_text("not = 'counted'\n")
    assert ab.src_lines(tmp_path) == 5
