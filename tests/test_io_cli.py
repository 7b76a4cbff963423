import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from conftest import CATALOG, polytope_to_dict
from toriclift import io
from toriclift.cli import main
from toriclift.polytope import PolytopeError

F = Fraction


class TestRationals:
    @pytest.mark.parametrize("text,value", [
        ("3", F(3)),
        ("-7", F(-7)),
        ("1/2", F(1, 2)),
        ("-9/4", F(-9, 4)),
        (5, F(5)),
    ])
    def test_parse(self, text, value):
        assert io.parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "1/0", "1 / 2", "", "a", 1.5, None, True, False])
    def test_rejects_non_rational(self, bad):
        with pytest.raises(io.FormatError):
            io.parse_rational(bad)

    def test_format_round_trip(self):
        for x in (F(3), F(-1, 2), F(22, 7), F(0)):
            assert io.parse_rational(str(x)) == x


class TestPolytopeFiles:
    def test_round_trip(self, cp2):
        assert repr(io.polytope_from_dict(polytope_to_dict(cp2))) == repr(cp2)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_data_file_is_the_catalog_polytope(self, name):
        path = os.path.join(os.path.dirname(__file__), "..", "data", f"{name}.json")
        with open(path) as fh:
            assert json.load(fh) == polytope_to_dict(CATALOG[name]())

    def test_decimal_offset_rejected(self):
        d = {"n": 1, "facets": [{"normal": [1], "offset": "0.5"},
                                {"normal": [-1], "offset": "0"}]}
        with pytest.raises(io.FormatError):
            io.polytope_from_dict(d)

    def test_float_normal_rejected(self):
        # the entries of a normal are HPolytope's to check
        d = {"n": 1, "facets": [{"normal": [1.0], "offset": "1"},
                                {"normal": [-1], "offset": "0"}]}
        with pytest.raises(PolytopeError, match=re.escape("facet normal (1.0,): expected integers")):
            io.polytope_from_dict(d)

    def test_missing_field_rejected(self):
        with pytest.raises(io.FormatError):
            io.polytope_from_dict({"facets": []})

    # n is HPolytope's to check, with the text the reader gave it before
    @pytest.mark.parametrize("fields,error,message", [
        ({"n": 2.5}, PolytopeError, "n: expected an integer, got 2.5"),
        ({"n": True}, PolytopeError, "n: expected an integer, got True"),
        ({"n": "1"}, PolytopeError, "n: expected an integer, got '1'"),
        ({"facets": 5}, io.FormatError, "facets: expected a list of facet objects"),
        ({"n": 0, "facets": []}, PolytopeError, "n: the dimension must be at least 1, got 0"),
        ({"n": -2}, PolytopeError, "n: the dimension must be at least 1, got -2"),
    ], ids=["float-n", "bool-n", "string-n", "facets-not-list", "zero-n", "negative-n"])
    def test_malformed_header_rejected(self, fields, error, message):
        d = dict({"n": 1, "facets": [{"normal": [1], "offset": "1"}, {"normal": [-1], "offset": "0"}]}, **fields)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            io.polytope_from_dict(d)

    @pytest.mark.parametrize("facet,error,message", [
        ({"normal": [True], "offset": "1"}, PolytopeError, "facet normal (True,): expected integers"),
        ({"normal": [1], "offset": True}, io.FormatError, "facets[0].offset: expected a rational literal"),
    ], ids=["normal", "offset"])
    def test_boolean_rejected(self, facet, error, message):
        d = {"n": 1, "facets": [facet, {"normal": [-1], "offset": "0"}]}
        with pytest.raises(error, match=re.escape(message)):
            io.polytope_from_dict(d)

    @pytest.mark.parametrize("normal", [1, "1", {"x": 1}, None], ids=["int", "str", "object", "null"])
    def test_normal_not_a_list_rejected(self, normal):
        # a tuple is built of the normal, so the reader checks that it is a list
        d = {"n": 1, "facets": [{"normal": normal, "offset": "1"}, {"normal": [-1], "offset": "0"}]}
        with pytest.raises(io.FormatError, match=r"^facets\[0\]\.normal: expected a list of integers$"):
            io.polytope_from_dict(d)


# curve-file fields and entries of the wrong JSON type, each with the one line that
# names it; a string of digits is not read as a list of one-digit coefficients
MALFORMED_ENTRIES = {
    "coords-number": ({"coords": [5, ["0"]]}, "coords[0]: expected a list of rationals"),
    "coords-string": ({"coords": ["12", ["0"]]}, "coords[0]: expected a list of rationals"),
    "endpoint-number": ({"endpoints": [5]}, "endpoints[0]: expected an endpoint object or null"),
    "endpoint-string": ({"endpoints": [None, "chart_vertex"]},
                        "endpoints[1]: expected an endpoint object or null"),
    "endpoints-false": ({"endpoints": False}, "endpoints: expected up to two endpoint objects"),
    "endpoints-three": ({"endpoints": [None, None, None]}, "endpoints: expected up to two endpoint objects"),
}


class TestCurveFiles:
    GOOD = {
        "coords": [["0", "1"], ["0", "1"]],
        "domain": ["0", "3/2"],
        "circle": [1, 1],
    }

    def test_parse(self):
        spec = io.curve_from_dict(dict(self.GOOD))
        assert spec.gamma == [[F(0), F(1)], [F(0), F(1)]]
        assert spec.interval == (F(0), F(3, 2))
        assert spec.circle.K == (1, 1)
        assert spec.chart_vertices == (None, None)

    def test_chart_vertices(self):
        d = dict(self.GOOD)
        d["endpoints"] = [{}, {"chart_vertex": ["3", "0"]}]
        spec = io.curve_from_dict(d)
        assert spec.chart_vertices == (None, (F(3), F(0)))

    def test_zero_circle_rejected(self):
        # the entries of the circle are CircleEmbedding's to check
        for circle in ([0, 0], []):
            with pytest.raises(ValueError, match=r"^circle direction must be nonzero \(effective action\)$"):
                io.curve_from_dict(dict(self.GOOD, circle=circle))

    @pytest.mark.parametrize("circle", [1, "1,1", {"K": [1, 1]}, None], ids=["int", "str", "object", "null"])
    def test_circle_not_a_list_rejected(self, circle):
        with pytest.raises(io.FormatError, match=r"^circle: expected a list of integers$"):
            io.curve_from_dict(dict(self.GOOD, circle=circle))

    def test_empty_domain_rejected(self):
        d = dict(self.GOOD)
        d["domain"] = ["1", "1"]
        with pytest.raises(io.FormatError):
            io.curve_from_dict(d)

    def test_decimal_coefficient_rejected(self):
        d = dict(self.GOOD)
        d["coords"] = [["0", "0.5"], ["0", "1"]]
        with pytest.raises(io.FormatError):
            io.curve_from_dict(d)

    def test_null_endpoint_entry(self):
        spec = io.curve_from_dict(dict(self.GOOD, endpoints=[None, {"chart_vertex": ["3", "0"]}]))
        assert spec.chart_vertices == (None, (F(3), F(0)))

    @pytest.mark.parametrize("fields,message", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES)
    def test_malformed_entry_rejected(self, fields, message):
        with pytest.raises(io.FormatError, match=re.escape(message)):
            io.curve_from_dict(dict(self.GOOD, **fields))

    @pytest.mark.parametrize("fields,error,message", [
        ({"coords": [["0", True], ["0", "1"]]}, io.FormatError, "coords[0][1]: expected a rational literal"),
        ({"circle": [True, 1]}, ValueError, "circle direction (True, 1): expected integers, got True"),
    ], ids=["coefficient", "circle"])
    def test_boolean_rejected(self, fields, error, message):
        with pytest.raises(error, match=re.escape(message)):
            io.curve_from_dict(dict(self.GOOD, **fields))


@pytest.mark.parametrize("loader,obj,message", [
    ("load_polytope", {"n": 1, "facets": [{"normal": [1]}, {"normal": [-1], "offset": "0"}]},
     "facets[0]: need 'normal' and 'offset'"),
    ("load_curve", [], "curve: expected an object"),
    ("load_curve", {"coords": [["0"]], "domain": ["0", "1"]}, "curve: missing field 'circle'"),
    ("load_curve", dict(TestCurveFiles.GOOD, coords=[]), "coords: expected a nonempty list of coefficient lists"),
    ("load_curve", dict(TestCurveFiles.GOOD, domain=["0"]), "domain: expected [start, end]"),
    ("load_facet_vectors", [[1, 0], [0, 1]], "facet vectors: expected {'vectors': [[...], ...]}"),
], ids=["facet-fields", "curve-list", "curve-field", "coords-empty", "domain-length", "vectors-list"])
def test_malformed_file_rejected(tmp_path, loader, obj, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(io.FormatError, match=f"^{re.escape(message)}$"):
        getattr(io, loader)(str(path))


def test_facet_vector_boolean_rejected(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"vectors": [[1, 0], [0, True]]}))
    with pytest.raises(io.FormatError, match=re.escape("vectors[1]: expected a list of integers")):
        io.load_facet_vectors(str(path))


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


DATA = os.path.join(os.path.dirname(__file__), "..", "data")
OCTAHEDRON = {"n": 3, "facets": [{"normal": list(a), "offset": "1"} for a in itertools.product((1, -1), repeat=3)]}


@pytest.fixture
def cp2_file(tmp_path, cp2):
    return write_json(tmp_path, "cp2.json", polytope_to_dict(cp2))


@pytest.fixture
def bad_triangle_file(tmp_path, bad_triangle):
    return write_json(tmp_path, "tri.json", polytope_to_dict(bad_triangle))


@pytest.fixture
def diag_curve_file(tmp_path):
    return write_json(tmp_path, "diag.json", dict(TestCurveFiles.GOOD))


class TestCli:
    def test_validate_pass(self, cp2_file, capsys):
        assert main(["validate", cp2_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_fail(self, bad_triangle_file, capsys):
        assert main(["validate", bad_triangle_file]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "|det| = 2" in out

    def test_validate_json_deterministic(self, cp2_file, capsys):
        main(["validate", cp2_file, "--json"])
        first = capsys.readouterr().out
        main(["validate", cp2_file, "--json"])
        second = capsys.readouterr().out
        assert first == second
        parsed = json.loads(first)
        assert parsed["ok"] is True

    def test_quasitoric(self, cp2_file, tmp_path, capsys):
        vecs = write_json(tmp_path, "v.json", {"vectors": [[1, 0], [0, 1], [-1, 1]]})
        assert main(["quasitoric", cp2_file, vecs]) == 0
        bad = write_json(tmp_path, "w.json", {"vectors": [[1, 0], [0, 1], [1, 1]]})
        assert main(["quasitoric", cp2_file, bad]) == 1
        assert main(["quasitoric", cp2_file, bad, "--relax-sign"]) == 0

    @pytest.mark.parametrize("vectors,message", [
        ([[1, 0, 5], [0, 1, 7], [-1, 1, 9]],
         "facet vector 0 has length 3 and facet vector 1 has length 3 and facet vector 2 has length 3"),
        ([[1], [0], [-1]],
         "facet vector 0 has length 1 and facet vector 1 has length 1 and facet vector 2 has length 1"),
    ], ids=["too-long", "too-short"])
    def test_quasitoric_vector_length_usage_error(self, cp2_file, tmp_path, capsys, vectors, message):
        vecs = write_json(tmp_path, "v.json", {"vectors": vectors})
        assert main(["quasitoric", cp2_file, vecs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the polytope has dimension 2, but {message}\n"

    def test_faces(self, cp2_file, capsys):
        assert main(["faces", cp2_file, "--json"]) == 0
        faces = json.loads(capsys.readouterr().out)["faces"]
        assert len(faces) == 7

    def test_equiv(self, cp2_file, capsys):
        assert main(["equiv", cp2_file, "--r", "1,0",
                     "--t1", "1/4,7/10", "--t2", "1/4,1/10"]) == 0
        assert main(["equiv", cp2_file, "--r", "1,0",
                     "--t1", "1/4,7/10", "--t2", "9/10,7/10"]) == 1

    # the message names the option as typed, not the parameter of points_equivalent
    @pytest.mark.parametrize("r,t1,t2,message", [
        ("1,0", "1/4,7/10,5", "1/4,1/10", "--t1 has length 3"),
        ("1,0,0", "1/4,7/10", "1/4,1/10", "--r has length 3"),
        ("1", "1/4,7/10", "1/4,1/10", "--r has length 1"),
        ("1,0", "1/4,7/10", "1/4", "--t2 has length 1"),
    ], ids=["t1-3", "r-3", "r-1", "t2-1"])
    def test_equiv_wrong_dimension_usage_error(self, cp2_file, capsys, r, t1, t2, message):
        assert main(["equiv", cp2_file, "--r", r, "--t1", t1, "--t2", t2]) == 3
        assert capsys.readouterr().err == f"error: {message}, the polytope has dimension 2\n"

    def test_lift_check_accept(self, cp2_file, diag_curve_file, capsys):
        assert main(["lift-check", cp2_file, diag_curve_file]) == 0
        assert "verdict: accept" in capsys.readouterr().out

    def test_lift_check_reject(self, cp2_file, tmp_path, capsys):
        d = dict(TestCurveFiles.GOOD)
        d["circle"] = [1, 0]
        curve = write_json(tmp_path, "cone.json", d)
        assert main(["lift-check", cp2_file, curve]) == 1

    def test_lift_check_inconclusive(self, tmp_path):
        square = write_json(tmp_path, "sq.json", {
            "n": 2,
            "facets": [
                {"normal": [-1, 0], "offset": "0"},
                {"normal": [1, 0], "offset": "1"},
                {"normal": [0, -1], "offset": "0"},
                {"normal": [0, 1], "offset": "1"},
            ],
        })
        # y = (s(1-s))^20: valuation 20 at both endpoints, once left
        # inconclusive at a low series order, is decided with exit 0
        y = [F(0)] * 20 + [F((-1) ** i * comb(20, i)) for i in range(21)]
        curve = write_json(tmp_path, "flat.json", {
            "coords": [["0", "1"], list(map(str, y))],
            "domain": ["0", "1"],
            "circle": [1, 0],
        })
        assert main(["lift-check", square, curve]) == 0
        assert main(["lift-check", square, curve, "--max-order", "41"]) == 3

    def test_lift_check_json_byte_identical(self, cp2_file, diag_curve_file, capsys):
        main(["lift-check", cp2_file, diag_curve_file, "--json"])
        a = capsys.readouterr().out
        main(["lift-check", cp2_file, diag_curve_file, "--json"])
        b = capsys.readouterr().out
        assert a == b and a.endswith("\n")

    def test_sample(self, cp2_file, diag_curve_file, tmp_path, capsys):
        out = tmp_path / "mesh.csv"
        assert main(["sample", cp2_file, diag_curve_file,
                     "--nx", "4", "--nt", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("tau,t,")

    def test_sample_obj_by_extension(self, cp2_file, diag_curve_file, tmp_path):
        out = tmp_path / "mesh.obj"
        assert main(["sample", cp2_file, diag_curve_file,
                     "--nx", "3", "--nt", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("v ")

    @pytest.mark.parametrize("nt", ["1", "2"])
    def test_sample_obj_short_t_circle_usage_error(self, cp2_file, diag_curve_file, tmp_path, capsys, nt):
        out = tmp_path / "o.obj"
        assert main(["sample", cp2_file, diag_curve_file, "--nt", nt, "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"error: OBJ export needs nt >= 3, got nt = {nt}\n")
        assert not out.exists()
        # CSV takes any grid
        assert main(["sample", cp2_file, diag_curve_file, "--nx", "3", "--nt", nt,
                     "--out", str(tmp_path / "o.csv")]) == 0

    # (s, s - s^2) on [0, 2]: it crosses facet 2 at s = 1 and ends outside CP^2(3)
    LEAVES = {"coords": [["0", "1"], ["0", "1", "-1"]], "domain": ["0", "2"], "circle": [1, 1]}

    def test_sample_curve_leaving_the_polytope_is_a_reject(self, cp2_file, tmp_path, capsys):
        leaves = write_json(tmp_path, "leaves.json", self.LEAVES)
        assert main(["lift-check", cp2_file, leaves]) == 1
        assert "verdict: reject" in capsys.readouterr().out
        out = tmp_path / "m.csv"
        assert main(["sample", cp2_file, leaves, "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "reject: negative radicand in coordinate 2 at tau = 1.0158730158730158\n")
        assert not out.exists()

    @pytest.mark.parametrize("options,message", [
        (["--nx", "0"], "empty grid: --nx 0, --nt 128"),
        (["--nt", "0", "--format", "csv"], "empty grid: --nx 64, --nt 0"),
        (["--nt", "2", "--format", "obj"], "OBJ export needs nt >= 3, got nt = 2"),
        (["--project", "1,2,5", "--format", "obj"], "--project: expected three integers in 1..4, got '1,2,5'"),
    ], ids=["nx-0", "nt-0", "obj-nt-2", "project-5"])
    def test_sample_bad_option_is_a_usage_error_whatever_the_curve(self, cp2_file, tmp_path, capsys,
                                                                   options, message):
        # checked before the curve is sampled: exit 3 even on a curve that sample rejects
        leaves = write_json(tmp_path, "leaves.json", self.LEAVES)
        out = tmp_path / "m.out"
        assert main(["sample", cp2_file, leaves, "--out", str(out), *options]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_endpoint_errors_exit_codes(self, cp2_file, tmp_path, capsys):
        def curve(name, **fields):
            return write_json(tmp_path, name, dict(TestCurveFiles.GOOD, **fields))

        # a curve the criterion rules out is a reject verdict, exit 1
        outside = curve("outside.json", domain=["0", "2"])
        assert main(["lift-check", cp2_file, outside]) == 1
        assert "endpoint_outside_polytope" in capsys.readouterr().out
        singular = curve("singular.json", coords=[["0", "0", "1"], ["0", "0", "1"]], domain=["0", "1"])
        assert main(["lift-check", cp2_file, singular]) == 1
        assert "singular_parametrisation" in capsys.readouterr().out
        out = str(tmp_path / "mesh.csv")
        assert main(["sample", cp2_file, singular, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("reject: singular_parametrisation")
        # malformed input stays a usage error, exit 3
        wrong_chart = curve("chart.json", endpoints=[{"chart_vertex": ["3", "0"]}])
        assert main(["lift-check", cp2_file, wrong_chart]) == 3
        assert "error: chart vertex (3, 0)" in capsys.readouterr().err
        empty = curve("empty.json", domain=["1", "1"])
        assert main(["lift-check", cp2_file, empty]) == 3

    @pytest.mark.parametrize("command,fields,message", [
        ("lift-check", {"coords": [["0", "1"], ["0", "1"], ["0", "1"]]}, "the curve has length 3"),
        ("lift-check", {"coords": [["0", "1"]]}, "the curve has length 1"),
        ("lift-check", {"circle": [1, 1, 0]}, "the circle has length 3"),
        ("sample", {"circle": [1, 1, 0]}, "the circle has length 3"),
        ("sample", {"endpoints": [{"chart_vertex": ["0", "0", "0"]}]},
         "chart vertex (0, 0, 0) has length 3"),
    ], ids=["lift-curve-3", "lift-curve-1", "lift-circle-3", "sample-circle-3", "sample-chart-3"])
    def test_wrong_dimension_usage_error(self, cp2_file, tmp_path, capsys, command, fields, message):
        curve = write_json(tmp_path, "curve.json", dict(TestCurveFiles.GOOD, **fields))
        argv = [command, cp2_file, curve]
        if command == "sample":
            argv += ["--out", str(tmp_path / "mesh.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: the polytope has dimension 2, but {message}\n"

    # each boolean stands where the parser used to read it as 1 or 0, which
    # gave the same valid input: now exit 3 with one message
    @pytest.mark.parametrize("target,message", [
        ("normal", "facet normal (True, True): expected integers"),
        ("offset", "facets[0].offset: expected a rational literal like '3' or '1/2', got False"),
        ("coefficient", "coords[0][1]: expected a rational literal like '3' or '1/2', got True"),
        ("circle", "circle direction (True, True): expected integers, got True"),
        ("vector", "vectors[0]: expected a list of integers"),
    ], ids=["normal", "offset", "coefficient", "circle", "vector"])
    def test_json_boolean_usage_error(self, cp2, tmp_path, capsys, target, message):
        polytope = polytope_to_dict(cp2)
        curve = dict(TestCurveFiles.GOOD)
        vectors = [[1, 0], [0, 1], [-1, 1]]
        if target == "normal":
            polytope["facets"][2]["normal"] = [True, True]
        elif target == "offset":
            polytope["facets"][0]["offset"] = False
        elif target == "coefficient":
            curve["coords"] = [["0", True], ["0", "1"]]
        elif target == "circle":
            curve["circle"] = [True, True]
        else:
            vectors[0] = [True, False]
        P = write_json(tmp_path, "P.json", polytope)
        if target in ("normal", "offset"):
            argv = ["validate", P]
        elif target == "vector":
            argv = ["quasitoric", P, write_json(tmp_path, "v.json", {"vectors": vectors})]
        else:
            argv = ["lift-check", P, write_json(tmp_path, "curve.json", curve)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("fields,message", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES)
    def test_malformed_curve_entry_usage_error(self, cp2_file, tmp_path, capsys, fields, message):
        curve = write_json(tmp_path, "curve.json", dict(TestCurveFiles.GOOD, **fields))
        assert main(["lift-check", cp2_file, curve]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_validate_zero_dimension_usage_error(self, tmp_path, capsys):
        P = write_json(tmp_path, "P.json", {"n": 0, "facets": []})
        assert main(["validate", P]) == 3
        assert capsys.readouterr() == ("", "error: n: the dimension must be at least 1, got 0\n")

    def test_validate_half_line_unbounded(self, tmp_path, capsys):
        half_line = write_json(tmp_path, "half.json", {"n": 1, "facets": [{"normal": [1], "offset": "0"}]})
        assert main(["validate", half_line]) == 3
        assert capsys.readouterr().err.startswith("error: unbounded polytope")

    def test_missing_file_usage_error(self, capsys):
        assert main(["validate", "/no/such/file.json"]) == 3

    def test_malformed_json_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 3

    def test_empty_curve_file_message_names_it(self, cp2_file, tmp_path, capsys):
        # lift-check reads two files: the message says which one is not JSON
        curve = tmp_path / "empty.json"
        curve.write_text("")
        assert main(["lift-check", cp2_file, str(curve)]) == 3
        assert capsys.readouterr() == (
            "", f"error: {curve}: not a JSON file: Expecting value: line 1 column 1 (char 0)\n")

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 3

    def test_help_exits_zero(self, capsys):
        # argparse ends --help with SystemExit(0): a success, not a usage error
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: toriclift")

    def test_decimal_in_curve_usage_error(self, cp2_file, tmp_path):
        d = dict(TestCurveFiles.GOOD)
        d["coords"] = [["0", "0.5"], ["0", "1"]]
        curve = write_json(tmp_path, "bad.json", d)
        assert main(["lift-check", cp2_file, curve]) == 3

    @pytest.mark.parametrize("argv,code,line", [
        (["validate", {"n": 2, "facets": [{"normal": [1, 0, 0], "offset": "1"}]}], 3,
         "error: facet normal (1, 0, 0) has length 3, the polytope has dimension 2"),
        (["validate", {"n": 2, "facets": [{"normal": [0, 0], "offset": "1"}]}], 3,
         "error: facet normal (0, 0) is zero"),
        (["quasitoric", OCTAHEDRON, {"vectors": [[1, 0, 0]] * 8}], 3,
         "error: quasitoric validation needs a simple polytope"),
        (["equiv", os.path.join(DATA, "non_delzant_triangle.json"), "--r", "1,0", "--t1", "0,0", "--t2", "0,0"], 3,
         "error: subtorus generators of face [1, 2] are not saturated (index 2)"),
        (["validate", OCTAHEDRON], 1, "  vertex (1, 0, 0): FAIL (not simple)"),
    ], ids=["normal-length", "zero-normal", "quasitoric-non-simple", "unsaturated-face", "validate-non-simple"])
    def test_polytope_faults(self, tmp_path, capsys, argv, code, line):
        # each dict is written to a file whose path takes its place
        argv = [write_json(tmp_path, f"{k}.json", a) if isinstance(a, dict) else a for k, a in enumerate(argv)]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code == 3:
            assert (out, err) == ("", line + "\n")
        else:
            assert line in out.splitlines()

    # points in messages read as the user wrote them, not as Fraction reprs
    def test_equiv_outside_point_message(self, cp2_file, capsys):
        assert main(["equiv", cp2_file, "--r", "5,0", "--t1", "0,0", "--t2", "0,0"]) == 3
        assert capsys.readouterr() == ("", "error: point (5, 0) outside the polytope\n")

    @staticmethod
    def bad_vertex_runs(polytope, curve, out):
        # the default chart at a bad vertex is exit 3 for both subcommands as soon as the
        # endpoint's face is known, whether the curve leaves the vertex at nonzero velocity or,
        # as s^2 does, at zero velocity
        return [["lift-check", polytope, curve], ["sample", polytope, curve, "--nt", "4", "--out", str(out)]]

    def test_lift_check_non_delzant_vertex_message(self, bad_triangle_file, tmp_path, capsys):
        # starts at the vertex (1, 0) of conv{(0,0), (1,0), (0,2)}, where |det U| = 2
        for coords in ([["1", "-1"], ["0", "1"]], [["1", "0", "-1"], ["0", "0", "1"]]):
            curve = write_json(tmp_path, "curve.json", {"coords": coords, "domain": ["0", "1/2"],
                                                        "circle": [1, 1]})
            for argv in self.bad_vertex_runs(bad_triangle_file, curve, tmp_path / "mesh.csv"):
                assert main(argv) == 3
                assert capsys.readouterr() == ("", "error: vertex (1, 0) is not Delzant: |det U| = 2\n")
        assert not (tmp_path / "mesh.csv").exists()

    def test_lift_check_non_simple_vertex_message(self, tmp_path, capsys):
        octahedron = write_json(tmp_path, "octahedron.json", {"n": 3, "facets": [
            {"normal": list(a), "offset": "1"} for a in itertools.product((1, -1), repeat=3)]})
        for coords in ([["1", "-1"], ["0"], ["0"]], [["1", "0", "-1"], ["0"], ["0"]]):
            curve = write_json(tmp_path, "curve.json", {"coords": coords, "domain": ["0", "1/2"],
                                                        "circle": [1, 0, 0]})
            for argv in self.bad_vertex_runs(octahedron, curve, tmp_path / "mesh.csv"):
                assert main(argv) == 3
                assert capsys.readouterr() == ("", "error: vertex (1, 0, 0) is not simple: 4 active facets\n")
        assert not (tmp_path / "mesh.csv").exists()

    @pytest.mark.parametrize("endpoints", [[{"chart_vertex": ["7", "7"]}, None], [None, {"chart_vertex": ["7", "7"]}]],
                             ids=["given-at-0", "given-at-1"])
    def test_chart_vertex_checked_at_both_endpoints(self, cp2_file, tmp_path, capsys, endpoints):
        # (7, 7) is no vertex of P: lift-check and sample at either endpoint exit 3 with one
        # message, where sample at the other endpoint wrote a mesh and exited 0
        curve = write_json(tmp_path, "curve.json", {"coords": [["0", "3"], ["0"]], "domain": ["0", "1"],
                                                    "circle": [0, 1], "endpoints": endpoints})
        out = tmp_path / "mesh.csv"
        for argv in (["lift-check", cp2_file, curve],
                     *(["sample", cp2_file, curve, "--endpoint", e, "--nt", "4", "--out", str(out)] for e in "01")):
            assert main(argv) == 3
            assert capsys.readouterr() == ("", "error: chart vertex (7, 7) is not a vertex of P\n")
        assert not out.exists()

    @pytest.mark.parametrize("polytope,coords,endpoints,message", [
        ("cp2_3", [["0", "3"], ["0"]], [None, {"chart_vertex": ["0", "3"]}],
         "chart vertex (0, 3) is not a vertex of the endpoint face"),
        ("non_delzant_triangle", [["0", "1"], ["0"]], [None, None], "vertex (1, 0) is not Delzant: |det U| = 2"),
    ], ids=["given-off-the-face", "default-not-delzant"])
    def test_chart_at_the_other_endpoint_checked(self, tmp_path, capsys, polytope, coords, endpoints, message):
        # the chart at s = 1 is malformed: lift-check and sample at either endpoint exit 3 with
        # one message, where sample at endpoint 0 wrote a mesh and exited 0
        P = os.path.join(DATA, f"{polytope}.json")
        curve = write_json(tmp_path, "curve.json", {"coords": coords, "domain": ["0", "1"],
                                                    "circle": [0, 1], "endpoints": endpoints})
        out = tmp_path / "mesh.csv"
        for argv in (["lift-check", P, curve],
                     *(["sample", P, curve, "--endpoint", e, "--nt", "4", "--out", str(out)] for e in "01")):
            assert main(argv) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_equiv_non_simple_vertex_message(self, tmp_path, capsys):
        octahedron = write_json(tmp_path, "octahedron.json", {"n": 3, "facets": [
            {"normal": list(a), "offset": "1"} for a in itertools.product((1, -1), repeat=3)]})
        assert main(["equiv", octahedron, "--r", "1,0,0", "--t1", "0,0,0", "--t2", "0,0,1/2"]) == 3
        assert capsys.readouterr() == ("", "error: subtorus generators of face [0, 1, 2, 3] are linearly "
                                           "dependent: 4 facets meet in codimension 3\n")

    @pytest.mark.parametrize("project", ["0,1,2", "1,2", "a,b,c", "1,2,5", "1,2,3,4", ""],
                             ids=["zero", "two", "letters", "above-2n", "four", "empty"])
    def test_sample_project_usage_error(self, cp2_file, diag_curve_file, tmp_path, capsys, project):
        out = tmp_path / "mesh.obj"
        assert main(["sample", cp2_file, diag_curve_file, "--out", str(out),
                     f"--project={project}"]) == 3
        assert capsys.readouterr() == (
            "", f"error: --project: expected three integers in 1..4, got {project!r}\n")
        assert not out.exists()

    def test_sample_project_last_coordinates(self, cp2_file, diag_curve_file, tmp_path):
        out = tmp_path / "mesh.obj"
        assert main(["sample", cp2_file, diag_curve_file, "--nx", "3", "--nt", "4",
                     "--out", str(out), "--project", "4,3,2"]) == 0
        assert out.read_text().startswith("v ")

    def test_sample_csv_segment_ignores_project(self, tmp_path):
        # CSV writes every coordinate, so the default --project, out of range
        # for n = 1, is never read
        segment = write_json(tmp_path, "segment.json", {"n": 1, "facets": [
            {"normal": [1], "offset": "1"}, {"normal": [-1], "offset": "0"}]})
        curve = write_json(tmp_path, "s.json", {"coords": [["0", "1"]], "domain": ["0", "1"], "circle": [1]})
        out = tmp_path / "m.csv"
        assert main(["sample", segment, curve, "--nx", "3", "--nt", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,t,p1,p2" and len(lines) == 1 + 3 * 4


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the polytope subcommands in one fresh interpreter, then lift-check,
# then `sample`, and prints the exit codes and which of numpy,
# toriclift.surface, dataclasses, inspect, toriclift.criterion and
# toriclift.chart were loaded after each stage.  The exact subcommands load
# none of the first four, and the polytope subcommands none of the six:
# with no bytecode cached, each module costs its compile on every CLI call.
IMPORT_PROBE = """
import contextlib, io, json, sys
from toriclift.cli import main

polytope, curve, vectors, mesh = sys.argv[1:]
loaded = lambda: [name in sys.modules for name in ("numpy", "toriclift.surface", "dataclasses", "inspect",
                                                   "toriclift.criterion", "toriclift.chart")]
with contextlib.redirect_stdout(io.StringIO()):
    exact = [main(["validate", polytope]), main(["faces", polytope]),
             main(["quasitoric", polytope, vectors]),
             main(["equiv", polytope, "--r=1,0", "--t1=0,0", "--t2=0,1/2"])]
    after_polytope = loaded()
    exact.append(main(["lift-check", polytope, curve]))
    after_exact = loaded()
    sample = main(["sample", polytope, curve, "--nx", "3", "--nt", "4", "--out", mesh])
print(json.dumps({"exact": exact, "after_polytope": after_polytope, "after_exact": after_exact,
                  "sample": sample, "after_sample": loaded()}))
"""


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_only_sample_loads_numpy(cp2_file, diag_curve_file, tmp_path):
    vecs = write_json(tmp_path, "v.json", {"vectors": [[1, 0], [0, 1], [-1, 1]]})
    mesh = tmp_path / "mesh.obj"
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, cp2_file, diag_curve_file, vecs, str(mesh)],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["exact"] == [0, 0, 0, 0, 0]
    assert got["after_polytope"] == [False] * 6
    assert got["after_exact"] == [False, False, False, False, True, True]
    assert got["sample"] == 0 and got["after_sample"][:2] == [True, True]
    assert mesh.read_text().count("\nf ") == 2 * 4


@pytest.mark.parametrize("module,loads", [
    ("toriclift", ["toriclift"]),
    ("toriclift.polytope", ["toriclift", "toriclift.exactmath", "toriclift.polytope"]),
])
def test_import_loads_only_what_it_needs(module, loads):
    # the package namespace re-exports nothing, so a module loads only its own imports
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'toriclift'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loads}\n"


def test_files_read_and_written_as_utf8(diag_curve_file, tmp_path):
    # with the locale's codec an error, the CLI still reads its JSON and writes its mesh,
    # and prints what it prints without the flags
    polytope = os.path.join(os.path.dirname(SRC), "data", "cp2_3.json")
    mesh = tmp_path / "mesh.obj"
    for args in (["validate", polytope, "--json"],
                 ["sample", polytope, diag_curve_file, "--nx", "3", "--nt", "4", "--out", str(mesh)]):
        runs = []
        for flags in ([], ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]):
            proc = subprocess.run([sys.executable, *flags, "-m", "toriclift.cli", *args], env=_subprocess_env(),
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, mesh.read_bytes() if mesh.exists() else None))
        assert runs[0] == runs[1]
