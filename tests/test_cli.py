import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gradman import coalgebra
from gradman.cli import COMMANDS, main, parse_document, pretty_print, run as run_command
from gradman.errors import ParseError

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPORTS = GOLDEN / "reports.json"

# an integer literal past Python's int-string limit, and the refusal it earns
LONG = "9" * 5000
TOO_LONG = (f"integer literal of 5000 digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format=json")
    return code, json.loads(out)


class TestParser:
    def test_empty_document(self):
        doc = parse_document("")
        assert doc.base_names == () and doc.coords == ()

    def test_ex2dis_parses_to_two_fields(self):
        doc = parse_document((GOLDEN / "ex2dis.gm").read_text())
        assert set(doc.vfs) == {"D", "Dp"}
        assert doc.vfs["Dp"].degree == -1
        assert len(doc.vfs["Dp"].actions) == 2

    def test_comments_and_semicolons(self):
        doc = parse_document("chart\nbase x # trailing\ncoord e : 1; coord f : 1\n")
        assert doc.coords == (("e", 1), ("f", 1))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_document("coord : 1\n")
        assert exc.value.line == 1

    def test_unknown_name_in_expression(self):
        with pytest.raises(ParseError):
            parse_document("coord e : 1\nvf X : 0 { d/de = zz }\n")

    def test_degree_mismatch_diagnostic(self):
        # action must have degree 1 + 0 inside a degree-0 field
        with pytest.raises(ParseError) as exc:
            parse_document("coord e : 1\ncoord p : 2\nvf X : 0 { d/de = p }\n")
        assert "degree" in str(exc.value)

    def test_rational_literals(self):
        doc = parse_document("base x\ncoord e : 1\nvf X : 0 { d/dx = 1/2 + x }\n")
        f = dict(doc.vfs["X"].actions)["x"]
        assert f.body().eval([0]) == 0.5

    def test_powers_of_even_generators(self):
        doc = parse_document(
            "coord e : 1\ncoord p : 2\nvf X : -1 { d/de = 1 }\n"
            "vf Y : -1 { d/de = p^2 - p*p }\n"
        )
        actions = dict(doc.vfs["Y"].actions)
        assert "e" not in actions or actions["e"].is_zero()


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "ex2dis.gm", "vftang.gm", "frobA.gm", "wedge22.gm",
        "zeromu.gm", "xdep.gm", "qsquare.gm", "nonconst.gm", "nonsplit.gm",
    ])
    def test_parse_pretty_parse_identity(self, name):
        source = (GOLDEN / name).read_text()
        doc = parse_document(source)
        printed = pretty_print(doc)
        doc2 = parse_document(printed)
        assert doc == doc2
        # printing is a fixed point
        assert pretty_print(doc2) == printed


class TestExitCodes:
    def test_involutive_positive(self, capsys):
        code, out = run(capsys, "involutive", str(GOLDEN / "ex2dis.gm"), "--name", "DD")
        assert code == 0 and "verdict: True" in out

    def test_involutive_negative_with_witness(self, capsys):
        code, rep = run_json(capsys, "involutive", str(GOLDEN / "ex2dis.gm"),
                             "--name", "DDp")
        assert code == 1
        assert rep["verdict"] is False
        assert rep["witnesses"]["bracket"] == {"d/dp": "2"}

    def test_frobenius_stage_a(self, capsys):
        code, rep = run_json(capsys, "frobenius", str(GOLDEN / "frobA.gm"))
        assert code == 0
        assert rep["tables"]["substitution"] == {"ph": "-e1*e2 + ph"}
        assert rep["tables"]["flattened"] == ["e1"]
        assert rep["tables"]["checks"] == {"span_preserved": True, "inverse_ok": True}

    def test_frobenius_not_involutive(self, capsys):
        code, rep = run_json(capsys, "frobenius", str(GOLDEN / "ex2dis.gm"),
                             "--name", "DDp")
        assert code == 1 and rep["witnesses"]["bracket"] == {"d/dp": "2"}

    def test_frobenius_unsupported_symbols(self, capsys):
        code, rep = run_json(capsys, "frobenius", str(GOLDEN / "nonconst.gm"))
        assert code == 3
        assert rep["witnesses"]["unsupported"] == "NonConstantSymbols"

    def test_frobenius_degree_cap_below_the_top_degree(self, tmp_path, capsys):
        # the span check reads the action table, so it builds no membership
        # system whose coefficient degree could pass the cap of 1
        doc = tmp_path / "cap.gm"
        doc.write_text("chart\nbase x\ncoord p : 2\nvf Y : 0 {\n  d/dx = 1\n}\n"
                       "vf P : -2 {\n  d/dp = 1\n}\ndist D = Y, P @ points (0)\n")
        code, rep = run_json(capsys, "frobenius", str(doc), "--max-degree", "1")
        assert code == 0, rep["witnesses"]
        assert rep["tables"]["flattened"] == ["x", "p"]
        assert rep["tables"]["checks"] == {"span_preserved": True, "inverse_ok": True}

    def test_membership_leaves_out_generators_past_the_degree_cap(self, tmp_path, capsys):
        # P's coefficient in a degree-0 bracket would have degree 2, past the
        # cap of 1; [A, B] = A is certified without it
        doc = tmp_path / "cap.gm"
        doc.write_text("chart\nbase x y\ncoord p : 2\nvf A : 0 {\n  d/dx = 1\n}\n"
                       "vf B : 0 {\n  d/dx = x\n  d/dy = 1\n}\nvf P : -2 {\n  d/dp = 1\n}\n"
                       "dist D = A, B, P @ points (0, 0)\n")
        for cmd, want in (("involutive", 0), ("frobenius", 3)):
            code, rep = run_json(capsys, cmd, str(doc))
            capped, capped_rep = run_json(capsys, cmd, str(doc), "--max-degree", "1")
            assert code == capped == want, capped_rep["witnesses"]
            assert capped_rep["witnesses"] == rep["witnesses"]
        assert rep["witnesses"]["unsupported"] == "NonConstantSymbols"
        # [A, B] = d/dy is in no span of A and B: below the cap the answer is unknown
        doc.write_text("chart\nbase x y\ncoord p : 2\nvf A : 0 {\n  d/dx = 1\n}\n"
                       "vf B : 0 {\n  d/dy = x\n}\nvf P : -2 {\n  d/dp = 1\n}\n"
                       "dist D = A, B, P @ points (1, 0)\n")
        code, rep = run_json(capsys, "involutive", str(doc))
        assert code == 1 and rep["witnesses"]["bracket"] == {"d/dy": "1"}
        code, rep = run_json(capsys, "involutive", str(doc), "--max-degree", "1")
        assert code == 2
        assert rep["witnesses"]["error"] == "membership coefficient degree exceeds the cap"

    def test_check_coalgebra_and_admissible(self, capsys):
        code, _ = run(capsys, "check-coalgebra", str(GOLDEN / "wedge22.gm"))
        assert code == 0
        code, rep = run_json(capsys, "admissible", str(GOLDEN / "wedge22.gm"))
        assert code == 0 and rep["tables"]["degrees"]["-2"]["equal"] is True

    @pytest.mark.parametrize("entry, code, failures", [
        ("0", 0, None),
        ("1", 1, [{"law": "coassociativity", "degree": -3, "frame_index": 0}]),
    ])
    def test_check_coalgebra_past_the_splitting(self, tmp_path, capsys, entry, code, failures):
        # the split model on two odd letters and one degree -2 generator p;
        # a 1 at (a1, a1*a2) of a1*p's column keeps the mirrored pairs
        # cocommutative, and coassociativity fails at -3, where the
        # splitting stops passing
        doc = tmp_path / "c3.gm"
        doc.write_text("coalgebra C {\n  rank -1 = 2\n  rank -2 = 2\n  rank -3 = 2\n"
                       "  mu -2 = [[0, 0], [1, 0], [-1, 0], [0, 0]]\n"
                       f"  mu -3 = [[{entry}, 0], [1, 0], [0, 0], [0, 1]]\n}}\n")
        got, rep = run_json(capsys, "check-coalgebra", str(doc))
        assert got == code and rep["witnesses"].get("failures") == failures
        assert rep["tables"]["laws"] == {"cocommutative": True, "coassociative": not code}

    def test_admissibility_boundary(self, capsys):
        code, rep = run_json(capsys, "admissible", str(GOLDEN / "zeromu.gm"))
        assert code == 1
        deg = rep["tables"]["degrees"]["-2"]
        assert deg["im_rank"] == 0 and deg["K_rank"] == 1

    def test_admissible_on_many_generators_in_one_degree(self, tmp_path, capsys, monkeypatch):
        # 40 odd generators: 1,600 ordered pairs at degree -2, of which K
        # keeps the 780 antisymmetric combinations and mu, absent, none
        doc = tmp_path / "rank40.gm"
        doc.write_text("coalgebra Z {\n  rank -1 = 40\n  rank -2 = 1\n}\n")
        code, rep = run_json(capsys, "admissible", str(doc))
        assert code == 1
        deg = rep["tables"]["degrees"]["-2"]
        assert deg["im_rank"] == 0 and deg["K_rank"] == 780
        # the splitting compares the split model's ranks first: 1 + C(40, 2)
        # words at degree -2, so it builds the model through degree -1 only
        built = []
        split = coalgebra.split_coalgebra
        monkeypatch.setattr(coalgebra, "split_coalgebra",
                            lambda ranks, *a: built.append(len(ranks)) or split(ranks, *a))
        for cmd in ("geometrize", "split-iso", "roundtrip"):
            code, rep = run_json(capsys, cmd, str(doc))
            assert code == 1 and rep["witnesses"]["error"] == \
                "rank mismatch at degree -2: bundle rank 1, split model rank 781"
        assert built == [1, 1, 1]

    def test_ordered_pairs_at_the_cap_parse(self):
        doc = parse_document("coalgebra C {\n rank -1 = 500\n rank -2 = 1\n}\n")
        assert doc.coalgebras["C"].ranks == {1: 500, 2: 1}
        # a 500 x 500 splitting is at the cap
        doc = parse_document("coalgebra C {\n rank -1 = 500\n}\n")
        assert doc.coalgebras["C"].ranks == {1: 500}

    def test_split_iso_unsupported_on_x_dependence(self, capsys):
        code, rep = run_json(capsys, "split-iso", str(GOLDEN / "xdep.gm"))
        assert code == 3 and rep["witnesses"]["unsupported"] == "UnsupportedXDependence"

    def test_geometrize_and_reduce(self, capsys):
        code, rep = run_json(capsys, "geometrize", str(GOLDEN / "wedge22.gm"))
        assert code == 0
        assert rep["tables"]["signature"]["generators"]["1"] == ["e1_1", "e1_2"]
        assert rep["tables"]["signature"]["generators"]["2"] == []
        code, rep = run_json(capsys, "reduce", str(GOLDEN / "wedge22.gm"),
                             "--expr", "E_2_1")
        assert code == 0 and rep["tables"]["normal_form"] == "e1_1*e1_2"

    def test_qsquare(self, capsys):
        code, _ = run(capsys, "qsquare", str(GOLDEN / "qsquare.gm"), "--field", "Q")
        assert code == 0
        code, _ = run(capsys, "qsquare", str(GOLDEN / "qsquare.gm"), "--field", "Qsl2")
        assert code == 0
        code, rep = run_json(capsys, "qsquare", str(GOLDEN / "qsquare.gm"),
                             "--field", "Qbad")
        assert code == 1 and rep["witnesses"]["square"]

    def test_bracket_and_tangent(self, capsys):
        code, rep = run_json(capsys, "bracket", str(GOLDEN / "vftang.gm"),
                             "--fields", "X,Y")
        assert code == 0 and rep["tables"]["bracket"] == {"zero": "0"}
        code, rep = run_json(capsys, "tangent", str(GOLDEN / "vftang.gm"),
                             "--field", "X", "--sample-points", "(0);(3)")
        assert code == 0
        assert rep["tables"]["tangents"]["(3)"] == {"x": "1"}

    def test_roundtrip_subcommand(self, capsys):
        code, rep = run_json(capsys, "roundtrip", str(GOLDEN / "wedge22.gm"))
        assert code == 0 and rep["tables"]["checks"] == {
            "morphism": True, "invertible": True,
        }

    def test_usage_errors(self, capsys):
        code, _ = run(capsys, "involutive", str(GOLDEN / "ex2dis.gm"))
        assert code == 2  # two dists declared, no --name
        code, _ = run(capsys, "involutive", "/nonexistent/file.gm")
        assert code == 2
        assert main(["not-a-command", "x"]) == 2
        assert main([]) == 2
        assert main(["roundtrip"]) == 2  # no file
        wedge = str(GOLDEN / "wedge22.gm")
        assert main(["roundtrip", wedge, "--format", "xml"]) == 2
        assert main(["roundtrip", wedge, "--max-degree", "two"]) == 2
        capsys.readouterr()
        assert main(["--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert all(cmd in usage for cmd in COMMANDS)
        # options may come before the subcommand and give the same report
        code, after = run_json(capsys, "reduce", wedge, "--name", "E", "--expr", "E_2_1")
        assert code == 0
        assert main(["--format=json", "--name", "E", "--expr", "E_2_1", "reduce", wedge]) == 0
        before = json.loads(capsys.readouterr().out)
        after.pop("timing_ms")
        before.pop("timing_ms")
        assert before == after

    def test_directory_input(self, tmp_path, capsys):
        code, rep = run_json(capsys, "roundtrip", str(tmp_path))
        assert code == 2 and rep["verdict"] is False
        assert "directory" in rep["witnesses"]["error"]

    def test_non_utf8_input(self, tmp_path, capsys):
        bad = tmp_path / "latin1.gm"
        bad.write_bytes((GOLDEN / "wedge22.gm").read_bytes() + b"# caf\xe9\n")
        code, rep = run_json(capsys, "roundtrip", str(bad))
        assert code == 2 and "utf-8" in rep["witnesses"]["error"]

    @pytest.mark.parametrize("argv", [
        ["tangent", "vftang.gm", "--field", "Y"],
        ["admissible", "xdep.gm"],
        ["involutive", "nonconst.gm"],
    ])
    @pytest.mark.parametrize("points", ["(1,2,3)", "(0);(1,2)", "()", "(a)", "(1/0)",
                                        "(1.5)", "(1e3)", "(1e99999999)", "((2", "2"])
    def test_malformed_sample_points(self, capsys, argv, points):
        # each chart has one base coordinate
        code, rep = run_json(capsys, argv[0], str(GOLDEN / argv[1]), *argv[2:],
                             "--sample-points", points)
        assert code == 2 and "sample point" in rep["witnesses"]["error"]

    MALFORMED = {
        "zero denominator in mu": (
            "check-coalgebra",
            "coalgebra C {\n rank -1 = 2\n rank -2 = 1\n mu -2 = [[1/0], [0], [0], [0]]\n}\n",
            "division by zero"),
        "zero denominator in a field": (
            "involutive",
            "base x\ncoord e : 1\nvf A : -1 { d/de = x + 1/0 }\ndist D = A\n",
            "division by zero"),
        "zero denominator in a point": (
            "involutive",
            "base x\ncoord e : 1\nvf A : -1 { d/de = 1 }\ndist D = A @ points (1/0)\n",
            "division by zero"),
        "ragged mu row": (
            "check-coalgebra",
            "coalgebra C {\n rank -1 = 2\n rank -2 = 1\n mu -2 = [[0], [1, 2], [-1], [0]]\n}\n",
            "must be 4x1"),
        "dist point of wrong arity": (
            "involutive",
            "base x\ncoord e : 1\nvf A : -1 { d/de = 1 }\ndist D = A @ points (1, 2)\n",
            "has 2 coordinates"),
        "dependent generators": (
            "frobenius",
            "base x\ncoord e : 1\ncoord f : 1\nvf A : -1 { d/de = 1 }\n"
            "vf B : -1 { d/de = 2 }\ndist D = A, B\n",
            "dependent"),
        "repeated generator": (
            "involutive",
            "base x\ncoord e : 1\nvf A : -1 { d/de = 1 }\ndist D = A, A\n",
            "dependent"),
        "vanishing tangent": (
            "involutive",
            "base x\ncoord e : 1\nvf A : 0 { d/dx = x }\ndist D = A @ points (0)\n",
            "dependent"),
        "dangling caret in a field": (
            "roundtrip",
            "base x\ncoord e : 1\nvf X : 0 { d/dx = x^ }\n",
            "end of expression after '^' (line 3, col 20)"),
        "dangling slash in a field": (
            "involutive",
            "base x\ncoord e : 1\nvf A : -1 { d/de = 1/ }\ndist D = A\n",
            "end of expression after '/' (line 3, col 21)"),
        "dangling caret in mu": (
            "check-coalgebra",
            "base x\ncoalgebra C {\n rank -1 = 2\n rank -2 = 1\n"
            " mu -2 = [[0], [x^], [0], [0]]\n}\n",
            "end of expression after '^' (line 5, col 18)"),
        "dangling slash in a morphism": (
            "roundtrip",
            "coalgebra C {\n rank -1 = 1\n}\nmorphism F : C -> C { deg -1 = [[1/]] }\n",
            "end of expression after '/' (line 4, col 35)"),
        "exponent above the degree cap": (
            "roundtrip",
            "base x\ncoord e : 1\nvf X : 0 { d/dx = (1 + x)^3000 }\n",
            "exponent 3000 exceeds the degree cap 3 (line 3, col 27)"),
        "nested powers above the degree cap": (
            "roundtrip",
            "base x\ncoord e : 1\nvf X : 0 { d/dx = ((((((1 + x)^3)^3)^3)^3)^3)^3 }\n",
            "nested exponent 9 exceeds the degree cap 3 (line 3, col 35)"),
        "rank degree below the declared-degree cap": (
            "admissible",
            "coalgebra C {\n rank -400000 = 1\n}\n",
            "rank degree -400000 is below the cap -1000 (line 2, col 2)"),
        "ordered pairs of one degree above the cap": (
            "admissible",
            "coalgebra C {\n rank -1 = 501\n rank -2 = 1\n}\n",
            "coalgebra 'C' has more than the cap of 250000 ordered frame pairs at degree -2"
            " (line 1, col 1)"),
        "rank of one degree above the cap": (
            "split-iso",
            "coalgebra C {\n rank -1 = 501\n}\n",
            "coalgebra 'C' has rank 501 at degree -1: its 501 x 501 splitting exceeds the cap"
            " of 250000 entries (line 1, col 1)"),
        "coordinate degree above the declared-degree cap": (
            "frobenius",
            "coord e : 1001\nvf X : -1001 { d/de = 1 }\ndist D = X\n",
            "coordinate degree 1001 exceeds the cap 1000 (line 1, col 1)"),
        "coordinate degree past the int-string limit": (
            "roundtrip",
            f"coord e : {LONG}\n",
            f"{TOO_LONG} (line 1, col 11)"),
        "field constant past the int-string limit": (
            "roundtrip",
            f"base x\ncoord e : 1\nvf X : 0 {{ d/dx = x + {LONG} }}\n",
            f"{TOO_LONG} (line 3, col 23)"),
        "point denominator past the int-string limit": (
            "involutive",
            f"base x\ncoord e : 1\nvf A : -1 {{ d/de = 1 }}\ndist D = A @ points (1/{LONG})\n",
            f"{TOO_LONG} (line 4, col 24)"),
        "coordinate degree below 1": (
            "roundtrip", "coord e : 0\n",
            "coordinate degree must be >= 1 (line 1, col 1)"),
        "duplicate coordinate name": (
            "roundtrip", "coord e : 1\ncoord e : 2\n",
            "duplicate coordinate name 'e'"),
        "non-negative rank degree": (
            "admissible", "coalgebra C {\n rank 1 = 2\n}\n",
            "rank degree must be negative (line 2, col 2)"),
        "mu degree above -2": (
            "check-coalgebra", "coalgebra C {\n rank -1 = 2\n mu -1 = [[0]]\n}\n",
            "mu degree must be <= -2 (line 3, col 2)"),
        "unknown coalgebra entry": (
            "check-coalgebra", "coalgebra C {\n rank -1 = 2\n size -1 = 2\n}\n",
            "unknown coalgebra entry 'size' (line 3, col 2)"),
        "non-negative morphism degree": (
            "roundtrip",
            "coalgebra C {\n rank -1 = 1\n}\nmorphism F : C -> C { deg 1 = [[1]] }\n",
            "morphism degree must be negative (line 4, col 23)"),
        "matrix entry of positive degree": (
            "check-coalgebra",
            "coord e : 1\ncoalgebra C {\n rank -1 = 2\n rank -2 = 1\n"
            " mu -2 = [[0], [e], [0], [0]]\n}\n",
            "matrix entries must have degree 0 (line 5, col 17)"),
        "non-integer exponent": (
            "roundtrip", "base x\ncoord e : 1\nvf X : 0 { d/dx = x^x }\n",
            "exponent must be a non-negative integer (line 3, col 21)"),
        "missing denominator": (
            "roundtrip", "base x\ncoord e : 1\nvf X : 0 { d/dx = 1/x }\n",
            "expected denominator (line 3, col 21)"),
        "unclosed parenthesis": (
            "roundtrip", "base x\ncoord e : 1\nvf X : 0 { d/dx = (1 + x x) }\n",
            "expected ')' (line 3, col 19)"),
        "token after a whole expression": (
            "roundtrip", "base x\ncoord e : 1\nvf X : 0 { d/dx = x x }\n",
            "unexpected token 'x' in expression (line 3, col 21)"),
        "token where a factor starts": (
            "roundtrip", "base x\ncoord e : 1\nvf X : 0 { d/dx = * x }\n",
            "unexpected token '*' in expression (line 3, col 19)"),
        "unknown vector field in a dist": (
            "involutive", "coord e : 1\nvf A : -1 { d/de = 1 }\ndist D = A, Z\n",
            "unknown vector field 'Z' in dist 'D'"),
        "action below degree 0": (
            "roundtrip", "coord e : 1\nvf X : -2 { d/de = 1 }\n",
            "action on e must have degree -1 (line 2, col 13)"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document(self, tmp_path, capsys, case):
        cmd, source, message = self.MALFORMED[case]
        bad = tmp_path / "bad.gm"
        bad.write_text(source)
        code, rep = run_json(capsys, cmd, str(bad))
        assert code == 2 and message in rep["witnesses"]["error"]
        with pytest.raises(ParseError):
            run_command(cmd, parse_document(source))

    FLAG_REFUSALS = [
        (["bracket", "vftang.gm", "--fields", "X,Z"], "unknown vector field 'Z'"),
        (["qsquare", "qsquare.gm", "--field", "Z"], "unknown vector field 'Z'"),
        (["tangent", "vftang.gm", "--field", "Z"], "unknown vector field 'Z'"),
        (["bracket", "vftang.gm", "--fields", "X"], "bracket requires --fields X,Y"),
        (["qsquare", "qsquare.gm"], "qsquare requires --field"),
        (["tangent", "vftang.gm"], "tangent requires --field"),
        (["reduce", "wedge22.gm", "--expr", "E_1_1 * "], "empty factor in --expr"),
        (["reduce", "wedge22.gm", "--expr", "E_3_1"], "frame element 'E_3_1' out of range"),
        (["reduce", "wedge22.gm", "--expr", "F_1_1"],
         "cannot read factor 'F_1_1': use E_<deg>_<index> or a rational"),
        (["reduce", "wedge22.gm"], "reduce requires --expr"),
        (["involutive", "nonconst.gm", "--sample-points", "(-1)"],
         "dist 'D': generators have dependent tangent vectors at a sample point"),
        (["tangent", "vftang.gm", "--field", "Y", "--sample-points", "(1/0)"],
         "sample point (1/0) has an entry that is not a rational"),
        (["tangent", "vftang.gm", "--field", "Y", "--sample-points", "(1,2)"],
         "sample point (1,2) has 2 coordinates, the chart has 1 base coordinates"),
        (["tangent", "vftang.gm", "--field", "Y", "--sample-points", "((2"],
         "sample point '((2' is not one parenthesized list"),
        (["tangent", "vftang.gm", "--field", "Y", "--sample-points", "(2);((2))"],
         "sample point '((2))' is not one parenthesized list"),
        (["reduce", "wedge22.gm", "--expr", "E_\u0661_\u0662"],
         "cannot read factor 'E_\u0661_\u0662': use E_<deg>_<index> or a rational"),
    ]

    @pytest.mark.parametrize("argv, message", FLAG_REFUSALS)
    def test_flag_refusal(self, capsys, argv, message):
        code, rep = run_json(capsys, argv[0], str(GOLDEN / argv[1]), *argv[2:])
        assert code == 2 and rep["witnesses"]["error"] == message

    def test_sample_points_grammar(self, capsys):
        # each entry is -p or -p/q, with spaces around entries and points
        code, rep = run_json(capsys, "tangent", str(GOLDEN / "vftang.gm"), "--field", "Y",
                             "--sample-points", " (0) ; (-4/6 );(3)")
        assert code == 0 and sorted(rep["tables"]["tangents"]) == ["(-2/3)", "(0)", "(3)"]
        # extra points reach the distribution of `involutive`
        code, rep = run_json(capsys, "involutive", str(GOLDEN / "nonconst.gm"),
                             "--sample-points", "(2);(-1/2)")
        assert code == 0 and rep["tables"] == {"ranks": "1|0"}
        # the one point of a chart with no base coordinates
        code, rep = run_json(capsys, "involutive", str(GOLDEN / "frobA.gm"),
                             "--sample-points", "()")
        assert code == 0 and rep["tables"] == {"ranks": "0|1|0"}

    def test_malformed_reduce_expression(self, capsys):
        wedge = str(GOLDEN / "wedge22.gm")
        for expr, message in [(f"E_{LONG}_1", TOO_LONG), (f"E_1_{LONG}", TOO_LONG),
                              (f"{LONG} * E_1_1", TOO_LONG),
                              (f"-1/{LONG} * E_1_1", TOO_LONG),
                              ("1/0 * E_1_1", "division by zero in factor '1/0'")]:
            code, rep = run_json(capsys, "reduce", wedge, "--expr", expr)
            assert code == 2 and message in rep["witnesses"]["error"], expr

    def test_output_coefficient_past_the_int_string_limit(self, tmp_path, capsys):
        # each literal parses; their product has too many digits to print
        n = "9" * 4000
        message = (f"coefficient of 8000 digits exceeds the limit of "
                   f"{sys.get_int_max_str_digits()} digits for decimal output")
        src = tmp_path / "big.gm"
        src.write_text(f"base x\ncoord e : 1\nvf X : -1 {{ d/de = {n} * {n} }}\n")
        code, rep = run_json(capsys, "tangent", str(src), "--field", "X")
        assert code == 2 and rep["witnesses"]["error"] == message
        code, rep = run_json(capsys, "reduce", str(GOLDEN / "wedge22.gm"),
                             "--expr", f"{n} * {n} * E_1_1")
        assert code == 2 and rep["witnesses"]["error"] == message

    C21 = "coalgebra C {\n rank -1 = 2\n rank -2 = 1\n mu -2 = [[0], [1], [-1], [0]]\n}\n"
    DECLARATIONS = {
        "morphism to an unknown coalgebra": (
            C21 + "morphism F : C -> D { deg -1 = [[1, 0], [0, 1]] }\n",
            "unknown coalgebra 'D'"),
        "morphism from an unknown coalgebra": (
            C21 + "morphism F : D -> C { deg -1 = [[1, 0], [0, 1]] }\n",
            "unknown coalgebra 'D'"),
        "ragged morphism matrix": (
            C21 + "morphism F : C -> C { deg -1 = [[1, 0], [0]] }\n",
            "must be 2x2"),
        "morphism matrix of the wrong shape": (
            C21 + "morphism F : C -> C { deg -1 = [[1, 0, 0], [0, 1, 0]] }\n",
            "must be 2x2"),
        "morphism degree below the bundles": (
            C21 + "morphism F : C -> C { deg -3 = [[1]] }\n",
            "outside -1..-2"),
        "mu below the lowest rank degree": (
            "coalgebra C {\n rank -1 = 2\n rank -2 = 1\n mu -5 = [[7]]\n}\n",
            "mu -5"),
        "repeated coalgebra": (C21 + C21, "coalgebra 'C' is declared twice"),
        "repeated morphism": (
            C21 + "morphism F : C -> C { }\nmorphism F : C -> C { }\n",
            "morphism 'F' is declared twice"),
        "repeated vf": (
            "coord e : 1\ncoord p : 2\nvf A : -1 { d/de = 1  d/dp = e }\n"
            "vf A : -2 { d/dp = 1 }\ndist D = A\n",
            "vf 'A' is declared twice"),
        "repeated dist": (
            "coord e : 1\nvf A : -1 { d/de = 1 }\ndist D = A\ndist D = A\n",
            "dist 'D' is declared twice"),
    }

    @pytest.mark.parametrize("case", sorted(DECLARATIONS))
    @pytest.mark.parametrize("cmd", ["roundtrip", "check-coalgebra", "involutive"])
    def test_malformed_declaration(self, tmp_path, capsys, case, cmd):
        source, message = self.DECLARATIONS[case]
        bad = tmp_path / "bad.gm"
        bad.write_text(source)
        code, rep = run_json(capsys, cmd, str(bad))
        assert code == 2 and message in rep["witnesses"]["error"]
        with pytest.raises(ParseError):
            parse_document(source)

    def test_exponent_cap_follows_max_degree(self):
        source = "base x\ncoord e : 1\nvf X : 0 { d/dx = (1 + x)^4 }\n"
        with pytest.raises(ParseError, match="exponent 4 exceeds the degree cap 3"):
            parse_document(source)
        assert parse_document(source, max_degree=4).vfs["X"].actions
        # nested exponents count by their product; a bare base power counts 1
        nested = "base x\ncoord e : 1\nvf X : 0 { d/dx = ((1 + x)^3)^3 + ((x^5 + 1)^3)^1 }\n"
        with pytest.raises(ParseError, match="nested exponent 9 exceeds the degree cap 3"):
            parse_document(nested)
        assert parse_document(nested, max_degree=9).vfs["X"].actions

    def test_base_variable_power_is_uncapped_and_prints_back(self):
        # the printer writes base degree 4 as x^4, above the cap 3 of this chart
        doc = parse_document("base x\ncoord e : 1\nvf X : 0 { d/dx = x*x*x*x + x^3000 }\n")
        printed = pretty_print(doc)
        assert "x^3000 + x^4" in printed
        assert pretty_print(parse_document(printed)) == printed

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.gm"
        bad.write_text("coord e 1\n")
        code, rep = run_json(capsys, "involutive", str(bad))
        assert code == 2 and "error" in rep["witnesses"]

    def test_report_schema_fields(self, capsys):
        code, rep = run_json(capsys, "check-coalgebra", str(GOLDEN / "wedge22.gm"))
        assert rep["schema"] == 1
        for key in ("command", "verdict", "exit_code", "witnesses", "tables", "timing_ms"):
            assert key in rep

    def test_determinism(self, capsys):
        a = run_json(capsys, "frobenius", str(GOLDEN / "frobA.gm"))[1]
        b = run_json(capsys, "frobenius", str(GOLDEN / "frobA.gm"))[1]
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b

    def test_programmatic_dispatch(self):
        doc = parse_document((GOLDEN / "ex2dis.gm").read_text())
        rep = run_command("involutive", doc, name="DDp")
        assert rep.exit_code == 1
        assert rep.witnesses["bracket"] == {"d/dp": "2"}
        rep = run_command("involutive", doc, name="DD")
        assert rep.exit_code == 0 and rep.verdict
        json.loads(rep.to_json())  # serializable
        with pytest.raises(ParseError, match="unknown subcommand 'nope'"):
            run_command("nope", doc)


# --- report snapshot ------------------------------------------------------------

# argv lists beyond the declared names, for options the enumeration never sets
EXTRA_ARGVS = [
    ["admissible", "xdep.gm", "--sample-points", "(0);(-1)"],
    ["admissible", "xdep.gm", "--sample-points", "(1/2);(-1)"],
    ["tangent", "vftang.gm", "--field", "Y", "--sample-points", "(0);(3)"],
    ["reduce", "wedge22.gm", "--expr", "E_2_1"],
    ["reduce", "wedge22.gm", "--expr", "1/2 * E_1_2 * E_1_1"],
    ["reduce", "nonsplit.gm", "--expr", "N_2_1"],
    ["reduce", "nonsplit.gm", "--expr", "-1/2 * N_2_2"],
]


def snapshot_argvs():
    """Every subcommand on every golden file: bare, and with each declared
    --name, --field and --fields value."""
    for path in sorted(GOLDEN.glob("*.gm")):
        doc = parse_document(path.read_text())
        vfs = sorted(doc.vfs)
        options = [[]]
        options += [["--name", n] for n in sorted({*doc.coalgebras, *doc.dists})]
        options += [["--field", f] for f in vfs]
        options += [["--fields", f"{a},{b}"] for a in vfs for b in vfs]
        for cmd in COMMANDS:
            for opt in options:
                yield [cmd, path.name, *opt]
    yield from EXTRA_ARGVS


def snapshot_report(argv):
    """(exit code, JSON report without timing_ms) of one golden argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([argv[0], str(GOLDEN / argv[1]), *argv[2:], "--format=json"])
    rep = json.loads(out.getvalue())
    rep.pop("timing_ms")
    return code, rep


def snapshot():
    """Reports of every snapshot argv that ends in a verdict or a refusal."""
    entries = {}
    for argv in snapshot_argvs():
        code, rep = snapshot_report(argv)
        if code in (0, 1, 3):
            entries[" ".join(argv)] = rep
    return entries


def test_reports_match_snapshot():
    """Every recorded report is reproduced exactly, except timing_ms.

    The snapshot pins library results seen through the CLI, including the
    split-iso matrices, which depend on the pivot order of the eliminations.
    """
    want = json.loads(REPORTS.read_text())
    got = snapshot()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed


def test_reports_match_snapshot_under_fixed_hash_seeds():
    """The snapshot replays under PYTHONHASHSEED 0 and 1.  `fields.bracket`
    iterates a set of string-keyed coordinates, whose order follows the hash
    seed, so a report that depended on that order would fail here on every
    run instead of by chance."""
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    script = "import json, sys, test_cli; json.dump(test_cli.snapshot(), sys.stdout)"
    want = json.loads(REPORTS.read_text())
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout)
        assert sorted(got) == sorted(want), seed
        assert not [key for key in want if got[key] != want[key]], seed


if __name__ == "__main__":
    # Rewrites the snapshot; run it only when a change of report is intended:
    #   PYTHONPATH=src python tests/test_cli.py
    REPORTS.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
