import contextlib
import io
import json
import pathlib

import pytest

from gradman.cli import COMMANDS, main, parse_document, pretty_print, run as run_command
from gradman.errors import ParseError

GOLDEN = pathlib.Path(__file__).parent / "golden"
REPORTS = GOLDEN / "reports.json"


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
        "zeromu.gm", "xdep.gm", "qsquare.gm", "nonconst.gm",
    ])
    def test_parse_pretty_parse_identity(self, name):
        source = (GOLDEN / name).read_text()
        doc = parse_document(source)
        printed = pretty_print(doc)
        doc2 = parse_document(printed)
        assert doc.canonical() == doc2.canonical()
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

    def test_check_coalgebra_and_admissible(self, capsys):
        code, _ = run(capsys, "check-coalgebra", str(GOLDEN / "wedge22.gm"))
        assert code == 0
        code, rep = run_json(capsys, "admissible", str(GOLDEN / "wedge22.gm"))
        assert code == 0 and rep["tables"]["degrees"]["-2"]["equal"] is True

    def test_admissibility_boundary(self, capsys):
        code, rep = run_json(capsys, "admissible", str(GOLDEN / "zeromu.gm"))
        assert code == 1
        deg = rep["tables"]["degrees"]["-2"]
        assert deg["im_rank"] == 0 and deg["K_rank"] == 1

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

    @pytest.mark.parametrize("argv", [
        ["tangent", "vftang.gm", "--field", "Y"],
        ["admissible", "xdep.gm"],
        ["involutive", "nonconst.gm"],
    ])
    @pytest.mark.parametrize("points", ["(1,2,3)", "(0);(1,2)", "()", "(a)", "(1/0)"])
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


# --- report snapshot ------------------------------------------------------------

# argv lists beyond the declared names, for options the enumeration never sets
EXTRA_ARGVS = [
    ["admissible", "xdep.gm", "--sample-points", "(0);(-1)"],
    ["tangent", "vftang.gm", "--field", "Y", "--sample-points", "(0);(3)"],
    ["reduce", "wedge22.gm", "--expr", "E_2_1"],
    ["reduce", "wedge22.gm", "--expr", "1/2 * E_1_2 * E_1_1"],
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


if __name__ == "__main__":
    # Rewrites the snapshot; run it only when a change of report is intended:
    #   PYTHONPATH=src python tests/test_cli.py
    REPORTS.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
