import contextlib
import csv
import html
import io
import json
import os
import random
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dompoly import cli, complexroots, enumeration, plotting
from dompoly.complexroots import find_roots
from dompoly.errors import NonConvergenceError
from dompoly.formulas import FAMILIES, _index_from_1, build_family, closed_form, poly_join, poly_H
from dompoly.graphs import FamilySpec, join, to_edge_list
from dompoly.polynomials import Poly
from dompoly.realroots import certify_cg

from conftest import random_graph, run_fresh


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_friendship_2(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "friendship:2")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["0", "1", "8", "10", "5", "1"]

    def test_cocktail_with_oracle(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "cocktail_party:2", "--oracle")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["0", "0", "6", "4", "1"]

    def test_edge_list_k3(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, "compute", "--edge-list", str(path))
        assert code == 0
        assert json.loads(out)["coeffs"] == ["0", "3", "3", "1"]

    def test_range_emits_array(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "complete:1..3")
        assert code == 0
        records = json.loads(out)
        assert [r["params"] for r in records] == [[1], [2], [3]]

    def test_oracle_mismatch_is_integrity_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "closed_form", lambda spec: Poly([0, 9, 9]))
        code, _, err = run(capsys, "compute", "--family", "cocktail_party:2", "--oracle")
        assert code == 4
        assert "integrity" in err

    def test_wrong_parameter_count_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "complete:1,2")
        assert code == 1
        assert err == "error: complete takes 1 parameter(s), got 2\n"

    def test_capacity_exit_code(self, capsys, tmp_path):
        # the 82-vertex join H_20+B_20 exceeds the frontier budget under every order
        h, b = (build_family(FamilySpec(name, (20,))) for name in ("h_witness", "book"))
        path = tmp_path / "big.txt"
        path.write_text(to_edge_list(join(h, b)))
        code, _, err = run(capsys, "compute", "--edge-list", str(path))
        assert code == 2
        assert "capacity" in err and "state budget" in err

    def test_small_graph_past_the_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        # no vertex count is small enough to be counted some other way
        monkeypatch.setattr(enumeration, "STATE_BUDGET", 4)
        path = tmp_path / "g14.txt"
        path.write_text(to_edge_list(random_graph(14, random.Random(4), 0.3)))
        code, out, err = run(capsys, "compute", "--edge-list", str(path))
        assert code == 2 and out == ""
        assert re.fullmatch(r"capacity error: 14 vertices: [^\n]*state budget[^\n]*\n", err)

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_running_out_of_memory_exits_2(self, tmp_path):
        # (1 + x)**3000000 takes far more than 256 MiB of address space
        import resource

        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        argv = ["-m", "dompoly.cli", "compute", "--family", "complete:3000000"]
        proc = run_fresh(argv, tmp_path, preexec_fn=cap)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr == b"capacity error: memory ran out\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "compute", "--family", "friendship:1", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["coeffs"] == ["0", "3", "3", "1"]


# An edge-list file stem can hold any character, lone surrogates included.
_labels = st.text(
    st.characters(blacklist_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "€", "😀", "\ud800", "\udfff"])
)
_coefficients = st.integers() | st.builds(
    lambda digits, lead: lead * 10**digits + 7, st.integers(1000, 4000), st.integers(-9, 9)
)
_instances = st.tuples(
    _labels,
    st.lists(st.integers(0, 10**6), max_size=3).map(tuple),
    st.lists(_coefficients, max_size=8).map(Poly),
)


class TestComputeWriter:
    """The compute output is byte for byte what ``json.dumps(payload,
    indent=2)`` gives, on the running interpreter."""

    @staticmethod
    def reference(instances):
        records = [
            {"family": label, "params": list(params), "coeffs": [str(c) for c in p.coeffs]}
            for label, params, p in instances
        ]
        return json.dumps(records[0] if len(records) == 1 else records, indent=2)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_instances, max_size=4))
    @example([("F", (2,), Poly([0, 1, 8, 10, 5, 1]))])
    @example([('a"b\\c\x01\u00e9\ud800', (), Poly())])
    @example([("x", (3, 5), Poly([-(10**3000) - 1])), ("", (1,), Poly([0, 0, -2]))])
    @example([])
    def test_matches_json_dumps_indent_2(self, instances):
        assert cli._compute_json(instances) == self.reference(instances)

    def test_coefficient_beyond_the_int_digit_limit(self, capsys, monkeypatch):
        # 5,000 digits, past the 4,300 that Python converts by default: the
        # writer lifts the limit while it runs and restores it afterwards
        instances = [("big", (1,), Poly([7, -(10**4999) - 3]))]
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            want = self.reference(instances)
            sys.set_int_max_str_digits(4300)
            assert cli._compute_json(instances) == want
            assert sys.get_int_max_str_digits() == 4300
            monkeypatch.setattr(cli, "_instances", lambda args: instances)
            code, out, _ = run(capsys, "compute", "--family", "complete:1")
            assert (code, out) == (0, want + "\n")
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(default)
        assert len(json.loads(want)["coeffs"][1]) == 5001  # the sign and 5,000 digits


class TestCertify:
    def test_sweep_summary(self, capsys):
        code, out, _ = run(capsys, "certify", "--family", "cocktail_party:1..10")
        assert code == 0
        lines = out.strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert rows[-1] == {"all_in_cg": True}
        assert [r["n"] for r in rows[:-1]] == list(range(1, 11))
        assert all(r["in_cg"] for r in rows[:-1])
        assert all(r["gamma"] == 2 for r in rows[:-1])

    def test_parity_filter(self, capsys):
        code, out, _ = run(capsys, "certify", "--family", "friendship:1..9", "--odd-only")
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["n"] for r in rows[:-1]] == [1, 3, 5, 7, 9]
        assert rows[-1] == {"all_in_cg": True}

    def test_join_mode_matches_library(self, capsys):
        code, out, _ = run(capsys, "certify", "--join", "H:n,H:n", "--range", "3..6")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert rows[-1] == {"all_in_cg": True}
        for row in rows[:-1]:
            n = row["n"]
            p = poly_join(poly_H(n), poly_H(n))
            assert row["in_cg"] == certify_cg(p).in_cg

    def test_join_offset_operand(self, capsys):
        code, out, _ = run(capsys, "certify", "--join", "B:n+1,B:n", "--range", "2..4", "--even-only")
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["n"] for r in rows[:-1]] == [2, 4]
        assert rows[-1] == {"all_in_cg": True}

    @pytest.mark.parametrize(
        "name, operand",
        [(f.name, key) for f in FAMILIES.values() if f.closed_form for key in (f.name, f.alias)],
    )
    def test_every_closed_form_family_is_a_join_operand(self, capsys, name, operand):
        code, out, _ = run(
            capsys, "certify", "--join", f"{operand}:n,{operand}:n+1", "--range", "1..4"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")][:-1]
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        for row in rows:
            a, b = FamilySpec(name, (row["n"],)), FamilySpec(name, (row["n"] + 1,))
            cert = certify_cg(poly_join(closed_form(a), closed_form(b)))
            assert row["gamma"] == cert.gamma
            assert row["nonzero_real_root_count"] == cert.nonzero_real_root_count
            assert row["in_cg"] == cert.in_cg
            assert row["evidence"] == {"witnesses": cert.evidence["witnesses"]}
            assert len(row["evidence"]["witnesses"]) == cert.nonzero_real_root_count

    def test_join_requires_range(self, capsys):
        code, _, err = run(capsys, "certify", "--join", "H:n,H:n")
        assert code == 1 and "range" in err

    def test_edge_list_instance(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "certify", "--edge-list", str(path))
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert rows[0]["in_cg"] is False
        assert rows[-1] == {"all_in_cg": False}


class TestSweep:
    def test_csv_table(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "cocktail_party:1..5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family,n,gamma,nonzero_real_root_count,in_cg"
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])
        assert "all_in_cg: true" in err


class TestRoots:
    def test_csv_values(self, capsys):
        code, out, _ = run(capsys, "roots", "--family", "complement_friendship:2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family,n,re,im,residual"
        assert len(lines) == 3
        for line in lines[1:]:
            _, n, re, im, residual = line.split(",")
            assert n == "2"
            assert abs(float(re) + 2.0) < 1e-10
            assert abs(abs(float(im)) - 2**0.5) < 1e-10
            assert float(residual) < 1e-10

    def test_row_counts_are_2n_minus_2(self, capsys):
        code, out, _ = run(capsys, "roots", "--family", "complement_friendship:1..6")
        lines = out.strip().split("\n")[1:]
        by_n = {}
        for line in lines:
            n = int(line.split(",")[1])
            by_n[n] = by_n.get(n, 0) + 1
        assert by_n == {n: 2 * n - 2 for n in range(2, 7)}

    def test_tolerance_window(self, capsys):
        code, _, err = run(capsys, "roots", "--family", "complete:3", "--tol", "1e-20")
        assert code == 1 and "tol" in err
        code, _, err = run(capsys, "roots", "--family", "complete:3", "--tol", "1e-3")
        assert code == 1 and "tol" in err

    @pytest.mark.parametrize("command", ["roots", "plot"])
    def test_nan_tolerance_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, command, "--family", "friendship:3", "--tol", "nan")
        assert code == 1 and "--tol" in err and out == ""

    def test_non_convergence_exit(self, capsys):
        code, _, err = run(
            capsys, "roots", "--family", "complement_friendship:11..12", "--max-iter", "2"
        )
        assert code == 3 and "solver" in err
        # every failed instance is listed with its largest final correction
        listed = re.findall(r"complement_friendship:(\d+) \(max correction ([0-9.e+-]+)\)", err)
        assert [n for n, _ in listed] == ["11", "12"]
        assert all(float(c) > 0 for _, c in listed)

    def test_residual_gate_refusal_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            complexroots, "_final_residuals", lambda basis, shift, z, *rest: np.ones(len(z))
        )
        code, out, err = run(capsys, "roots", "--family", "friendship:3")
        assert code == 3 and out == ""
        # the gate's worst residual is the instance's reported correction
        assert "friendship:3 (max correction 1.000e+00)" in err

    def test_non_convergence_keeps_first_failure(self):
        args = cli.build_parser().parse_args(
            ["roots", "--family", "complement_friendship:11..12", "--max-iter", "2"]
        )
        with pytest.raises(NonConvergenceError) as info:
            cli._root_entries(args)
        first = info.value.__cause__
        assert isinstance(first, NonConvergenceError)
        assert len(first.roots) == 2 * 11 - 2 and first.max_correction > 0


class TestCsvLabels:
    """An edge-list label is its file stem, which may hold the CSV delimiter,
    the quote or a line break: roots and sweep quote it, and every row reads
    back as five fields."""

    @pytest.mark.parametrize("stem", ['g,"x', 'a"b', "two\nlines,", "a\rb", "plain"])
    def test_rows_read_back_with_csv_reader(self, capsys, tmp_path, stem):
        path = tmp_path / f"{stem}.txt"
        path.write_text("3 2\n0 1\n1 2\n")  # the path P3: x + 3x^2 + x^3
        for command, count in (("roots", 2), ("sweep", 1)):
            code, out, _ = run(capsys, command, "--edge-list", str(path))
            assert code == 0
            header, *rows = csv.reader(io.StringIO(out))
            assert len(header) == 5 and len(rows) == count
            assert all(len(row) == 5 and row[:2] == [stem, "3"] for row in rows)
            assert out.startswith(",".join(header) + "\n")
        # a plain label is written unquoted, as before
        if stem == "plain":
            assert out.split("\n")[1] == "plain,3,1,2,false"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.text(
            st.characters(blacklist_categories=(), blacklist_characters="\x00")
            | st.sampled_from([",", '"', "\r", "\n", "é", "€", "😀"])
        )
    )
    @example("a\rb")
    @example('"\r\n,')
    def test_any_label_reads_back(self, label):
        # the path P3 again, under any label: csv.writer's bytes where the
        # label has no carriage return, and one row per root read back
        p = Poly([0, 1, 3, 1])
        tables = {
            "roots": [["family", "n", "re", "im", "residual"]]
            + [[label, 3, repr(re), repr(im), repr(r)] for re, im, r in find_roots(p).roots],
            "sweep": [["family", "n", "gamma", "nonzero_real_root_count", "in_cg"]]
            + [[label, 3, 1, 2, "false"]],
        }
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_instances", lambda args: [(label, (3,), p)])
            for command, table in tables.items():
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    with contextlib.redirect_stderr(io.StringIO()):
                        assert cli.main([command, "--family", "path:3"]) == 0
                text = out.getvalue()
                if "\r" not in label:
                    want = io.StringIO()
                    csv.writer(want, lineterminator="\n").writerows(table)
                    assert text == want.getvalue()
                header, *rows = csv.reader(io.StringIO(text, newline=""))
                assert header == table[0] and len(rows) == len(table) - 1
                assert all(row[:2] == [label, "3"] for row in rows)


class TestEdgeListEncoding:
    """A file that a Windows editor saved, with a UTF-8 byte-order mark and
    CRLF line ends, reads as the plain file does."""

    @pytest.mark.parametrize("command", ["compute", "certify", "roots"])
    def test_bom_and_crlf(self, capsys, tmp_path, command):
        outputs = []
        plain, windows = b"3 2\n0 1\n1 2\n", b"\xef\xbb\xbf3 2\r\n0 1\r\n1 2\r\n"
        for name, data in (("plain", plain), ("windows", windows)):
            path = tmp_path / name / "p3.txt"
            path.parent.mkdir()
            path.write_bytes(data)
            code, out, err = run(capsys, command, "--edge-list", str(path))
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_ascii_digits_only(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("12 1\n1_0 2\n")
        code, out, err = run(capsys, "certify", "--edge-list", str(path))
        assert code == 1 and out == ""
        assert "line 2: expected integer endpoints" in err


class TestUndecodableFileName:
    """An edge-list file name that is not UTF-8 labels its instance with
    U+FFFD in place of each bad byte: every output is UTF-8, and --out holds
    the bytes that stdout gets."""

    @pytest.mark.parametrize("command", ["compute", "certify", "sweep", "roots", "plot"])
    def test_every_subcommand(self, monkeypatch, tmp_path, command):
        path = tmp_path / os.fsdecode(b"g\xff.txt")
        try:
            path.write_text("3 2\n0 1\n1 2\n")  # the path P3
        except (OSError, UnicodeError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main([command, "--edge-list", str(path)]) == 0
        stdout.flush()
        data = stdout.buffer.getvalue()
        target = tmp_path / "out"
        assert cli.main([command, "--edge-list", str(path), "--out", str(target)]) == 0
        assert target.read_bytes() == data
        text = data.decode("utf-8")
        if command == "compute":
            assert json.loads(text)["family"] == "g\ufffd"
        elif command == "certify":
            assert json.loads(text.splitlines()[0])["family"] == "g\ufffd"
        elif command == "plot":
            root = ET.fromstring(data)
            titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
            assert "g\ufffd roots (n=3..3)" in titles
        else:
            assert all(row[0] == "g\ufffd" for row in list(csv.reader(io.StringIO(text)))[1:])


class TestPlot:
    def test_svg_output_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        code1, _, _ = run(
            capsys, "plot", "--family", "complement_friendship:1..6", "--circle", "--out", str(a)
        )
        code2, _, _ = run(
            capsys, "plot", "--family", "complement_friendship:1..6", "--circle", "--out", str(b)
        )
        assert code1 == code2 == 0
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert data.startswith(b"<svg")
        assert b"<ellipse" in data  # the --circle overlay
        assert data.count(b"<circle") == sum(2 * n - 2 for n in range(2, 7))

    def test_without_circle_overlay(self, capsys, tmp_path):
        out = tmp_path / "plain.svg"
        run(capsys, "plot", "--family", "complement_friendship:2..4", "--out", str(out))
        assert b"<ellipse" not in out.read_bytes()

    def test_title_is_xml_escaped(self, capsys, tmp_path):
        path = tmp_path / "a&b.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        out = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "plot", "--edge-list", str(path), "--out", str(out))
        assert code == 0
        root = ET.parse(out).getroot()
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b roots (n=3..3)" in titles

    @pytest.mark.parametrize("control", ["\x01", "\x1b"])
    def test_title_control_character_is_replaced(self, capsys, tmp_path, control):
        # XML 1.0 has no escape for most C0 controls: the SVG would not parse
        path = tmp_path / f"a{control}b.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        out = tmp_path / "f.svg"
        code, _, _ = run(capsys, "plot", "--edge-list", str(path), "--out", str(out))
        assert code == 0
        root = ET.parse(out).getroot()
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a\ufffdb roots (n=3..3)" in titles

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.text(st.characters(blacklist_categories=())))
    @example("\x00\t\n\r\x1f \ud7ff\ud800\udfff\ue000\ufffd\ufffe\uffff\U00010000\U0010ffff")
    @example("&<>\"'&amp;")
    def test_title_text_matches_a_regex_and_html_escape(self, title):
        """plotting._xml_text gives what the regex over XML 1.0's Char ranges
        and html.escape gave before it was written out."""
        not_xml = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
        assert plotting._xml_text(title) == html.escape(not_xml.sub("\ufffd", title), quote=False)

    def test_empty_graph_plots_without_roots(self, capsys, tmp_path):
        # D(P_0) = 1 and D(P_1) = x have no nonzero root, D(P_2) one, D(P_3) two
        out = tmp_path / "f.svg"
        code, _, _ = run(capsys, "plot", "--family", "path:0..3", "--out", str(out))
        assert code == 0
        root = ET.parse(out).getroot()
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "path roots (n=0..3)" in titles
        assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == 3


class TestUsageErrors:
    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 1
        code, _, err = run(
            capsys, "certify", "--family", "complete:3", "--join", "H:n,H:n", "--range", "1..2"
        )
        assert code == 1

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "nonsense:3")
        assert code == 1

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "certify", "--family", "complete:5..2")
        assert code == 1

    @pytest.mark.parametrize(
        "family, message",
        [
            ("bogus:1..1000000000000", "unknown family 'bogus'"),
            ("friendship:0..1000000000000", "friendship index must be at least 1"),
        ],
    )
    def test_huge_range_fails_on_its_first_instance(self, capsys, family, message):
        # ranges stay lazy, so the first bad instance ends the run at once
        code, out, err = run(capsys, "compute", "--family", family)
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("lo, hi", [(1, 9), (2, 9), (-3, 4), (-4, 3), (5, 5), (6, 6)])
    def test_parity_slices_match_filters(self, lo, hi):
        values = range(lo, hi + 1)
        for odd_only, even_only, keep in ((True, False, 1), (False, True, 0)):
            expected = [v for v in values if v % 2 == keep]
            if expected:
                assert list(cli._apply_parity(values, odd_only, even_only)) == expected
            else:
                with pytest.raises(ValueError, match="no instances left"):
                    cli._apply_parity(values, odd_only, even_only)

    def test_conflicting_parity_flags(self, capsys):
        code, _, err = run(
            capsys, "certify", "--family", "complete:1..4", "--odd-only", "--even-only"
        )
        assert code == 1

    def test_bad_join_operand(self, capsys):
        code, _, err = run(capsys, "certify", "--join", "Z:n,H:n", "--range", "1..2")
        assert code == 1

    @pytest.mark.parametrize(
        "name, operand",
        [(f.name, key) for f in FAMILIES.values() if f.bounds is _index_from_1
         for key in (f.name, f.alias)],
    )
    def test_join_index_error_names_the_family(self, capsys, name, operand):
        # complement_friendship's closed form is built on cocktail_party's
        via_join = run(capsys, "certify", "--join", f"{operand}:n,F:n", "--range", "0..0")
        via_family = run(capsys, "compute", "--family", f"{name}:0")
        assert via_join == via_family
        assert via_join[:2] == (1, "") and f"{name} index must be at least 1" in via_join[2]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "--family", "path:x"], "bad integer 'x'"),
            (["certify", "--join", "H:n+x,B:n", "--range", "1..2"], "bad operand index 'n+x'"),
            # int() reads these; the command line takes ASCII decimal digits only
            (["compute", "--family", "friendship:1_0"], "bad integer '1_0'"),
            (["compute", "--family", "friendship:+2"], "bad integer '+2'"),
            (["compute", "--family", "friendship:2..1_0"], "bad range '2..1_0'"),
            (["compute", "--family", "k_star:1_0,12"], "non-integer parameter in 'k_star:1_0,12'"),
            (["certify", "--join", "H:n,H:n", "--range", "\u0663..3"], "bad range '\u0663..3'"),
            (["certify", "--join", "H:n,H:n", "--range", "\uff13"], "bad integer '\uff13'"),
            (["certify", "--join", "H:n+1_0,B:n", "--range", "3"], "bad operand index 'n+1_0'"),
            (["sweep", "--join", "H:n,B:+3", "--range", "3"], "bad operand index '+3'"),
            (["roots", "--family", "path:3", "--max-iter", "1_0"], "invalid int value: '1_0'"),
            (["roots", "--family", "path:3", "--max-iter", "\u0663"], "invalid int value: '\u0663'"),
            (["plot", "--family", "path:3", "--max-iter", "\uff13"], "invalid int value: '\uff13'"),
            (["roots", "--family", "path:3", "--tol", "1_0e-12"], "invalid float value: '1_0e-12'"),
            (["roots", "--family", "path:3", "--tol", "\uff11e-12"], "invalid float value: '\uff11e-12'"),
            (["plot", "--family", "path:3", "--tol", " 1e-12"], "invalid float value: ' 1e-12'"),
        ],
    )
    def test_non_integer_indices_are_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "--bogus"], "unrecognized arguments: --bogus"),
            (["roots", "--family", "path:3", "--tol", "abc"], "invalid float value: 'abc'"),
            (["roots", "--family", "path:3", "--max-iter", "1.5"], "invalid int value: '1.5'"),
            (["bogus"], "invalid choice: 'bogus'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["unknown-option", "bad-tol", "bad-max-iter", "unknown-subcommand", "no-subcommand"],
    )
    def test_argparse_errors_return_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify", "--family", "path:3", "--range", "1..5"], "--range applies only to --join"),
            (["sweep", "--family", "path:3..4", "--range", "1..5"], "--range applies only to --join"),
            (["certify", "--edge-list", "g.txt", "--odd-only"], "do not apply to --edge-list"),
            (["roots", "--edge-list", "g.txt", "--even-only"], "do not apply to --edge-list"),
            (["compute", "--edge-list", "g.txt", "--oracle"], "--oracle does not apply"),
        ],
    )
    def test_ignored_options_are_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err

    def test_process_exit_status_of_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["dompoly", "compute", "--bogus"])
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [["--help"], ["roots", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dompoly")
