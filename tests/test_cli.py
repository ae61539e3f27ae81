import json
import shutil
from pathlib import Path

import pytest

from mdsrepair import bundled
from mdsrepair.bundled import bundled_code, bundled_scheme_dir, load_scheme
from mdsrepair.cli import main
from mdsrepair.repair import SubpacketizationSpec, gamma_ranks
from mdsrepair.search import SearchConfig, exhaustive_search


# values that repr to long text: an array nested 900 deep, a long string
NESTED = "[" * 900 + "0" + "]" * 900
LONG = json.dumps("x" * 100_000)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def code_file(tmp_path, name, file_name="code.json"):
    """The rs53 code written to a file under another name (None: nameless)."""
    p = tmp_path / file_name
    p.write_text(json.dumps({**bundled_code("rs53").to_json(), "name": name}))
    return str(p)


def duplicate_dir(tmp_path):
    """A scheme directory holding the rs53 node 1 scheme twice."""
    d = tmp_path / "dup"
    d.mkdir()
    text = Path(bundled_scheme_dir("rs53"), "node1.json").read_text()
    for name in ("node1.json", "node2.json"):
        (d / name).write_text(text)
    return str(d)


def refuses_duplicate(code, out, err):
    return (code == 2 and out == "" and one_error_line(err)
            and "node1.json and" in err and "node2.json" in err
            and "node 1" in err)


class TestVerify:
    def test_bundled_scheme(self, capsys):
        path = bundled_scheme_dir("rs53") + "/node1.json"
        code, out, _ = run(capsys, "verify", "--code", "rs53", "--scheme", path)
        assert code == 0
        assert "total 10 / naive 12 / cutset 8" in out
        assert "FEASIBLE" in out
        assert "replay: mdsrepair verify" in out

    def test_directory_mean(self, capsys):
        code, out, _ = run(capsys, "verify", "--code", "fb1410",
                           "--scheme", bundled_scheme_dir("fb1410"))
        assert code == 0
        assert "mean over 10 schemes: 64.2 bits" in out

    def test_duplicate_node_exit_2(self, capsys, tmp_path):
        assert refuses_duplicate(*run(capsys, "verify", "--code", "rs53",
                                      "--scheme", duplicate_dir(tmp_path)))

    def test_infeasible_exit_1(self, capsys, tmp_path):
        scheme = {"code": "rs53", "s": 1, "failed": 1,
                  "elements": [[0, 0], [0, 0]]}
        p = tmp_path / "bad_scheme.json"
        p.write_text(json.dumps(scheme))
        code, out, _ = run(capsys, "verify", "--code", "rs53", "--scheme", str(p))
        assert code == 1
        assert "INFEASIBLE" in out

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"not json')
        code, _, err = run(capsys, "verify", "--code", "rs53", "--scheme", str(p))
        assert code == 2
        assert "invalid JSON" in err

    def test_wrong_dimensions_exit_2(self, capsys, tmp_path):
        scheme = {"code": "rs53", "s": 1, "failed": 1, "elements": [[0], [0]]}
        p = tmp_path / "dims.json"
        p.write_text(json.dumps(scheme))
        code, _, err = run(capsys, "verify", "--code", "rs53", "--scheme", str(p))
        assert code == 2

    def test_inline_code_mismatch_exit_2(self, capsys, tmp_path):
        # an rs64 scheme carrying its code inline is not an rs53 scheme
        scheme = json.loads(Path(bundled_scheme_dir("rs64"), "node1.json").read_text())
        scheme["code"] = bundled_code("rs64").to_json()
        p = tmp_path / "inline.json"
        p.write_text(json.dumps(scheme))
        code, _, err = run(capsys, "verify", "--code", "rs53", "--scheme", str(p))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_inline_code_match_ignores_name(self, capsys, tmp_path):
        scheme = json.loads(Path(bundled_scheme_dir("rs53"), "node1.json").read_text())
        scheme["code"] = {**bundled_code("rs53").to_json(), "name": "mine"}
        p = tmp_path / "inline.json"
        p.write_text(json.dumps(scheme))
        code, out, _ = run(capsys, "verify", "--code", "rs53", "--scheme", str(p))
        assert code == 0
        assert "total 10 / naive 12 / cutset 8" in out

    def test_nameless_code_checks_scheme_code(self, capsys, tmp_path):
        # an rs64 scheme is not scored as an rs53 one, named or not
        code, _, err = run(capsys, "verify", "--code", code_file(tmp_path, None),
                           "--scheme", bundled_scheme_dir("rs64") + "/node1.json")
        assert code == 2
        assert one_error_line(err)

    def test_bundled_name_matches_by_structure(self, capsys, tmp_path):
        # a scheme naming "rs53" fits any code file that is rs53 in all but name
        code, out, _ = run(capsys, "verify", "--code", code_file(tmp_path, "mine"),
                           "--scheme", bundled_scheme_dir("rs53") + "/node1.json")
        assert code == 0
        assert "total 10 / naive 12 / cutset 8" in out

    def test_json_payload(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        path = bundled_scheme_dir("rs53") + "/node2.json"
        code, _, _ = run(capsys, "verify", "--code", "rs53", "--scheme", path,
                         "--out", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["manifest"]["command"] == "verify"
        assert payload["reports"][0]["total_bw"] == 10
        assert payload["reports"][0]["gammas"] == [3, 4, 3]


class TestClique:
    def test_64(self, capsys):
        code, out, _ = run(capsys, "clique", "--code", "rs64", "--json")
        assert code == 0
        assert "cliques: {1,4} {2} {3}" in out
        payload = json.loads(out[out.index("{\n"):])
        bounds = [row["bound"] for row in payload["nodes"]]
        assert bounds == [7, 6, 6, 7]
        mus = [row["mu"] for row in payload["nodes"]]
        assert mus == ["z^11", "z^3", "z^3", "z^11"]

    def test_53_degenerate(self, capsys):
        code, out, _ = run(capsys, "clique", "--code", "rs53")
        assert code == 0
        assert "no gain over naive" in out

    def test_not_two_parity_exit_2(self, capsys):
        code, _, err = run(capsys, "clique", "--code", "fb1410")
        assert code == 2
        assert "parities" in err


class TestStrictIntegers:
    # non-integer numbers are refused with exit 2 and one error line,
    # never truncated
    @pytest.mark.parametrize("field, value", [("k", 4.0), ("n", 6.0)])
    @pytest.mark.parametrize("command", [["clique"], ["search", "--node", "1"]])
    def test_code_file(self, capsys, tmp_path, command, field, value):
        obj = bundled_code("rs64").to_json()
        obj[field] = value
        p = tmp_path / "code.json"
        p.write_text(json.dumps(obj))
        code, _, err = run(capsys, command[0], "--code", str(p), *command[1:],
                           "--out", str(tmp_path / "out.json"))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_zero_characteristic(self, capsys, tmp_path):
        obj = bundled_code("rs64").to_json()
        obj["field"]["p"] = 0
        p = tmp_path / "code.json"
        p.write_text(json.dumps(obj))
        code, _, err = run(capsys, "clique", "--code", str(p))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_huge_characteristic(self, capsys, tmp_path):
        # p = 2^61 - 1 is refused by field size, not trial-divided
        obj = bundled_code("rs64").to_json()
        obj["field"] = {"p": 2 ** 61 - 1, "poly": [1, 1]}
        p = tmp_path / "code.json"
        p.write_text(json.dumps(obj))
        code, _, err = run(capsys, "clique", "--code", str(p))
        assert code == 2
        assert one_error_line(err) and "exceeds" in err

    @pytest.mark.parametrize("change", [{"elements": [[10.7, 0], [0, 0]]},
                                        {"s": True}, {"failed": "1"},
                                        {"code": 5}])
    def test_scheme_file(self, capsys, tmp_path, change):
        scheme = {"code": "rs53", "s": 1, "failed": 1,
                  "elements": [[0, 0], [0, 0]], **change}
        p = tmp_path / "scheme.json"
        p.write_text(json.dumps(scheme))
        code, _, err = run(capsys, "verify", "--code", "rs53", "--scheme", str(p))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestSearch:
    def test_exhaustive_roundtrip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "search", "--code", "rs53", "--node", "2")
        assert code == 0
        assert "proven optimal: True" in out
        assert "total 10" in out
        written = tmp_path / "best_rs53_node2.json"
        assert written.exists()
        code, out, _ = run(capsys, "verify", "--code", "rs53",
                           "--scheme", str(written))
        assert code == 0
        assert "total 10" in out

    def test_random_deterministic(self, capsys, tmp_path):
        args = ("search", "--code", "fb1410", "--node", "1", "--mode", "random",
                "--samples", "300", "--seed", "5",
                "--out", str(tmp_path / "s.json"))
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_json_payload(self, capsys, tmp_path):
        # the payload agrees with the written scheme file, re-scored
        out_file = tmp_path / "best.json"
        code, out, _ = run(capsys, "search", "--code", "rs53", "--node", "2",
                           "--json", "--out", str(out_file))
        assert code == 0
        payload = json.loads(out[out.index("{\n"):])
        assert payload["manifest"]["outputs"]["scheme"] == str(out_file)
        assert "normalize_first" not in payload["manifest"]["inputs"]
        written = json.loads(out_file.read_text())
        assert payload["best_elements"] == written["elements"]
        report = gamma_ranks(load_scheme(str(out_file), bundled_code("rs53")))
        assert report.feasible and report.failed == 2
        assert payload["report"]["gammas"] == list(report.gammas)
        assert payload["report"]["total_bits"] == report.total_bits == 10
        sub = SubpacketizationSpec(bundled_code("rs53"), 1)
        exhaustive = exhaustive_search(SearchConfig(sub, 2))
        assert payload["feasible"] == exhaustive.feasible
        assert payload["evaluated"] == exhaustive.evaluated == 15 ** 3

    def test_non_string_code_name_exit_2(self, capsys, tmp_path):
        # a name that is not a string would be written as an unreadable
        # "code" entry of the scheme file
        out_file = tmp_path / "w.json"
        code, out, err = run(capsys, "search", "--code", code_file(tmp_path, {"n": 5}),
                             "--node", "1", "--out", str(out_file))
        assert code == 2 and out == ""
        assert one_error_line(err) and "name" in err
        assert not out_file.exists()

    def test_exhaustive_cap_exit_2(self, capsys):
        code, _, err = run(capsys, "search", "--code", "fb1410", "--node", "1")
        assert code == 2
        assert "exceed" in err

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        # seed -5 would silently replay seed 5 while the manifest said -5
        out_file = tmp_path / "s.json"
        code, out, err = run(capsys, "search", "--code", "fb1410", "--node", "2",
                             "--mode", "random", "--samples", "300", "--seed", "-5",
                             "--out", str(out_file))
        assert code == 2 and out == ""
        assert one_error_line(err) and "seed" in err
        assert not out_file.exists()

    def test_long_name_default_out_is_cut(self, capsys, tmp_path, monkeypatch):
        path = code_file(tmp_path, "x" * 300)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "search", "--code", path, "--node", "1")
        written = f"best_{'x' * 40}_node1.json"
        assert code == 0 and err == ""
        assert out.endswith(f"best scheme written to {written}\n")
        assert json.loads((tmp_path / written).read_text())["code"] == "x" * 300

    @pytest.mark.parametrize("name, written", [
        ("..", "best_.._node1.json"), ("../up", "best_.._up_node1.json"),
        ("a/b", "best_a_b_node1.json"), ("/abs\\x y", "best__abs_x_y_node1.json")])
    def test_default_out_in_working_directory(self, capsys, tmp_path, monkeypatch,
                                              name, written):
        path = code_file(tmp_path, name)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, _ = run(capsys, "search", "--code", path, "--node", "1")
        assert code == 0 and out.endswith(f"best scheme written to {written}\n")
        assert [p.name for p in work.iterdir()] == [written]

    def test_missing_out_directory_exit_2_before_search(self, capsys, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "search", "--code", "rs53", "--node", "1",
                             "--out", "nodir/x.json")
        assert code == 2 and "searched" not in out and out == ""
        assert err == "error: [Errno 2] No such file or directory: 'nodir/x.json'\n"
        assert list(tmp_path.iterdir()) == []


class TestOddCharacteristic:
    """RS(6,4) over GF(3^4), from a code file, through the whole CLI."""

    @pytest.fixture
    def code(self, tmp_path, rs64_gf81):
        p = tmp_path / "gf81.json"
        p.write_text(json.dumps(rs64_gf81.to_json()))
        return str(p)

    def test_clique(self, capsys, code):
        status, out, _ = run(capsys, "clique", "--code", code, "--json")
        assert status == 0
        payload = json.loads(out[out.index("{\n"):])
        assert payload["cliques"] == [[1], [2, 3], [4]]
        assert [row["bound"] for row in payload["nodes"]] == [6, 7, 7, 6]

    def test_exhaustive_meets_clique_bound_and_verifies(self, capsys, tmp_path, code):
        for node, bound in zip(range(1, 5), (6, 7, 7, 6)):
            scheme = str(tmp_path / f"node{node}.json")
            status, out, _ = run(capsys, "search", "--code", code, "--node", str(node),
                                 "--mode", "exhaustive", "-s", "2", "--out", scheme,
                                 "--json")
            assert status == 0
            found = json.loads(out[out.index("{\n"):])["report"]
            assert found["total_bw"] == bound
            status, out, _ = run(capsys, "verify", "--code", code, "--scheme", scheme,
                                 "--json")
            assert status == 0
            checked = json.loads(out[out.index("{\n"):])["reports"][0]
            assert checked["total_bits"] == found["total_bits"]

    def test_random_deterministic(self, capsys, tmp_path, code):
        args = ("search", "--code", code, "--node", "2", "--mode", "random",
                "--samples", "3000", "--seed", "7", "--out", str(tmp_path / "s.json"))
        status, out1, _ = run(capsys, *args)
        assert status == 0 and "proven optimal: False" in out1
        assert run(capsys, *args) == (0, out1, "")


class TestReport:
    def test_fb_footer(self, capsys):
        code, out, _ = run(capsys, "report", "--code", "fb1410")
        assert code == 0
        assert "| 5 |" in out
        assert "mean 64.2 bits, 19.75% saved vs naive 80" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "report", "--code", "fb1410",
                           "--format", "csv")
        assert code == 0
        assert "node,elements,bandwidth_bits" in out
        assert "5,z^46 z^213 z^86 z^151 z^28 z^169 z^69 z^146,63" in out

    def test_64_partial_rows(self, capsys):
        code, out, _ = run(capsys, "report", "--code", "rs64")
        assert code == 0
        assert "| 1 |" in out and "| 4 |" in out
        assert "no schemes for nodes 2, 3" in out

    def test_empty_dir_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--code", "rs53",
                           "--scheme-dir", str(tmp_path))
        assert code == 2
        assert "no node*.json" in err

    def test_duplicate_node_exit_2(self, capsys, tmp_path):
        assert refuses_duplicate(*run(capsys, "report", "--code", "rs53",
                                      "--scheme-dir", duplicate_dir(tmp_path)))

    def test_out_holds_table(self, capsys, tmp_path):
        out_file = tmp_path / "table.md"
        code, out, _ = run(capsys, "report", "--code", "rs53",
                           "--out", str(out_file))
        assert code == 0
        table = out_file.read_text()
        assert out == table + f"written to {out_file}\n"
        assert "| 3 |" in table and "mean 10 bits" in table

    def test_infeasible_scheme_exit_1(self, capsys, tmp_path):
        scheme_dir = tmp_path / "schemes"
        scheme_dir.mkdir()
        (scheme_dir / "node1.json").write_text(json.dumps(
            {"code": "rs53", "s": 1, "failed": 1, "elements": [[0, 0], [0, 0]]}))
        (scheme_dir / "node2.json").write_text(
            Path(bundled_scheme_dir("rs53"), "node2.json").read_text())
        code, out, err = run(capsys, "report", "--code", "rs53",
                             "--scheme-dir", str(scheme_dir))
        assert code == 1
        assert one_error_line(err)
        assert "node1.json" in err and "node 1" in err
        assert "saved" not in out


class TestUnreadableInput:
    # files that cannot be read or written, and a nameless code with no
    # scheme directory, exit 2 with one error line
    @pytest.mark.parametrize("argv", [
        ["verify", "--code", "{dir}", "--scheme", "x"],
        ["verify", "--code", "rs53", "--scheme",
         bundled_scheme_dir("rs53") + "/node1.json", "--out", "{dir}"],
        ["clique", "--code", "rs64", "--out", "{dir}"],
        ["search", "--code", "rs53", "--node", "1", "--out", "{dir}"],
        ["report", "--code", "rs53", "--out", "{dir}"],
        ["report", "--code", "{nameless}"],
    ], ids=["verify-code", "verify-out", "clique-out", "search-out", "report-out",
            "report-nameless"])
    def test_exit_2(self, capsys, tmp_path, argv):
        paths = {"dir": str(tmp_path), "nameless": code_file(tmp_path, None)}
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert one_error_line(err)

    @pytest.mark.parametrize("argv", [
        ["verify", "--code", "rs53", "--scheme", bundled_scheme_dir("rs53")],
        ["clique", "--code", "rs64"],
        ["search", "--code", "rs53", "--node", "1"],
        ["report", "--code", "fb1410"],
    ], ids=["verify", "clique", "search", "report"])
    def test_missing_out_directory_exit_2_before_output(self, capsys, tmp_path,
                                                        monkeypatch, argv):
        # the --out path is checked before the command prints anything
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--out", "nodir/x.json")
        assert code == 2 and out == "" and one_error_line(err)
        assert "nodir/x.json" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", [b"[" * 100_000 + b"]" * 100_000,
                                         b'{"name": "\xff"}',
                                         b'{"s": ' + b"1" * 5_000 + b"}"],
                             ids=["nested", "not-utf8", "long-int"])
    @pytest.mark.parametrize("flag", ["--code", "--scheme"])
    def test_bad_json_names_the_file(self, capsys, tmp_path, content, flag):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        argv = {"--code": ["--code", str(path), "--scheme", "x"],
                "--scheme": ["--code", "rs53", "--scheme", str(path)]}[flag]
        code, _, err = run(capsys, "verify", *argv)
        assert code == 2
        assert one_error_line(err) and str(path) in err

    @pytest.mark.parametrize("flag, key, value", [
        ("--code", "k", NESTED), ("--code", "name", NESTED), ("--code", "k", LONG),
        ("--code", "parity", NESTED), ("--scheme", "code", NESTED),
        ("--scheme", "code", LONG)],
        ids=["code-k-nested", "code-name-nested", "code-k-long", "code-element-nested",
             "scheme-code-nested", "scheme-code-long"])
    def test_quoted_values_are_cut(self, capsys, tmp_path, flag, key, value):
        # a value read from a file is quoted in the error line only in part
        if flag == "--code":
            obj = bundled_code("rs53").to_json()
        else:
            obj = json.loads(Path(bundled_scheme_dir("rs53"), "node1.json").read_text())
        if key == "parity":
            obj["parity"][0][0] = "@"
        else:
            obj[key] = "@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj).replace('"@"', value))
        argv = {"--code": ["--code", str(path), "--scheme", "x"],
                "--scheme": ["--code", "rs53", "--scheme", str(path)]}[flag]
        code, _, err = run(capsys, "verify", *argv)
        assert code == 2
        assert one_error_line(err) and len(err.encode()) < 200 and "..." in err

    def test_long_code_name_is_cut(self, capsys, tmp_path):
        # the code mismatch message quotes both codes, each by its name
        scheme = json.loads(Path(bundled_scheme_dir("rs53"), "node1.json").read_text())
        other = bundled_code("rs53").to_json()
        other["field"]["poly"] = [1, 0, 0, 1, 1]
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({**scheme, "code": other}))
        code, _, err = run(capsys, "verify", "--code", code_file(tmp_path, "x" * 100_000),
                           "--scheme", str(path))
        assert code == 2
        assert one_error_line(err) and len(err.encode()) < 300 and "..." in err
        assert "differ in field" in err

    @pytest.mark.parametrize("command", ["verify", "clique"])
    def test_long_code_name_cut_on_stdout(self, capsys, tmp_path, command):
        # the human-readable lines name the code cut to 60 characters; the
        # JSON payload keeps the name whole
        path = code_file(tmp_path, "x" * 100_000)
        argv = ["--code", path, "--json"]
        if command == "verify":
            argv += ["--scheme", str(Path(bundled_scheme_dir("rs53"), "node1.json"))]
        code, out, _ = run(capsys, command, *argv)
        assert code == 0
        first, rest = out.split("\n", 1)
        assert len(first.encode()) < 200 and "..." in first
        payload = json.loads(rest[rest.index("\n{") + 1:])
        if command == "verify":
            assert payload["reports"][0]["code"] == "x" * 100_000
        assert all(len(line) < 200 for line in rest[:rest.index("\n{")].splitlines())


class TestMisc:
    def test_list_codes(self, capsys):
        code, out, _ = run(capsys, "list-codes")
        assert code == 0
        for name in ("rs53", "rs64", "fb1410"):
            assert name in out

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "PASS: 0 failure(s)" in out
        assert "FAIL" not in out.replace("0 failure", "")

    def test_selftest_missing_bundled_file(self, capsys, tmp_path, monkeypatch):
        shutil.copytree(bundled._data(), tmp_path / "data")
        (tmp_path / "data" / "schemes" / "rs53" / "node2.json").unlink()
        monkeypatch.setattr(bundled, "_data", lambda: tmp_path / "data")
        code, out, err = run(capsys, "selftest")
        assert code == 1 and err == ""
        assert "FAIL rs53 node 2: feasible at 10 bits" in out
        assert "ok   rs53 node 3: feasible at 10 bits" in out
        assert "FAIL: 1 failure(s)" in out

    def test_unknown_code_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--code", "nope",
                           "--scheme", "x.json")
        assert code == 2
