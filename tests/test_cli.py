"""Tests for the command-line interface and its JSON report envelope."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from posgames.cli import SCHEMA_VERSION, main
from posgames.constructions import CONSTRUCTIONS
from posgames.core import load_hypergraph

_SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report_schema.json")
    .read_text(encoding="utf-8")
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_BUILTINS = ["g3", "gcp", "gamma", "gamma-prime", "g4"]


def _run_module(module, *argv):
    """``python -m module argv...`` in a child that finds ``src`` on its
    path, as the test process does."""
    path = [_SRC, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(out: str) -> dict:
    report = json.loads(out)
    jsonschema.validate(report, _SCHEMA)
    assert report["schema_version"] == SCHEMA_VERSION
    return report


def _gen(capsys, tmp_path, name: str, *extra) -> str:
    path = str(tmp_path / f"{name}.hg")
    code, out, err = _run(capsys, "gen", name, *extra, "-o", path)
    assert (code, out, err) == (0, "", "")
    return path


class TestGen:
    @pytest.mark.parametrize("name", _BUILTINS)
    def test_writes_commented_parseable_board(self, capsys, tmp_path, name):
        path = _gen(capsys, tmp_path, name)
        text = Path(path).read_text(encoding="utf-8")
        assert text.splitlines()[0] == f"# construction: {name}"
        h = load_hypergraph(text)
        meta = CONSTRUCTIONS[name.replace("-", "_")]
        assert h.vertex_count == meta.expected_vertex_count
        assert len(h.edges) == meta.expected_edge_count

    def test_stdout_when_no_output_file(self, capsys):
        code, out, err = _run(capsys, "gen", "g3")
        assert code == 0 and err == ""
        assert out.startswith("# construction: g3\n")
        assert load_hypergraph(out).vertex_count == 15

    def test_kpartite_needs_and_uses_shape_flags(self, capsys):
        code, out, _ = _run(capsys, "gen", "kpartite", "--k", "2", "--n", "2")
        assert code == 0
        h = load_hypergraph(out)
        assert h.vertex_count == 4 and len(h.edges) == 4
        assert out.startswith("# construction: kpartite k=2 n=2\n")

    def test_usage_errors_exit_two(self, capsys):
        code, _, err = _run(capsys, "gen", "kpartite")
        assert code == 2 and "requires --k and --n" in err
        code, _, err = _run(capsys, "gen", "g3", "--k", "2")
        assert code == 2 and "only apply" in err
        code, _, _ = _run(capsys, "gen", "bogus")
        assert code == 2

    @pytest.mark.parametrize("k", ["0", "30"])
    def test_kpartite_bad_shape_exits_two(self, capsys, tmp_path, k):
        """A part count below 1 or one past the edge cap is a usage error."""
        path = tmp_path / "kp.hg"
        code, out, err = _run(
            capsys, "gen", "kpartite", "--k", k, "--n", "3", "-o", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: gen kpartite: ")
        assert not path.exists()


class TestInfo:
    def test_identifies_builtin_with_erratum(self, capsys, tmp_path):
        path = _gen(capsys, tmp_path, "g4")
        code, out, err = _run(capsys, "info", path)
        assert code == 0 and err == ""
        payload = _report(out)["payload"]
        assert payload["vertices"] == 562
        assert payload["edges"] == 331
        assert payload["uniform"] == 4
        assert payload["max_degree"] == 3
        assert payload["construction"] == "g4"
        assert "562" in payload["erratum_note"]

    def test_plain_board_has_no_construction(self, capsys, tmp_path):
        path = tmp_path / "plain.hg"
        path.write_text("p hg 4 2\ne 1 2\ne 2 3 4\n", encoding="utf-8")
        code, out, _ = _run(capsys, "info", str(path))
        assert code == 0
        payload = _report(out)["payload"]
        assert payload["construction"] is None
        assert payload["erratum_note"] is None
        assert payload["uniform"] is None
        assert payload["max_degree"] == 2

    def test_parse_error_exits_three(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("p hg 2\ne 1\n", encoding="utf-8")
        code, out, err = _run(capsys, "info", str(path))
        assert (code, out) == (3, "")
        assert "line 1" in err

    def test_non_utf8_board_exits_three(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_bytes(b"p hg 2 1\n\xff\ne 1 2\n")
        for argv in (["info"], ["solve", "mb", "--first", "maker"]):
            code, out, err = _run(capsys, *argv, str(path))
            assert (code, out) == (3, "")
            assert err == f"error: {path}: invalid UTF-8, line 2\n"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_board_with_other_newlines(self, capsys, tmp_path, newline):
        path = tmp_path / "crlf.hg"
        path.write_bytes(newline.join([b"p hg 4 2", b"e 1 2", b"e 2 3 4", b""]))
        code, out, _ = _run(capsys, "info", str(path))
        assert code == 0
        payload = _report(out)["payload"]
        assert (payload["vertices"], payload["edges"], payload["max_degree"]) == (4, 2, 2)

    def test_missing_file_exits_three(self, capsys, tmp_path):
        code, out, err = _run(capsys, "info", str(tmp_path / "none.hg"))
        assert (code, out) == (3, "")
        assert "error:" in err


class TestSolve:
    def test_mb_gcp_breaker_wins(self, capsys, tmp_path):
        path = _gen(capsys, tmp_path, "gcp")
        code, out, _ = _run(capsys, "solve", "mb", path, "--first", "maker")
        assert code == 0
        payload = _report(out)["payload"]
        assert payload["game"] == "mb"
        assert payload["first"] == "maker"
        assert payload["winner"] == "breaker"
        assert payload["exhausted"] is False

    def test_mb_no_prune_same_verdict_without_certificate(
        self, capsys, tmp_path
    ):
        path = _gen(capsys, tmp_path, "gcp")
        code, out, _ = _run(
            capsys, "solve", "mb", path, "--first", "maker", "--no-prune"
        )
        assert code == 0
        payload = _report(out)["payload"]
        assert payload["winner"] == "breaker"
        assert payload["certificate"] is None

    def test_mb_node_limit_exhaustion_exits_four(self, capsys, tmp_path):
        path = _gen(capsys, tmp_path, "gcp")
        code, out, err = _run(
            capsys,
            "solve",
            "mb",
            path,
            "--first",
            "maker",
            "--no-prune",
            "--node-limit",
            "5",
        )
        assert code == 4
        assert "exhausted" in err
        payload = _report(out)["payload"]
        assert payload["winner"] is None
        assert payload["exhausted"] is True

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("solve", "cp", "{board}"), "-5"),
            (("solve", "mb", "{board}", "--first", "maker"), "-1"),
            (("validate-cases", "gcp"), "-1"),
        ],
        ids=["solve-cp", "solve-mb", "validate-cases"],
    )
    def test_negative_node_limit_is_a_usage_error(self, capsys, tmp_path, argv, limit):
        """A negative limit is refused before any search: ``solve cp`` no
        longer reports an exhaustion after 0 nodes, and ``solve mb`` no
        longer answers through the pairing shortcut.  0 stays a limit."""
        board = tmp_path / "edge.hg"
        board.write_text("p hg 3 1\ne 1 2 3\n", encoding="utf-8")
        argv = [arg.format(board=board) for arg in argv]
        code, out, err = _run(capsys, *argv, "--node-limit", limit)
        assert (code, out) == (2, "")
        assert f"--node-limit: expected 0 or more nodes, got '{limit}'" in err
        code, _out, _err = _run(capsys, *argv, "--node-limit", "0")
        assert code in (0, 4)

    def test_threads_and_seed_are_usage_errors(self, capsys, tmp_path):
        path = _gen(capsys, tmp_path, "gcp")
        for argv in (
            ("solve", "mb", path, "--first", "maker", "--threads", "1"),
            ("solve", "cp", path, "--threads", "1"),
            ("validate-cases", "gcp", "--threads", "1"),
            ("verify", "gamma", "--threads", "1"),
            ("--seed", "7", "info", path),
        ):
            code, out, _ = _run(capsys, *argv)
            assert (code, out) == (2, ""), argv
        for argv in ((), ("gen",), ("info",), ("solve",), ("solve", "mb"),
                     ("solve", "cp"), ("verify",), ("validate-cases",),
                     ("pairing",), ("reduce",)):
            code, out, _ = _run(capsys, *argv, "--help")
            assert code == 0, argv
            assert "--threads" not in out and "--seed" not in out, argv

    def test_cp_two_vertex_edge_goes_to_picker(self, capsys, tmp_path):
        path = tmp_path / "pair.hg"
        path.write_text("p hg 2 1\ne 1 2\n", encoding="utf-8")
        code, out, _ = _run(capsys, "solve", "cp", str(path))
        assert code == 0
        payload = _report(out)["payload"]
        assert payload["game"] == "cp"
        assert payload["first"] == "picker"
        assert payload["winner"] == "picker"

    def test_cp_lone_odd_vertex_goes_to_chooser(self, capsys, tmp_path):
        path = tmp_path / "lone.hg"
        path.write_text("p hg 1 1\ne 1\n", encoding="utf-8")
        code, out, _ = _run(capsys, "solve", "cp", str(path))
        assert code == 0
        assert _report(out)["payload"]["winner"] == "chooser"


class TestVerify:
    def test_gamma_verifies(self, capsys):
        code, out, _ = _run(capsys, "verify", "gamma")
        assert code == 0
        payload = _report(out)["payload"]
        assert payload["verified"] is True
        assert payload["counterexample"] is None
        assert payload["lines_checked"] > 0

    def test_g3_split_verifies(self, capsys):
        code, out, _ = _run(capsys, "verify", "g3-split")
        assert code == 0
        assert _report(out)["payload"]["verified"] is True

    def test_unknown_name_exits_two(self, capsys):
        code, _, _ = _run(capsys, "verify", "g5")
        assert code == 2


class TestPairingAndReduce:
    def test_pairing_found_on_low_degree_board(self, capsys, tmp_path):
        path = tmp_path / "board.hg"
        path.write_text(
            "p hg 8 2\ne 1 2 3 4\ne 3 4 5 6\n", encoding="utf-8"
        )
        code, out, _ = _run(capsys, "pairing", str(path))
        assert code == 0
        payload = _report(out)["payload"]
        assert payload["found"] is True
        used = [v for pair in payload["pairs"] for v in pair]
        assert len(used) == len(set(used))

    def test_pairing_absent_on_gcp(self, capsys, tmp_path):
        path = _gen(capsys, tmp_path, "gcp")
        code, out, _ = _run(capsys, "pairing", path)
        assert code == 0
        payload = _report(out)["payload"]
        assert payload == {"found": False, "pairs": []}

    def test_reduce_strips_pendant_pair_edges(self, capsys, tmp_path):
        path = tmp_path / "board.hg"
        path.write_text("p hg 4 2\ne 1 2 3\ne 3 4\n", encoding="utf-8")
        code, out, err = _run(capsys, "reduce", str(path), "--rule", "lemma21")
        assert (code, err) == (0, "")
        assert out.startswith("# reduced: lemma21\n")
        assert out.count("# removed pair:") == 2
        reduced = load_hypergraph(out)
        assert reduced.vertex_count == 4 and reduced.edges == ()

    def test_reduce_keeps_irreducible_board(self, capsys, tmp_path):
        path = tmp_path / "board.hg"
        path.write_text("p hg 3 2\ne 1 2 3\ne 1 2\n", encoding="utf-8")
        code, out, _ = _run(capsys, "reduce", str(path), "--rule", "lemma21")
        assert code == 0
        assert len(load_hypergraph(out).edges) == 2


class TestEnvelope:
    def test_out_flag_writes_report_file(self, capsys, tmp_path):
        board = _gen(capsys, tmp_path, "g3")
        report_path = tmp_path / "report.json"
        code, out, err = _run(capsys, "info", board, "--out", str(report_path))
        assert (code, out, err) == (0, "", "")
        payload = _report(report_path.read_text(encoding="utf-8"))["payload"]
        assert payload["vertices"] == 15

    def test_reports_identical_modulo_elapsed(self, capsys, tmp_path):
        board = _gen(capsys, tmp_path, "gamma")
        snapshots = []
        for _ in range(2):
            _, out, _ = _run(capsys, "info", board)
            report = _report(out)
            report.pop("elapsed_ms")
            snapshots.append(report)
        assert snapshots[0] == snapshots[1]

    def test_command_echoes_argv(self, capsys, tmp_path):
        board = _gen(capsys, tmp_path, "g3")
        code, out, _ = _run(capsys, "info", board)
        assert code == 0
        assert _report(out)["command"] == ["info", board]

    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        assert "posgames" in out

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 2

    def test_module_entry_point(self, tmp_path):
        proc = _run_module("posgames.cli", "gen", "g3")
        assert load_hypergraph(proc.stdout).vertex_count == 15

    def test_package_entry_point(self):
        proc = _run_module("posgames", "gen", "g3")
        assert load_hypergraph(proc.stdout).vertex_count == 15
