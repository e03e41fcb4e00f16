"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

from modform import cli
from modform.cli import (
    EXIT_FAIL,
    EXIT_GATED,
    EXIT_IO,
    EXIT_LIMIT,
    EXIT_PARSE,
    EXIT_PASS,
    main,
    run,
)
from modform.errors import InvariantError

SYM_E = "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"

CFG = {"index_size": 2, "kmax": 1, "depth": 3, "limit": 200_000, "nlimit": 10_000}


def test_models_counts():
    code, result = run("models", CFG, "")
    assert code == EXIT_PASS
    assert result["models"] == 5 and result["isomorphisms"] == 12


def test_dualize_empty_theory():
    code, result = run("dualize", CFG, "")
    assert code == EXIT_PASS
    assert result["object_counts"] == {"0": [3, 3], "1": [2, 2]}
    assert result["triangles"] == {"bottom": True, "top": True}


def test_check_triangles_symmetric():
    code, result = run("check", CFG, SYM_E, "triangles")
    assert code == EXIT_PASS
    assert result["suites"]["triangles"]["status"] == "pass"


def test_topology_exit_zero():
    code, result = run("topology", CFG, "")
    assert code == EXIT_PASS
    assert result["sobriety"]["t0"]


def test_sheaf_command():
    code, result = run("sheaf", CFG, "", "[x] top")
    assert code == EXIT_PASS
    assert result["points"] == 5


def test_site_command_gates():
    code, result = run("site", CFG, "")
    assert code == EXIT_GATED  # density gates at |S| = 2
    assert result["density"]["failures"] == []


def test_groupoid_command():
    code, result = run("groupoid", CFG, "")
    assert code == EXIT_GATED  # openness gates at |S| = 2
    assert result["axioms"]["status"] == "pass"
    assert result["preimage_identities"]["status"] == "pass"


def test_check_all_is_gated_not_failed():
    code, result = run("check", CFG, "", "all")
    assert code == EXIT_GATED
    assert not any(r["status"] == "fail" for r in result["suites"].values())


def test_inconsistent_theory_dualizes():
    code, result = run("dualize", CFG, "axiom top |- [] bot\n")
    assert code == EXIT_PASS
    assert result["counit_status"] == "verified"


def test_cli_main_exit_codes(tmp_path, capsys):
    thy = tmp_path / "empty.thy"
    thy.write_text("")
    assert main(["models", "--index-size", "2", str(thy)]) == EXIT_PASS
    capsys.readouterr()

    missing = tmp_path / "missing.thy"
    assert main(["models", str(missing)]) == EXIT_IO
    capsys.readouterr()

    bad = tmp_path / "bad.thy"
    bad.write_text("rel P/1\naxiom P(x,y) |- [x] top\n")
    assert main(["models", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2" in err

    big = tmp_path / "big.thy"
    big.write_text("rel R/3\n")
    assert main(["models", "--index-size", "3", "--limit", "10", str(big)]) == EXIT_LIMIT
    capsys.readouterr()


def test_limit_zero_is_a_zero_budget_everywhere(tmp_path, capsys):
    thy = tmp_path / "limit0.thy"
    thy.write_text("")
    for command in ("models", "dualize"):
        argv = [command, "--index-size", "1", "--limit", "0", str(thy)]
        assert main(argv) == EXIT_LIMIT
        assert "limit exceeded" in capsys.readouterr().err


def test_invariant_error_is_reported_as_checker_bug(tmp_path, capsys, monkeypatch):
    thy = tmp_path / "empty.thy"
    thy.write_text("")

    def broken(theory, cfg):
        raise InvariantError("certificate misses a point")

    monkeypatch.setattr(cli, "_command_models", broken)
    assert main(["models", str(thy)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err == "internal invariant violated (checker bug): certificate misses a point\n"


def test_cli_json_determinism(tmp_path, capsys):
    thy = tmp_path / "empty.thy"
    thy.write_text("")
    argv = ["report", "--index-size", "2", "--kmax", "1", "--format", "json", str(thy)]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == 1
    assert payload["result"]["models"]["models"] == 5


def test_cli_suite_flag(tmp_path, capsys):
    thy = tmp_path / "e.thy"
    thy.write_text(SYM_E)
    assert main(["check", "--suite", "axioms", str(thy)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "axioms: pass" in out


def test_unknown_suite_fails():
    with pytest.raises(Exception):
        run("check", CFG, "", "nonsense")
