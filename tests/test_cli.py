"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

from modform import checks, cli, duality, models, sheaves, topology
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


def test_closed_arrow_set_limit_names_nlimit(tmp_path, capsys):
    # P/1 at n=2 has 71 closed arrow sets
    thy = tmp_path / "P1.thy"
    thy.write_text("rel P/1\n")
    argv = ["check", "sem", str(thy), "--index-size", "2", "--nlimit", "5"]
    assert main(argv) == EXIT_LIMIT
    err = capsys.readouterr().err
    assert err.startswith("limit exceeded") and "closed arrow sets" in err
    assert "--nlimit" in err
    # the enumeration stops at the limit, so the size it names is a lower bound
    assert err == "limit exceeded: more closed arrow sets than --nlimit (more than 5)\n"


def test_invariant_error_is_reported_as_checker_bug(tmp_path, capsys, monkeypatch):
    thy = tmp_path / "empty.thy"
    thy.write_text("")

    def broken(ctx):
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


def test_dualize_failure_is_not_gated(monkeypatch):
    # at depth 0 the counit is inconclusive, so a failure must still win
    cfg = dict(CFG, index_size=1, depth=0)
    real = cli.check_reconstruction

    def failing(*args, **kwargs):
        return dict(real(*args, **kwargs), status="fail")

    monkeypatch.setattr(cli, "check_reconstruction", failing)
    code, result = run("dualize", cfg, "")
    assert result["counit_status"] == "inconclusive"
    assert (code, result["status"]) == (EXIT_FAIL, "fail")


def test_dualize_unit_needs_every_preimage_identity(monkeypatch):
    real = cli.unit

    def broken_identity(*args, **kwargs):
        res = real(*args, **kwargs)
        res["preimage_identities"][0]["ok"] = False
        return res

    monkeypatch.setattr(cli, "unit", broken_identity)
    code, result = run("dualize", dict(CFG, index_size=1), "rel P/1\n")
    assert result["unit_ok"] is False
    assert (code, result["status"]) == (EXIT_FAIL, "fail")


@pytest.mark.parametrize("flags", [
    ["--index-size", "0"],
    ["--kmax", "-1"],
    ["--depth", "-1"],
    ["--limit", "-1"],
    ["--nlimit", "-1"],
])
def test_out_of_range_bound_is_a_usage_error(flags, tmp_path, capsys):
    thy = tmp_path / "empty.thy"
    thy.write_text("")
    assert main(["dualize", "--index-size", "1", *flags, str(thy)]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and flags[0] in err


@pytest.mark.parametrize("flags", [["--bogus"], ["--format", "xml"], ["--kmax", "one"]])
def test_argparse_usage_error_exits_io(flags, tmp_path, capsys):
    thy = tmp_path / "empty.thy"
    thy.write_text("")
    assert main(["models", *flags, str(thy)]) == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_PASS
    assert "usage" in capsys.readouterr().out


def test_report_runs_each_suite_once(monkeypatch):
    calls = {}

    def counted(name, *owners):
        """Count the calls of `name` through every namespace that binds it."""
        real = getattr(owners[0], name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, wrapper)

    for name in (
        "check_groupoid_axioms", "check_preimage_identities", "check_sobriety",
        "check_star", "check_openness", "check_stabilization", "check_guns",
        "check_sites", "check_basis_property",
        "check_fullness_on_subobjects", "check_conservativity", "check_iso_invariance",
    ):
        counted(name, checks)
    for name in (
        "check_pullback_square", "counit", "check_triangle_identities",
        "check_sem_conditions", "coherent_check", "check_reconstruction",
    ):
        counted(name, cli)
    for name in ("unit", "mod_functor", "form_functor"):
        counted(name, duality, cli)
    counted("theory_view", duality)
    run("report", dict(CFG, index_size=1), "")
    # Mod(T) once for the context and once for Mod(Form T) inside the unit
    layers = {name: calls.pop(name) for name in ("mod_functor", "form_functor", "theory_view")}
    assert layers == {"mod_functor": 2, "form_functor": 1, "theory_view": 1}
    # one walk over the site objects serves both density and subobjects
    assert len(calls) == len(cli.SUITES) - 1
    assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("suite,other", [("density", "check_gun_subobjects"), ("subobjects", "check_density")])
def test_one_site_suite_runs_only_its_grader(suite, other, monkeypatch):
    calls = []
    real = getattr(checks, other)

    def counted(*args):
        calls.append(args)
        return real(*args)

    _, site = run("site", CFG, SYM_E)
    both = {"density": site["density"], "subobjects": site["subobject_lattices"]}
    monkeypatch.setattr(checks, other, counted)
    code, alone = run("check", CFG, SYM_E, suite)
    assert calls == []
    assert alone["suites"] == {suite: both[suite]}
    assert code == {"pass": EXIT_PASS, "gated": EXIT_GATED}[alone["status"]]
    # `site` still grades every site object for both suites
    run("site", CFG, SYM_E)
    assert len(calls) == both["density"]["sites"] == 347


@pytest.mark.parametrize("text", ["axiom top |- [] bot\n", "rel P/1\naxiom top |- [] bot\n"])
@pytest.mark.parametrize("command", ["report", "check"])
def test_inconsistent_theory_triangles_and_reconstruction_are_vacuous(command, text):
    # no models: Mod(T) is empty and Form(Mod T) is the degenerate category
    code, result = run(command, dict(CFG, index_size=1), text, "all")
    suites = (result["checks"] if command == "report" else result)["suites"]
    assert suites["triangles"]["status"] == suites["reconstruction"]["status"] == "pass"
    assert code in (EXIT_PASS, EXIT_GATED)


@pytest.mark.parametrize("suite", ["unit", "triangles", "reconstruction"])
def test_unit_suites_share_one_limit(suite, tmp_path, capsys):
    # Mod(Form T) of P/1 at n=2 takes a 614-node model search
    thy = tmp_path / "P1.thy"
    thy.write_text("rel P/1\n")
    argv = ["check", suite, "--index-size", "2", "--limit", "100", str(thy)]
    assert main(argv) == EXIT_LIMIT
    assert "limit exceeded" in capsys.readouterr().err


def test_report_sections_equal_standalone_commands():
    text = "rel P/1\n"
    cfg = dict(CFG, index_size=1)
    _, report = run("report", cfg, text)
    for section, command in (
        ("topology", "topology"),
        ("groupoid", "groupoid"),
        ("site", "site"),
        ("dualize", "dualize"),
        ("checks", "check"),
    ):
        _, alone = run(command, cfg, text, "all" if command == "check" else None)
        assert cli._jsonable(report[section]) == cli._jsonable(alone), section


@pytest.mark.parametrize(
    "text,argv",
    [
        ("rel R/3\n", ["check", "triangles"]),
        ("rel R/3\n", ["dualize"]),
        ("rel R/3\n", ["report"]),
        ("fun f/2\n", ["check", "triangles"]),
    ],
)
def test_arity_above_the_power_levels_is_a_limit(text, argv, tmp_path, capsys):
    # R/3 needs power level 3 and f/2 a graph at level 3; --kmax 1 stops at 2
    thy = tmp_path / "t.thy"
    thy.write_text(text)
    assert main(argv + ["--index-size", "1", "--kmax", "1", str(thy)]) == EXIT_LIMIT
    err = capsys.readouterr().err
    assert "limit exceeded" in err and "--kmax 1" in err


@pytest.mark.parametrize("argv", [["check", "coherent"], ["check", "all"], ["report"]])
def test_kmax_above_the_index_size_is_a_usage_error_for_coherent(argv, tmp_path, capsys):
    thy = tmp_path / "t.thy"
    thy.write_text("")
    assert main(argv + ["--index-size", "1", "--kmax", "2", str(thy)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "--kmax" in err and "--index-size" in err


def test_topology_lists_the_model_space_lattice_once(tmp_path, monkeypatch):
    # the basis property lists the atomic, Horn and geometric lattices; the
    # command reads the atomic one from the class's one model space
    monkeypatch.setattr(models, "_class_cache", {})
    calls = []
    real = topology.closure_lattice

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for owner in (topology, checks, sheaves, duality):
        monkeypatch.setattr(owner, "closure_lattice", counted)
    thy = tmp_path / "P1.thy"
    thy.write_text("rel P/1\n")
    main(["topology", "--index-size", "2", str(thy)])
    assert len(calls) == 3


def test_arity_within_the_power_levels_passes(tmp_path):
    thy = tmp_path / "t.thy"
    thy.write_text("rel R/3\n")
    argv = ["check", "triangles", "--index-size", "1", "--kmax", "2", str(thy)]
    assert main(argv) == EXIT_PASS
