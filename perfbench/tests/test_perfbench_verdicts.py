"""The expected-verdicts check, the command timeout and the benchmark's files."""

import contextlib
import io
import json
import time

import modform.cli
import run
import workloads as W

COMMAND = ["models", W.P1, "--index-size", "1"]


def true_verdict(cmd):
    buf = io.StringIO()
    argv = [str(W.HERE.parent / a) if a.startswith("perfbench/") else a for a in cmd]
    with contextlib.redirect_stdout(buf):
        code = modform.cli.main(W.command_argv(argv))
    head, sha = W.verdict_of(buf.getvalue())
    return {"argv": cmd, "code": code, "headline": head, "sha256": sha}


def rep_against(expected, timeout=W.COMMAND_TIMEOUT_S, cmd=COMMAND):
    deadline = time.perf_counter() + 60
    return run.run_rep([cmd], [expected], False, run.child_env(0), deadline, timeout)


def test_verdict_diff_compares_code_and_headline_but_not_hash():
    exp = {"code": 2, "headline": {"status": "gated", "models": 5}, "sha256": "x"}
    assert W.verdict_diff(exp, 2, {"status": "gated", "models": 5}) == []
    assert W.verdict_diff(exp, 0, {"status": "gated", "models": 5})
    assert W.verdict_diff(exp, 2, {"status": "gated", "models": 6})
    assert W.verdict_diff(exp, 2, {"status": "gated"})
    assert W.verdict_diff(exp, 2, None)


def test_headline_counts_failures_and_skips_dumps():
    payload = {"result": {"status": "fail", "dump": {"objects": 3},
                          "suites": {"star": {"failures": [1, 2], "checked": 7, "x": 1}}}}
    assert W.headline(payload) == {"status": "fail", "suites/star/failures": 2,
                                   "suites/star/checked": 7}


def test_matching_verdict_passes_and_changed_code_or_count_fails():
    good = true_verdict(COMMAND)
    rep = rep_against(good)
    assert (rep.attempted, rep.failed) == (1, 0)
    assert rep.wall_s > 0 and rep.setup_s > 0 and rep.rss_kb > 0

    rep = rep_against(dict(good, code=good["code"] + 1))
    assert (rep.attempted, rep.failed) == (1, 1)

    counts = dict(good["headline"], models=good["headline"]["models"] + 1)
    rep = rep_against(dict(good, headline=counts))
    assert (rep.attempted, rep.failed) == (1, 1)

    rep = rep_against(dict(good, sha256="0" * 64))
    assert rep.failed == 0


def test_unchecked_repetition_records_the_verdict():
    good = true_verdict(COMMAND)
    rep = run.run_rep([COMMAND], None, False, run.child_env(0), time.perf_counter() + 60)
    assert (rep.failed, rep.problems) == (0, [])
    assert [(c["code"], c["headline"], c["sha256"]) for c in rep.commands] == [
        (good["code"], good["headline"], good["sha256"])]


def test_timeout_kills_the_child_and_counts_as_failed():
    slow = ["check", "sem", W.T_EQ, "--index-size", "3"]
    t0 = time.perf_counter()
    rep = rep_against({"code": 0, "headline": {}, "sha256": ""}, timeout=1.0, cmd=slow)
    assert time.perf_counter() - t0 < 5
    assert (rep.attempted, rep.failed) == (1, 1)
    assert "timed out" in rep.problems[0][1]


def test_benchmark_files_agree_with_the_layer_map_and_workloads():
    bench = json.loads((W.HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == W.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    expected = W.load_expected()
    for name, cmds in W.WORKLOADS.items():
        assert [e["argv"] for e in expected[name]] == cmds
