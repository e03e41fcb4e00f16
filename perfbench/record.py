"""Record the expected verdicts of every workload command.

    python3 perfbench/record.py

Runs each workload once in a fresh interpreter and writes each command's
argv, exit code, headline counts and the SHA-256 of its JSON output into
expected.json.  The benchmark fails a command whose exit code or headline
counts differ; the hash is information only.  A change that alters a
recorded verdict must say so.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads as W


def record(name, env):
    commands = W.WORKLOADS[name]
    rep = run.run_rep(commands, None, False, env, time.perf_counter() + run.RUN_DEADLINE_S)
    if rep.problems:
        raise SystemExit("\n".join(f"{name}: command {i}: {problem}" for i, problem in rep.problems))
    out = []
    for cmd, c in zip(commands, rep.commands):
        out.append({"argv": cmd, "code": c["code"], "headline": c["headline"], "sha256": c["sha256"]})
        print(f"{name}: {' '.join(cmd)}: exit {c['code']}, {c['wall_s']:.3g} s")
    return out


def main():
    env = run.child_env(0)
    expected = {name: record(name, env) for name in W.WORKLOADS}
    blocks = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(c, sort_keys=True)}" for c in cmds) + "\n ]"
        for name, cmds in expected.items()
    ]
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
