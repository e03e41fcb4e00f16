"""Run one benchmark workload against this checkout's ``src/modform``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Protocol: a closed loop with one client.  Each repetition starts a fresh
interpreter (``child.py``) that imports ``modform.cli`` and runs the
workload's commands one after another; the next repetition starts only
after the previous one has exited, and only one child runs at a time.
Repetitions continue while another one fits in ``--seconds``.  Before
them, a block of set-up-only interpreters, started one after another,
measures ``setup_s``.

``--seed`` sets the children's PYTHONHASHSEED.  The theories and commands
are fixed, so the hash seed is the only input that varies; the same seed
gives the same run.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the repetitions alternate between untraced and traced
children, and the last line reports the per-layer metrics and the tracing
overhead.  Every command's exit code and headline counts are checked
against ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_SPAWNS = 15  # set-up-only interpreters per untraced run
RUN_DEADLINE_S = 150.0  # hard stop for a whole run, kills the running child


class ChildError(Exception):
    """The child died or went silent before its next line."""


class Child:
    """A running child.py with a line reader that honours deadlines."""

    def __init__(self, commands, trace, env):
        spec = {"src": str(SRC), "commands": commands, "trace": trace}
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0,
        )
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.buf = b""

    def readline(self, deadline):
        """The next JSON line; ChildError at `deadline` or end of output."""
        while b"\n" not in self.buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not self.sel.select(remaining):
                raise ChildError("timed out")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise ChildError(f"exited with code {self.proc.wait()}")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        """Stop the child if it still runs, and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sel.close()
        self.proc.stdout.close()


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def measure_setup(env, deadline):
    """Seconds from spawning an interpreter until it has imported modform.cli."""
    child = Child([], False, env)
    try:
        child.readline(deadline)
        setup = time.perf_counter() - child.t0
        child.readline(deadline)
        return setup
    finally:
        child.close()


class Rep:
    """The outcome of one repetition of a workload."""

    def __init__(self):
        self.setup_s = None
        self.wall_s = 0.0
        self.rss_kb = None
        self.trace = None
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (command index, description)
        self.commands = []  # per finished command: code, wall_s, headline, sha256


def run_rep(commands, expected, trace, env, deadline, timeout=W.COMMAND_TIMEOUT_S):
    """Run one repetition; check every command against `expected` unless it is None."""
    rep = Rep()
    rep.attempted = len(commands)
    child = Child([W.command_argv(c) for c in commands], trace, env)
    try:
        child.readline(min(deadline, time.perf_counter() + timeout))
        rep.setup_s = time.perf_counter() - child.t0
        for i in range(len(commands)):
            msg = child.readline(min(deadline, time.perf_counter() + timeout))
            head, sha = W.verdict_of(msg["stdout"])
            rep.commands.append({"code": msg["code"], "wall_s": msg["wall_s"],
                                 "headline": head, "sha256": sha})
            rep.wall_s += msg["wall_s"]
            diffs = W.verdict_diff(expected[i], msg["code"], head) if expected else []
            if msg["error"]:
                diffs.insert(0, "crashed: " + msg["error"].strip().splitlines()[-1])
            if diffs:
                rep.failed += 1
                rep.problems.append((i, "; ".join(diffs)))
        last = child.readline(min(deadline, time.perf_counter() + timeout))
        rep.rss_kb = last["rss_kb"]
        rep.trace = last.get("trace")
    except ChildError as e:
        missing = len(commands) - len(rep.commands)
        rep.failed += missing
        rep.problems.append((len(rep.commands), f"child {e}; {missing} command(s) not completed"))
    finally:
        child.close()
    return rep


def quartiles(values):
    """(median, q1, q3) of `values`; q1 = q3 = median for one value."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def describe(name, unit, values):
    med, q1, q3 = quartiles(values)
    return f"{name:<14} {med:.6g} {unit}  median of {len(values)} (q1 {q1:.6g}, q3 {q3:.6g})"


def run_workload(name, seed, seconds, trace, out=sys.stdout):
    """Run the workload; return the result object of the last output line."""
    commands = W.WORKLOADS[name]
    expected = W.load_expected()[name]
    env = child_env(seed)
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    measure_setup(env, deadline)  # compiles the bytecode caches; not counted
    print("run-info " + json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "loadavg": os.getloadavg(),
    }), file=out)

    setups = [] if trace else [measure_setup(env, deadline) for _ in range(SETUP_SPAWNS)]
    plain, traced, rounds = [], [], []
    while True:
        t0 = time.perf_counter()
        plain.append(run_rep(commands, expected, False, env, deadline))
        if trace:
            traced.append(run_rep(commands, expected, True, env, deadline))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(rounds) > seconds or elapsed > RUN_DEADLINE_S / 2:
            break

    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for r in reps:
        for i, problem in r.problems:
            print(f"FAILED command {i} ({' '.join(commands[i]) if i < len(commands) else '-'}): "
                  f"{problem}", file=out)
    for i, cmd in enumerate(commands):
        done = [r.commands[i] for r in reps if i < len(r.commands)]
        walls = [r.commands[i]["wall_s"] for r in plain if i < len(r.commands)]
        codes = sorted({c["code"] for c in done}, key=str)
        line = f"command {i}: {' '.join(cmd)}: exit {codes}"
        if walls:
            line += f", {statistics.median(walls):.4g} s median of {len(walls)}"
        if {c["sha256"] for c in done} - {expected[i]["sha256"]}:
            line += " (output sha256 differs from the recorded one; information only)"
        print(line, file=out)

    if not trace:
        ok_plain = [r for r in plain if r.rss_kb is not None and not r.failed] or plain
        walls = [r.wall_s for r in ok_plain]
        metrics = {}
        rss = [r.rss_kb / 1024 for r in ok_plain if r.rss_kb is not None] or [0.0]
        for key, unit, values in (("setup_s", "s", setups), ("wall_s", "s", walls),
                                  ("peak_rss_mb", "MB", rss)):
            print(describe(key, unit, values), file=out)
            metrics[key] = {"value": statistics.median(values), "unit": unit}
    else:
        metrics = layer_metrics(traced)
        print_trace(traced[-1].trace, metrics, out)
        print_overhead(plain, traced, out)
    print(f"failed_share   {failed / attempted:.6g}  ({failed} of {attempted} commands)", file=out)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(traced):
    """Per-layer metrics: medians over the traced repetitions."""
    ok = [r for r in traced if r.trace is not None] or traced
    stats = [r.trace["stats"] if r.trace else {} for r in ok]
    counters = [r.trace["counters"] if r.trace else {} for r in ok]
    units = dict(W.per_layer_metrics())

    def med(values):
        return statistics.median(values) if values else 0

    values = {}
    for name in W.entry_names():
        rows = [s.get(name, [0, 0.0, 0.0]) for s in stats]
        values[f"{name}.calls"] = med([r[0] for r in rows])
        values[f"{name}.self_s"] = med([r[2] for r in rows])
        if name in W.INCLUSIVE:
            values[f"{name}.incl_s"] = med([r[1] for r in rows])
    for key in W.COUNTERS:
        values[key] = med([c.get(key, 0) for c in counters])
    lookups = values["models.ModelClass.ext.calls"]
    values["models.ext.eval_per_lookup"] = (
        values["models.eval_formula.calls"] / lookups if lookups else 0.0)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def print_overhead(plain, traced, out):
    """The tracing overhead, printed as information only.

    Each traced repetition is paired with the untraced one run just before
    it; the overhead is the median over pairs of traced minus untraced
    wall_s.  A run holds few pairs and the host's speed drifts by more than
    the overhead, so it is not one of the JSON metrics.
    """
    pairs = [(t.wall_s - p.wall_s, p.wall_s) for p, t in zip(plain, traced)
             if not (p.failed or t.failed)]
    if not pairs:
        print("trace overhead: no pair of repetitions without a failed command", file=out)
        return
    seconds = statistics.median(d for d, _ in pairs)
    share = statistics.median(d / w for d, w in pairs)
    print(f"trace overhead {seconds:.4g} s ({share:.2%}): traced minus untraced wall_s, "
          f"median of {len(pairs)} adjacent pair(s); information only", file=out)


def print_trace(trace, metrics, out, top=8):
    """The entry points with the most self time, then one repetition's spans."""
    selfs = sorted(((v["value"], k[:-len(".self_s")]) for k, v in metrics.items()
                    if k.endswith(".self_s")), reverse=True)
    for seconds, name in selfs[:top]:
        calls = metrics[f"{name}.calls"]["value"]
        print(f"self time {seconds:10.4f} s  {name} ({calls:g} calls)", file=out)
    layers = {}
    for seconds, name in selfs:
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    print("layer self time: " + ", ".join(
        f"{layer} {seconds:.4g} s" for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])),
        file=out)
    if trace is None:
        return
    depth = {}
    for span in trace["spans"]:
        depth[span["id"]] = 0 if span["parent"] is None else depth[span["parent"]] + 1
        print(f"span {'  ' * depth[span['id']]}{span['name']} "
              f"{span['end'] - span['start']:.4f} s", file=out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "modform" / "cli.py").is_file():
        print(f"no modform package under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
