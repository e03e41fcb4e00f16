"""Steadiness mode: run every workload repeatedly, interleaved.

    python3 perfbench/steady.py [--runs 10] [--root DIR ...] [--first-seed 1]

Run ``i`` (0-based) uses seed ``first-seed + i`` and runs each workload
once per checkout, rotating the workload order and alternating the
checkout order from run to run.  Runs go one at a time, each through the
command and with the ``run_seconds`` of the first checkout's
BENCHMARK.json.

For each checkout, workload and end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, against the metric's bound: a spread under a third of
the bound is steady.  With two checkouts (parent first, change second) it
also prints how far the change's median moved, signed so that positive
is worse, against the same bound.

Exits with 1 if a run failed or reported a failed command, or a spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def run_once(root, bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None, None
    info = next((json.loads(line[len("run-info "):]) for line in lines
                 if line.startswith("run-info ")), {})
    return json.loads(lines[-1]), info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--root", action="append", type=Path,
                   help="checkout to measure; give two to compare parent and change")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [ROOT])]
    bench = json.loads((roots[0] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {(str(r), w): {m: [] for m in metrics} for r in roots for w in names}
    bad = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        order = roots if i % 2 == 0 else roots[::-1]
        for k in range(len(names)):
            workload = names[(i + k) % len(names)]
            for root in order:
                result, info = run_once(root, bench, workload, seed, seconds)
                if result is None or result["failed"]:
                    bad += 1
                    print(f"run {i + 1}/{args.runs} {workload} seed {seed} {root}: FAILED")
                    continue
                for m in metrics:
                    values[(str(root), workload)][m].append(result["metrics"][m]["value"])
                shown = " ".join(f"{m} {result['metrics'][m]['value']:.4g}" for m in metrics)
                print(f"run {i + 1}/{args.runs} {workload} seed {seed}: {shown} "
                      f"load {info.get('loadavg', ['?'])[0]:.2f}"
                      + (f" [{root}]" if len(roots) > 1 else ""), flush=True)

    too_wide = False
    print(f"\n{'workload':<16}{'metric':<13}{'n':>3}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for root in roots:
        if len(roots) > 1:
            print(f"[{root}]")
        for w in names:
            for m, spec in metrics.items():
                vals = values[(str(root), w)][m]
                if not vals:
                    continue
                med, q1, q3 = quartiles(vals)
                s = (q3 - q1) / med
                if s < spec["bound"] / 3:
                    verdict = "steady"
                elif s <= spec["bound"]:
                    verdict = "within bound, not steady"
                else:
                    verdict, too_wide = "TOO WIDE", True
                print(f"{w:<16}{m:<13}{len(vals):>3}{med:>11.5g}{q1:>11.5g}{q3:>11.5g}"
                      f"{s:>9.3f}{spec['bound']:>7.2f}  {verdict}")
    if len(roots) == 2:
        print("\nchange against parent (positive = worse)")
        for w in names:
            for m, spec in metrics.items():
                a, b = values[(str(roots[0]), w)][m], values[(str(roots[1]), w)][m]
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
                better_all = (max(b) < min(a)) if spec["better"] == "lower" else (min(b) > max(a))
                verdict = "REGRESSION" if worse > spec["bound"] else "within bound"
                print(f"{w:<16}{m:<13}{ma:>11.5g} -> {mb:<11.5g}{worse:>+8.3f}  {verdict}"
                      + ("  (every run better)" if better_all else ""))
    print(f"\n{bad} failed run(s)")
    return 1 if bad or too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
