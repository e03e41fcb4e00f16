"""One fresh interpreter running one workload's commands.

Usage: python3 child.py SPEC_JSON, where the spec holds ``src`` (the
directory that holds the ``modform`` package), ``commands`` (argv lists,
possibly empty) and ``trace`` (whether to wrap the layer entry points).

Writes one JSON line to standard output when ``modform.cli`` is imported,
one per command with its exit code, wall seconds and output, and a last
one with the peak resident set size and, when traced, the trace.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import modform.cli  # noqa: E402

proto = sys.stdout


def send(obj):
    proto.write(json.dumps(obj) + "\n")
    proto.flush()


send({"ready": True})

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

tr = installation = None
if spec["trace"]:
    import tracer
    import workloads

    tr = tracer.Tracer()
    installation = tracer.install(tr, workloads.TRACE_TARGETS, "modform")

for i, argv in enumerate(spec["commands"]):
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = modform.cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # a crash fails this command; the next ones still run
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    send({"cmd": i, "code": code, "wall_s": wall, "stdout": buf.getvalue(), "error": error})

done = {"done": True, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
if tr is not None:
    installation.undo()
    done["trace"] = {"stats": tr.stats, "counters": tr.counters, "spans": tr.spans}
send(done)
