"""Batch command-line interface.

Subcommands: models, topology, groupoid, sheaf, site, dualize, check,
report.  Exit codes: 0 all passed, 1 a check failed, 2 only
headroom-gated or inconclusive results, 3 I/O or usage error, 4 parse
error, 5 limit exceeded.  Identical configuration and input produce
byte-identical reports.  Each command computes each suite at most once.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property

from . import checks as C
from .duality import (
    check_pullback_square,
    check_reconstruction,
    check_sem_conditions,
    check_triangle_identities,
    coherent_check,
    counit,
    form_functor,
    mod_functor,
    unit,
)
from .errors import InvariantError, LimitExceeded, ModformError, ParseError
from .groupoid import build_model_groupoid
from .models import IndexSet, model_class
from .parser import parse_formula_in_context, parse_theory
from .sheaves import definable_sheaf
from .topology import cp_filters, model_space

EXIT_PASS, EXIT_FAIL, EXIT_GATED = 0, 1, 2
EXIT_IO, EXIT_PARSE, EXIT_LIMIT = 3, 4, 5


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def _worst(statuses):
    """A failure fails; else a gated or inconclusive result gates; else pass."""
    statuses = set(statuses)
    if "fail" in statuses:
        return "fail"
    if statuses & {"gated", "inconclusive"}:
        return "gated"
    return "pass"


# Each suite's library call on a command context, in `check all` order.
# The names are looked up at call time, so a wrapped function is called.
_SUITE_CALLS = {
    "axioms": lambda c: C.check_groupoid_axioms(c.mc),
    "preimages": lambda c: C.check_preimage_identities(c.mc),
    "sobriety": lambda c: C.check_sobriety(c.mc),
    "star": lambda c: C.check_star(c.mc),
    "openness": lambda c: C.check_openness(c.mc, depth=min(c.cfg["depth"], 2), ctx_max=2),
    "stabilization": lambda c: C.check_stabilization(c.mc, depth=min(c.cfg["depth"], 2)),
    "guns": lambda c: C.check_guns(c.mc, depth=min(c.cfg["depth"], 2)),
    "density": lambda c: c.sites["density"],
    "subobjects": lambda c: c.sites["subobjects"],
    "basis": lambda c: C.check_basis_property(c.mc, depth=c.cfg["depth"]),
    "fullness": lambda c: C.check_fullness_on_subobjects(c.mc, depth=c.cfg["depth"]),
    "conservativity": lambda c: C.check_conservativity(c.mc, depth=c.cfg["depth"]),
    "isoinv": lambda c: C.check_iso_invariance(c.mc, depth=min(c.cfg["depth"], 2)),
    "pullback": lambda c: check_pullback_square(c.gos),
    "counit": lambda c: counit(c.form, c.cfg["depth"]),
    "unit": lambda c: unit(c.form, c.cfg["limit"]),
    "triangles": lambda c: check_triangle_identities(c.raw("unit"), c.cfg["limit"]),
    "sem": lambda c: check_sem_conditions(c.gos, c.cfg["nlimit"]),
    "coherent": lambda c: coherent_check(c.gos, c.cfg["kmax"]),
    "reconstruction": lambda c: check_reconstruction(c.raw("unit"), c.cfg["depth"]),
}

SUITES = tuple(_SUITE_CALLS)


def _counts(res):
    """The counit's object and arrow counts as JSON-keyed lists."""
    return {
        "object_counts": {str(k): list(v) for k, v in res["object_counts"].items()},
        "arrow_counts": {f"{j}->{k}": list(v) for (j, k), v in res["arrow_counts"].items()},
    }


def _counit_status(res):
    return {"verified": "pass", "inconclusive": "gated"}.get(res["status"], "fail")


def _unit_ok(res):
    return (
        not res["morphism_violations"]
        and res["over_S"]
        and all(r["ok"] for r in res["preimage_identities"])
    )


def _pass_if(ok):
    return "pass" if ok else "fail"


# Suites whose summary is not the library result itself.
_SUMMARIES = {
    "counit": lambda res: {"status": _counit_status(res), **_counts(res)},
    "unit": lambda res: {
        "status": _pass_if(_unit_ok(res)),
        "violations": res["morphism_violations"],
        "over_S": res["over_S"],
    },
    "triangles": lambda res: {
        "status": _pass_if(res["bottom"] and res["top"]),
        "bottom": res["bottom"],
        "top": res["top"],
    },
    "sem": lambda res: {
        "status": _pass_if(res["strongly_full"] and res["condition_ii"]),
        "open": res["open"],
        "strongly_full": res["strongly_full"],
        "condition_ii": res["condition_ii"],
        "closed_arrow_sets": res["n_count"],
    },
    "coherent": lambda res: {
        "status": _pass_if(res["ok"]),
        "frames": [
            {"k": e["k"], "size": e["frame_size"], "all_compact": e["all_compact"]}
            for e in res["i"]
        ],
        "projection_checks": len(res["ii"]),
        "degenerate_finite_frames": True,
    },
}


class _Context:
    """One command's theory and bounds.  Each suite runs on first use, and
    its result is kept until the command returns."""

    def __init__(self, theory, cfg, site_suites):
        self.theory = theory
        self.cfg = cfg
        self.site_suites = site_suites
        self.S = IndexSet(cfg["index_size"])
        self._results = {}

    @cached_property
    def mc(self):
        return model_class(self.theory, self.S, self.cfg["limit"])

    @cached_property
    def gos(self):
        """Mod(T) over the groupoid of sets."""
        return mod_functor(self.theory, self.S, self.cfg["limit"])

    @cached_property
    def form(self):
        """Form(Mod T), the relation category of the counit and the unit."""
        return form_functor(self.gos, self.cfg["kmax"])

    @cached_property
    def sites(self):
        """The site suites the command reads, from one walk over the sites."""
        return C.check_sites(self.mc, self.cfg["nlimit"], self.site_suites)

    def raw(self, name):
        if name not in self._results:
            if name not in _SUITE_CALLS:
                raise ModformError(f"unknown suite {name!r}")
            self._results[name] = _SUITE_CALLS[name](self)
        return self._results[name]

    def summary(self, name):
        summarize = _SUMMARIES.get(name)
        return summarize(self.raw(name)) if summarize else self.raw(name)


def _command_models(ctx):
    mc = ctx.mc
    return {
        "models": len(mc.models),
        "isomorphisms": len(mc.isos),
        "structures": [M.to_json() for M in mc.models],
        "status": "pass",
    }


def _command_topology(ctx):
    space = model_space(ctx.mc)
    sob, basis = ctx.raw("sobriety"), ctx.raw("basis")
    return {
        "opens": len(space.opens()),
        "open_sets": [sorted(o) for o in space.opens()],
        "subbasis": len(space.subbasis),
        "subbasis_names": [name for name, _ in space.subbasis],
        "filters": [sorted(f) for f in cp_filters(space)],
        "sobriety": sob,
        "basis_property": basis,
        "status": _worst([sob["status"], basis["status"]]),
    }


def _command_groupoid(ctx):
    ax, pre, op = ctx.raw("axioms"), ctx.raw("preimages"), ctx.raw("openness")
    g = build_model_groupoid(ctx.mc)
    return {
        "objects": g.objects.size,
        "arrows": g.arrows.size,
        "axioms": ax,
        "preimage_identities": pre,
        "openness": op,
        "d_c_open_maps": g.is_open(),
        "dump": g.to_json(),
        "status": _worst(r["status"] for r in (ax, pre, op)),
    }


def _command_sheaf(ctx, formula_text):
    mc = ctx.mc
    f = parse_formula_in_context(formula_text, ctx.theory.signature)
    sheaf = definable_sheaf(mc, f)
    violations = sheaf.check_invariants()
    over = sheaf.tuples_over(range(len(sheaf.points)))
    fibers = {str(i): sorted(map(list, ts)) for i, ts in enumerate(over)}
    return {
        "formula": str(f),
        "points": len(sheaf.points),
        "fibers": fibers,
        "action": [list(t) for t in sheaf.triples()],
        "basis_names": [name for name, _ in sheaf.space.subbasis],
        "stable_opens": len(sheaf.stable_opens()),
        "invariant_violations": violations,
        "status": _pass_if(not violations),
    }


def _command_site(ctx):
    density, sub = ctx.raw("density"), ctx.raw("subobjects")
    return {
        "sites": density["sites"],
        "density": density,
        "subobject_lattices": sub,
        "status": _worst([density["status"], sub["status"]]),
    }


def _command_dualize(ctx):
    res = ctx.raw("counit")
    out = {
        "counit_status": res["status"],
        **_counts(res),
        "object_bijection": {str(k): v for k, v in res.get("object_map", {}).items()},
        "gated_tests": {
            str(k): v for k, v in res.get("unmatched_objects", {}).items() if v
        },
    }
    statuses = [_counit_status(res)]
    if res.get("inconsistent"):
        out["triangles"] = {"bottom": True, "top": True}
    else:
        sem = ctx.raw("sem")
        out["sem_certificates"] = {
            "open": sem["open"],
            "strongly_full": sem["strongly_full"],
            "fullness_witnesses": sem["fullness_witnesses"],
            "condition_ii": sem["condition_ii"],
            "closed_arrow_sets": sem["n_count"],
            "witnesses": [
                {
                    "N_size": len(r["N"]),
                    "per_x": [
                        {"x": w["x"], "a": list(w["a"]) if w["a"] is not None else None}
                        for w in r["witnesses"]
                    ],
                }
                for r in sem["per_N"]
            ],
        }
        tri = ctx.raw("triangles")
        out["triangles"] = {"bottom": tri["bottom"], "top": tri["top"]}
        out["unit_ok"] = _unit_ok(ctx.raw("unit"))
        out["reconstruction"] = ctx.raw("reconstruction")["status"]
        statuses += [
            ctx.summary("triangles")["status"],
            _pass_if(out["unit_ok"]),
            out["reconstruction"],
        ]
    out["status"] = _worst(statuses)
    return out


def _command_check(ctx, suite):
    names = SUITES if suite == "all" else (suite,)
    results = {name: ctx.summary(name) for name in names}
    return {"suites": results, "status": _worst(r["status"] for r in results.values())}


def _command_report(ctx):
    out = {
        "models": _command_models(ctx),
        "topology": _command_topology(ctx),
        "groupoid": _command_groupoid(ctx),
        "site": _command_site(ctx),
        "dualize": _command_dualize(ctx),
        "checks": _command_check(ctx, "all"),
    }
    out["status"] = _worst(v["status"] for v in out.values())
    return out


# Each command on a context and its extra argument (a formula or a suite).
# The command functions are looked up at call time.
_COMMANDS = {
    "models": lambda ctx, extra: _command_models(ctx),
    "topology": lambda ctx, extra: _command_topology(ctx),
    "groupoid": lambda ctx, extra: _command_groupoid(ctx),
    "sheaf": lambda ctx, extra: _command_sheaf(ctx, extra),
    "site": lambda ctx, extra: _command_site(ctx),
    "dualize": lambda ctx, extra: _command_dualize(ctx),
    "check": lambda ctx, extra: _command_check(ctx, extra or "all"),
    "report": lambda ctx, extra: _command_report(ctx),
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="modform",
        description="finite-scale model groupoids, sheaves and dualization for geometric theories",
    )
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("args", nargs="*", help="suite name or formula, then the theory file")
    p.add_argument("--index-size", type=int, default=2, dest="index_size")
    p.add_argument("--kmax", type=int, default=1)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--limit", type=int, default=200_000)
    p.add_argument("--nlimit", type=int, default=10_000)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--suite", default=None, help="suite for `check` (alternative to positional)")
    return p


def _print_text(result, out):
    if "suites" in result:
        for name, res in result["suites"].items():
            print(f"{name}: {res['status']}", file=out)
    else:
        for k, v in sorted(result.items()):
            if isinstance(v, dict) and "status" in v:
                print(f"{k}: {v['status']}", file=out)
            elif isinstance(v, (int, bool, str)) and k != "status":
                print(f"{k}: {v}", file=out)
    print(f"overall: {result.get('status', 'pass')}", file=out)


def run(command, config, theory_text, extra=None, name=""):
    """Programmatic entry point: returns (exit_code, result_dict)."""
    theory = parse_theory(theory_text, name)
    if command not in _COMMANDS:
        raise ModformError(f"unknown command {command!r}")
    # `check density` or `check subobjects` alone runs only its own grader
    site_suites = (extra,) if command == "check" and extra in C.SITE_SUITES else C.SITE_SUITES
    result = _COMMANDS[command](_Context(theory, dict(config), site_suites), extra)
    status = result.get("status", "pass")
    code = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "gated": EXIT_GATED}.get(status, EXIT_FAIL)
    return code, result


def main(argv=None):
    try:
        ns = build_parser().parse_intermixed_args(argv)
    except SystemExit as e:  # exit 2 from argparse would read as "gated"
        return EXIT_PASS if e.code == 0 else EXIT_IO
    cfg = {key: getattr(ns, key) for key in ("index_size", "kmax", "depth", "limit", "nlimit")}
    for key, value in cfg.items():
        least = 1 if key == "index_size" else 0
        if value < least:
            print(f"--{key.replace('_', '-')} must be at least {least}", file=sys.stderr)
            return EXIT_IO
    args = list(ns.args)
    extra = None
    if ns.command == "check":
        if ns.suite is not None:
            extra = ns.suite
        elif len(args) > 1:
            extra = args.pop(0)
        else:
            extra = "all"
    if ns.command == "sheaf":
        if len(args) < 2:
            print("sheaf requires a formula and a theory file", file=sys.stderr)
            return EXIT_IO
        extra = args.pop(0)
    if len(args) != 1:
        print("expected exactly one theory file", file=sys.stderr)
        return EXIT_IO
    # the coherent suite reads the powers up to --kmax of the index set
    coherent = ns.command == "report" or (ns.command == "check" and extra in ("all", "coherent"))
    if coherent and cfg["kmax"] > cfg["index_size"]:
        print("--kmax must be at most --index-size for the coherent suite", file=sys.stderr)
        return EXIT_IO
    path = args[0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        code, result = run(ns.command, cfg, text, extra, name=path)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except LimitExceeded as e:
        print(f"limit exceeded: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except InvariantError as e:
        print(f"internal invariant violated (checker bug): {e}", file=sys.stderr)
        return EXIT_FAIL
    except ModformError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    payload = {"schema": 1, "command": ns.command, "config": cfg, "result": _jsonable(result)}
    if ns.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        _print_text(result, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
