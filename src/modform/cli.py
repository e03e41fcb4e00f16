"""Batch command-line interface.

Subcommands: models, topology, groupoid, sheaf, site, dualize, check,
report.  Exit codes: 0 all passed, 1 a check failed, 2 only
headroom-gated or inconclusive results, 3 I/O error, 4 parse error,
5 limit exceeded.  Identical configuration and input produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import checks as C
from .duality import (
    check_pullback_square,
    check_reconstruction,
    check_sem_conditions,
    check_triangle_identities,
    coherent_check,
    counit,
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


@dataclass
class RunConfig:
    """All run parameters with their documented defaults."""

    index_size: int = 2
    kmax: int = 1
    depth: int = 3
    limit: int = 200_000  # model-search node budget
    nlimit: int = 10_000  # closed-arrow-set enumeration budget
    format: str = "text"
    suite: str = "all"

    def __post_init__(self):
        for field in ("index_size", "kmax", "depth", "limit", "nlimit"):
            if getattr(self, field) < (1 if field == "index_size" else 0):
                raise ModformError(f"{field} must be positive")

    def as_dict(self):
        return {
            "index_size": self.index_size,
            "kmax": self.kmax,
            "depth": self.depth,
            "limit": self.limit,
            "nlimit": self.nlimit,
        }


def _config(config):
    if isinstance(config, RunConfig):
        return config.as_dict()
    return dict(config)

SUITES = (
    "axioms",
    "preimages",
    "sobriety",
    "star",
    "openness",
    "stabilization",
    "guns",
    "density",
    "subobjects",
    "basis",
    "fullness",
    "conservativity",
    "isoinv",
    "pullback",
    "counit",
    "unit",
    "triangles",
    "sem",
    "coherent",
    "reconstruction",
)


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


def _run_suite(name, theory, cfg):
    S = IndexSet(cfg["index_size"])
    mc = model_class(theory, S, cfg["limit"])
    if name == "axioms":
        return C.check_groupoid_axioms(mc)
    if name == "preimages":
        return C.check_preimage_identities(mc)
    if name == "sobriety":
        return C.check_sobriety(mc)
    if name == "star":
        return C.check_star(mc)
    if name == "openness":
        return C.check_openness(mc, depth=min(cfg["depth"], 2), ctx_max=2)
    if name == "stabilization":
        return C.check_stabilization(mc, depth=min(cfg["depth"], 2))
    if name == "guns":
        return C.check_guns(mc, depth=min(cfg["depth"], 2))
    if name == "density":
        return C.check_density(mc, cfg["nlimit"])
    if name == "subobjects":
        return C.check_gun_subobjects(mc, cfg["nlimit"])
    if name == "basis":
        return C.check_basis_property(mc, depth=cfg["depth"])
    if name == "fullness":
        return C.check_fullness_on_subobjects(mc, depth=cfg["depth"])
    if name == "conservativity":
        return C.check_conservativity(mc, depth=cfg["depth"])
    if name == "isoinv":
        return C.check_iso_invariance(mc, depth=min(cfg["depth"], 2))
    if name == "pullback":
        return check_pullback_square(theory, S, 1, cfg["limit"])
    if name == "counit":
        res = counit(theory, S, cfg["kmax"], cfg["depth"], cfg["limit"])
        out = {
            "status": {"verified": "pass", "inconclusive": "gated"}.get(res["status"], "fail"),
            "object_counts": {str(k): list(v) for k, v in res["object_counts"].items()},
            "arrow_counts": {f"{j}->{k}": list(v) for (j, k), v in res["arrow_counts"].items()},
        }
        return out
    if name == "unit":
        res = unit(mod_functor(theory, S, cfg["limit"]), cfg["kmax"], cfg["limit"])
        ok = not res["morphism_violations"] and res["over_S"] and all(
            r["ok"] for r in res["preimage_identities"]
        )
        return {
            "status": "pass" if ok else "fail",
            "violations": res["morphism_violations"],
            "over_S": res["over_S"],
        }
    if name == "triangles":
        res = check_triangle_identities(theory, S, cfg["kmax"], cfg["limit"])
        ok = res["bottom"] and res["top"]
        return {"status": "pass" if ok else "fail", "bottom": res["bottom"], "top": res["top"]}
    if name == "sem":
        res = check_sem_conditions(mod_functor(theory, S, cfg["limit"]), cfg["nlimit"])
        ok = res["strongly_full"] and res["condition_ii"]
        status = "pass" if ok else "fail"
        if ok and not res["open"]:
            status = "pass"  # openness shortfall reported, conditions hold
        return {
            "status": status,
            "open": res["open"],
            "strongly_full": res["strongly_full"],
            "condition_ii": res["condition_ii"],
            "closed_arrow_sets": res["n_count"],
        }
    if name == "coherent":
        res = coherent_check(mod_functor(theory, S, cfg["limit"]), cfg["kmax"])
        return {
            "status": "pass" if res["ok"] else "fail",
            "frames": [{"k": e["k"], "size": e["frame_size"], "all_compact": e["all_compact"]} for e in res["i"]],
            "projection_checks": len(res["ii"]),
            "degenerate_finite_frames": True,
        }
    if name == "reconstruction":
        return check_reconstruction(theory, S, cfg["kmax"], cfg["depth"], cfg["limit"])
    raise ModformError(f"unknown suite {name!r}")


def _command_models(theory, cfg):
    S = IndexSet(cfg["index_size"])
    mc = model_class(theory, S, cfg["limit"])
    return {
        "models": len(mc.models),
        "isomorphisms": len(mc.isos),
        "structures": [M.to_json() for M in mc.models],
        "status": "pass",
    }


def _command_topology(theory, cfg):
    S = IndexSet(cfg["index_size"])
    mc = model_class(theory, S, cfg["limit"])
    space = model_space(mc)
    sob = C.check_sobriety(mc)
    basis = C.check_basis_property(mc, depth=cfg["depth"])
    status = "pass"
    if sob["status"] == "gated":
        status = "gated"
    if "fail" in (sob["status"], basis["status"]):
        status = "fail"
    return {
        "opens": len(space.opens()),
        "open_sets": [sorted(o) for o in space.opens()],
        "subbasis": len(space.subbasis),
        "subbasis_names": [name for name, _ in space.subbasis],
        "filters": [sorted(f.min_open) for f in cp_filters(space)],
        "sobriety": sob,
        "basis_property": basis,
        "status": status,
    }


def _command_groupoid(theory, cfg):
    S = IndexSet(cfg["index_size"])
    mc = model_class(theory, S, cfg["limit"])
    ax = C.check_groupoid_axioms(mc)
    pre = C.check_preimage_identities(mc)
    op = C.check_openness(mc, depth=min(cfg["depth"], 2))
    g = build_model_groupoid(mc)
    results = [ax, pre, op]
    status = "pass"
    if any(r["status"] == "fail" for r in results):
        status = "fail"
    elif any(r["status"] == "gated" for r in results):
        status = "gated"
    return {
        "objects": g.objects.size,
        "arrows": g.arrows.size,
        "axioms": ax,
        "preimage_identities": pre,
        "openness": op,
        "d_c_open_maps": g.is_open(),
        "dump": g.to_json(),
        "status": status,
    }


def _command_sheaf(theory, cfg, formula_text):
    S = IndexSet(cfg["index_size"])
    mc = model_class(theory, S, cfg["limit"])
    f = parse_formula_in_context(formula_text, theory.signature)
    sheaf = definable_sheaf(mc, f)
    violations = sheaf.check_invariants()
    fibers = {}
    for i in range(len(mc.models)):
        fibers[str(i)] = sorted(
            [list(t) for p, (m, t) in enumerate(sheaf.points) if m == i]
        )
    return {
        "formula": str(f),
        "points": len(sheaf.points),
        "fibers": fibers,
        "action": sorted([a, p, q] for (a, p), q in sheaf.act.items()),
        "basis_names": [name for name, _ in sheaf.space.subbasis],
        "stable_opens": len(sheaf.stable_opens()),
        "invariant_violations": violations,
        "status": "pass" if not violations else "fail",
    }


def _command_site(theory, cfg):
    S = IndexSet(cfg["index_size"])
    mc = model_class(theory, S, cfg["limit"])
    density = C.check_density(mc, cfg["nlimit"])
    sub = C.check_gun_subobjects(mc, cfg["nlimit"])
    status = "pass"
    if "fail" in (density["status"], sub["status"]):
        status = "fail"
    elif "gated" in (density["status"], sub["status"]):
        status = "gated"
    return {
        "sites": density["sites"],
        "density": density,
        "subobject_lattices": sub,
        "status": status,
    }


def _command_dualize(theory, cfg):
    S = IndexSet(cfg["index_size"])
    res = counit(theory, S, cfg["kmax"], cfg["depth"], cfg["limit"])
    out = {
        "counit_status": res["status"],
        "object_counts": {str(k): list(v) for k, v in res["object_counts"].items()},
        "arrow_counts": {f"{j}->{k}": list(v) for (j, k), v in res["arrow_counts"].items()},
        "object_bijection": {str(k): v for k, v in res.get("object_map", {}).items()},
        "gated_tests": {
            str(k): v for k, v in res.get("unmatched_objects", {}).items() if v
        },
    }
    if not res.get("inconsistent"):
        sem = check_sem_conditions(mod_functor(theory, S, cfg["limit"]), cfg["nlimit"])
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
        tri = check_triangle_identities(theory, S, cfg["kmax"], cfg["limit"])
        un = tri["unit"]
        out["triangles"] = {"bottom": tri["bottom"], "top": tri["top"]}
        out["unit_ok"] = not un["morphism_violations"] and un["over_S"]
        rec = check_reconstruction(theory, S, cfg["kmax"], cfg["depth"], cfg["limit"])
        out["reconstruction"] = rec["status"]
        ok = (
            res["status"] == "verified"
            and tri["bottom"]
            and tri["top"]
            and out["unit_ok"]
            and rec["status"] == "pass"
        )
        out["status"] = "pass" if ok else ("gated" if res["status"] == "inconclusive" else "fail")
    else:
        out["triangles"] = {"bottom": True, "top": True}
        out["status"] = "pass" if res["status"] == "verified" else "fail"
    return out


def _command_check(theory, cfg, suite):
    names = SUITES if suite == "all" else (suite,)
    results = {}
    for name in names:
        results[name] = _run_suite(name, theory, cfg)
    worst = "pass"
    for r in results.values():
        if r["status"] == "fail":
            worst = "fail"
        elif r["status"] in ("gated", "inconclusive") and worst == "pass":
            worst = "gated"
    return {"suites": results, "status": worst}


def _command_report(theory, cfg):
    out = {
        "models": _command_models(theory, cfg),
        "topology": _command_topology(theory, cfg),
        "groupoid": _command_groupoid(theory, cfg),
        "site": _command_site(theory, cfg),
        "dualize": _command_dualize(theory, cfg),
        "checks": _command_check(theory, cfg, "all"),
    }
    statuses = [v["status"] for v in out.values()]
    out["status"] = (
        "fail" if "fail" in statuses else ("gated" if "gated" in statuses else "pass")
    )
    return out


def build_parser():
    p = argparse.ArgumentParser(
        prog="modform",
        description="finite-scale model groupoids, sheaves and dualization for geometric theories",
    )
    p.add_argument("command", choices=[
        "models", "topology", "groupoid", "sheaf", "site", "dualize", "check", "report",
    ])
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
    config = _config(config)
    theory = parse_theory(theory_text, name)
    if command == "models":
        result = _command_models(theory, config)
    elif command == "topology":
        result = _command_topology(theory, config)
    elif command == "groupoid":
        result = _command_groupoid(theory, config)
    elif command == "sheaf":
        result = _command_sheaf(theory, config, extra)
    elif command == "site":
        result = _command_site(theory, config)
    elif command == "dualize":
        result = _command_dualize(theory, config)
    elif command == "check":
        result = _command_check(theory, config, extra or "all")
    elif command == "report":
        result = _command_report(theory, config)
    else:
        raise ModformError(f"unknown command {command!r}")
    status = result.get("status", "pass")
    code = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "gated": EXIT_GATED}.get(status, EXIT_FAIL)
    return code, result


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_intermixed_args(argv)
    cfg = {
        "index_size": ns.index_size,
        "kmax": ns.kmax,
        "depth": ns.depth,
        "limit": ns.limit,
        "nlimit": ns.nlimit,
    }
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
