"""The benchmark's workloads, its layer map and its verdict check.

Each workload is a fixed command sequence that one fresh interpreter
runs through ``modform.cli.main(argv + ["--format", "json"])``, one
command after another.  Why each workload exists is in README.md; in
short, each of ROADMAP items 2-4 has its hot path in one workload and is
nearly bypassed by the other.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

T_EQ = "perfbench/theories/T_eq.thy"
P1 = "perfbench/theories/P1.thy"
SYM_E = "perfbench/theories/symE.thy"

# Every workload starts with a report on T_eq at index size 1: it takes
# about 0.1 s and calls every traced entry point once, so each per-layer
# metric is a measurement in every workload rather than a constant zero.
SMOKE = ["report", T_EQ, "--index-size", "1"]

WORKLOADS = {
    "build-lattice": [
        SMOKE,
        ["models", T_EQ, "--index-size", "4"],
        ["check", "axioms", SYM_E, "--index-size", "3"],
        ["check", "preimages", SYM_E, "--index-size", "3"],
        ["check", "star", SYM_E, "--index-size", "3"],
        ["check", "sem", T_EQ, "--index-size", "3"],
    ],
    "opens-sheaves": [
        SMOKE,
        ["groupoid", SYM_E, "--index-size", "2", "--depth", "1"],
        ["site", SYM_E, "--index-size", "2"],
        ["dualize", P1, "--index-size", "2"],
    ],
}

# Seconds a single command may take before its interpreter is killed and
# the command counts as failed; about five times the slowest seed command.
COMMAND_TIMEOUT_S = 60.0


def command_argv(cmd):
    return list(cmd) + ["--format", "json"]


def _model_counts(mc):
    return {"models.models": len(mc.models), "models.isos": len(mc.isos)}


# (module, qualname, span, observe) for every wrapped entry point, grouped
# by layer.  Spans mark the coarse calls: commands, suites, whole stages.
TRACE_TARGETS = [
    ("modform.models", "build_model_class", True, _model_counts),
    ("modform.models", "ModelClass.__init__", False, None),
    ("modform.models", "enumerate_isomorphisms", False, None),
    ("modform.models", "ModelClass.ext", False, None),
    ("modform.models", "eval_formula", False, None),
    ("modform.models", "star_lemma", False, None),
    ("modform.topology", "basic_open_points", False, None),
    ("modform.topology", "basic_open_arrows", False, None),
    ("modform.topology", "atomic_opens", False, None),
    ("modform.topology", "FinSpace.__init__", False, None),
    ("modform.topology", "FinSpace.opens", False, None),
    ("modform.topology", "model_space", False, None),
    ("modform.topology", "arrow_space", False, None),
    ("modform.groupoid", "TopGroupoid.check_algebra", False, None),
    ("modform.groupoid", "TopGroupoid.check_continuity", False, None),
    ("modform.groupoid", "structure_map_preimages", False, None),
    ("modform.groupoid", "open_image_d", False, None),
    ("modform.groupoid", "build_model_groupoid", False, None),
    ("modform.search", "FormulaSearch.classes", False, None),
    ("modform.sheaves", "definable_sheaf", False, None),
    ("modform.sheaves", "moerdijk_sheaf", False, None),
    ("modform.sheaves", "density_certificate", False, None),
    ("modform.sheaves", "lift_section", False, None),
    ("modform.sheaves", "stable_opens_of_site", False, None),
    ("modform.duality", "enumerate_stable_arrow_sets", False, None),
    ("modform.duality", "closed_hull", False, None),
    ("modform.duality", "check_sem_conditions", True, None),
    ("modform.duality", "counit", True, None),
    ("modform.duality", "unit", True, None),
    ("modform.duality", "mod_functor", False, None),
    ("modform.duality", "check_triangle_identities", True, None),
    ("modform.duality", "check_reconstruction", True, None),
    ("modform.duality", "form_functor", False, None),
    ("modform.checks", "check_groupoid_axioms", True, None),
    ("modform.checks", "check_preimage_identities", True, None),
    ("modform.checks", "check_star", True, None),
    ("modform.checks", "check_openness", True, None),
    ("modform.checks", "check_density", True, None),
    ("modform.checks", "check_gun_subobjects", True, None),
    ("modform.cli", "main", True, None),
]

# Entry points whose inclusive time is reported besides their self time.
INCLUSIVE = {
    "models.build_model_class",
    "search.FormulaSearch.classes",
    "sheaves.density_certificate",
    "duality.enumerate_stable_arrow_sets",
    "checks.check_groupoid_axioms",
    "checks.check_preimage_identities",
    "checks.check_star",
    "checks.check_openness",
    "checks.check_density",
    "checks.check_gun_subobjects",
    "cli.main",
}

COUNTERS = ["models.models", "models.isos"]


def entry_names():
    return [f"{m.rsplit('.', 1)[-1]}.{q}" for m, q, _, _ in TRACE_TARGETS]


def per_layer_metrics():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in entry_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if name in INCLUSIVE:
            out.append((f"{name}.incl_s", "s"))
    out += [(c, "count") for c in COUNTERS]
    out.append(("models.ext.eval_per_lookup", "ratio"))
    return out


# Output fields that carry a command's verdict.  Lists under them are
# compared whole, except `failures`, which is compared by length.
HEADLINE_KEYS = {
    "status", "counit_status", "models", "isomorphisms", "objects", "arrows",
    "verified", "gated", "failures", "sites", "object_counts", "closed_arrow_sets",
    "checked", "headroom_skipped", "pairs",
}
SKIP_KEYS = {"dump", "structures"}


def headline(payload):
    """The verdict fields of a command's JSON output, keyed by path."""
    out = {}

    def walk(node, path):
        for key, value in node.items():
            if key in SKIP_KEYS:
                continue
            where = f"{path}/{key}" if path else key
            if key in HEADLINE_KEYS:
                out[where] = len(value) if key == "failures" else value
            elif isinstance(value, dict):
                walk(value, where)

    walk(payload.get("result", {}), "")
    return out


def verdict_of(stdout):
    """(headline, sha256) of a command's standard output."""
    sha = hashlib.sha256(stdout.encode()).hexdigest()
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None, sha
    return headline(payload), sha


def verdict_diff(expected, code, head):
    """Differences between a command's verdict and the recorded one."""
    diffs = []
    if code != expected["code"]:
        diffs.append(f"exit code {code}, expected {expected['code']}")
    if head is None:
        diffs.append("output is not JSON")
        return diffs
    for key in sorted(set(expected["headline"]) | set(head)):
        want, got = expected["headline"].get(key), head.get(key)
        if want != got:
            diffs.append(f"{key} = {got!r}, expected {want!r}")
    return diffs


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
