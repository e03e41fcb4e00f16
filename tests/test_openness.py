"""Openness certificates by point-set algebra against the formula-building
open_image_d they replaced.

The reference below is the earlier implementation: it normalizes the arrow
array by rewriting formulas, builds the merged basic open of every
certificate entry as a formula and evaluates it on every model.  The new
open_image_d must agree with it on every instance of check_openness's
sweep: the same status, image and union, the same gates and failures as
(model, parameters) sets, and certificate entries whose rendered opens are
the reference's opens, in the same order, with the points the formulas
evaluate to.

check_openness builds one OpennessPlan per (codomain open, pairs) case and
decides it once per domain point set; the tests at the end hold that sweep
to open_image_d on every instance, also on a corrupted class."""

import random

import pytest

from modform import checks, groupoid
from modform.checks import _basic_open_m_choices, _openness_sweep, check_openness
from modform.errors import InvariantError, SignatureError
from modform.groupoid import certificate_open, open_image_d
from modform.logic import EQUALITY_THEORY, Eq, Var, conj, fic, substitute
from modform.models import IndexSet, build_model_class, model_class, star_headroom
from modform.parser import parse_theory
from modform.search import FormulaSearch
from modform.topology import (
    BasicOpenI,
    BasicOpenM,
    basic_open_arrows,
    basic_open_points,
    trivial_open_m,
)

THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P/1": parse_theory("rel P/1\n"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"),
}


def reference_merge_duplicate_entries(formula_in_context, params):
    f = formula_in_context
    ctx = list(f.context)
    phi = f.formula
    params = list(params)
    while True:
        dup = None
        for j in range(len(params)):
            for i in range(j):
                if params[i] == params[j]:
                    dup = (i, j)
                    break
            if dup:
                break
        if not dup:
            break
        i, j = dup
        ren = {v: Var(v) for v in ctx}
        ren[ctx[j]] = Var(ctx[i])
        phi = substitute(phi, ren)
        del ctx[j]
        del params[j]
    return fic(ctx, phi), tuple(params)


def reference_normalize_v_array(v):
    dom_f, dom_p = v.dom.formula, list(v.dom.params)
    cod_f, cod_p = v.cod.formula, list(v.cod.params)
    pairs = list(v.pairs)
    dom_extra = []
    cod_extra = []
    out = []
    for bsrc, ctgt in pairs:
        hit = next((p for p in out if p[0] == bsrc), None)
        if hit is None:
            out.append((bsrc, ctgt))
        elif hit[1] != ctgt:
            cod_extra.append((hit[1], ctgt))
    pairs = out
    out = []
    for bsrc, ctgt in pairs:
        hit = next((p for p in out if p[1] == ctgt), None)
        if hit is None:
            out.append((bsrc, ctgt))
        elif hit[0] != bsrc:
            dom_extra.append((hit[0], bsrc))
    pairs = out

    def extend(formula, params, extra):
        ctx = list(formula.context)
        phi = formula.formula
        params = list(params)
        parts = [phi]
        for p, q in extra:
            u, w = f"x{len(ctx)}", f"x{len(ctx) + 1}"
            ctx += [u, w]
            params += [p, q]
            parts.append(Eq(Var(u), Var(w)))
        return fic(ctx, conj(parts)), tuple(params)

    dom_fc, dom_params = extend(dom_f, dom_p, dom_extra)
    cod_fc, cod_params = extend(cod_f, cod_p, cod_extra)
    cod_fc, cod_params = reference_merge_duplicate_entries(cod_fc, cod_params)
    return BasicOpenI(
        BasicOpenM(dom_fc, dom_params), tuple(pairs), BasicOpenM(cod_fc, cod_params)
    )


def reference_open_image_d(mc, v):
    norm = reference_normalize_v_array(v)
    arrows = basic_open_arrows(mc, norm)
    if arrows != basic_open_arrows(mc, v):
        raise SignatureError("normalization changed the arrow set")
    d_image = frozenset(mc.iso_dom[j] for j in arrows)

    dom_fc, a_params = norm.dom.formula, norm.dom.params
    cod_fc, e_params = norm.cod.formula, norm.cod.params
    pairs = norm.pairs
    p, q, r = len(a_params), len(e_params), len(pairs)
    ctx = [f"x{i}" for i in range(p + q + r)]
    phi = substitute(dom_fc.formula, {w: Var(ctx[i]) for i, w in enumerate(dom_fc.context)})
    psi = substitute(cod_fc.formula, {w: Var(ctx[p + i]) for i, w in enumerate(cod_fc.context)})
    merged = conj([phi, psi])

    certificate = []
    seen_opens = set()
    for j in sorted(arrows):
        f = mc.isos[j]
        M, N = f.dom, f.cod
        inv = {w: k for k, w in f.mapping.items()}
        ks = []
        for ej in e_params:
            forced = next((bsrc for bsrc, ctgt in pairs if ctgt == ej), None)
            if forced is not None:
                ks.append(forced)
                continue
            pre_key = inv[N.block_key(ej)]
            block = next(blk for blk in M.blocks if blk[0] == pre_key)
            taken = {b for b, _ in pairs} | set(ks)
            choice = next((x for x in block if x not in taken), block[0])
            ks.append(choice)
        all_params = tuple(a_params) + tuple(ks) + tuple(b for b, _ in pairs)
        bop = BasicOpenM(fic(ctx, merged), all_params)
        key = (bop.formula, bop.params)
        if key not in seen_opens:
            seen_opens.add(key)
            certificate.append((bop, tuple(ks)))

    union = frozenset()
    for bop, _ in certificate:
        union |= basic_open_points(mc, bop)
    assert d_image <= union

    gates = []
    failures = []
    if union != d_image:
        for bop, ks in certificate:
            for K_idx in sorted(basic_open_points(mc, bop) - d_image):
                K = mc.models[K_idx]
                sources = tuple(ks) + tuple(b for b, _ in pairs)
                targets = tuple(e_params) + tuple(c for _, c in pairs)
                dedup = {}
                consistent = True
                for s, t in zip(sources, targets):
                    if dedup.get(t, s) != s:
                        consistent = False
                    dedup[t] = s
                srcs = tuple(dedup[t] for t in dedup)
                tgts = tuple(dedup)
                if consistent and star_headroom(K, srcs, tgts, mc.S):
                    failures.append((K_idx, bop))
                else:
                    gates.append((K_idx, bop))
    status = "failed" if failures else ("gated" if gates else "verified")
    return {
        "image": d_image,
        "certificate": [bop for bop, _ in certificate],
        "union": union,
        "status": status,
        "gates": gates,
        "failures": failures,
    }


def visited_instances(mc, depth):
    """Every arrow array of check_openness's sweep, in sweep order: all of
    them, not only those it decides."""
    doms, cases = _openness_sweep(mc, depth, 2)
    return [BasicOpenI(dom, pairs, cod) for dom in doms for cod, pairs in cases]


def assert_matches_reference(mc, v):
    new = open_image_d(mc, v)
    ref = reference_open_image_d(mc, v)
    assert new["status"] == ref["status"], v
    assert new["image"] == ref["image"], v
    assert new["union"] == ref["union"], v
    assert len(new["certificate"]) == len(ref["certificate"]), v
    params_of = {}
    for (ks, pts), bop in zip(new["certificate"], ref["certificate"]):
        rendered = certificate_open(v, ks)
        assert rendered == bop, v
        assert basic_open_points(mc, rendered) == pts, v
        params_of[ks] = rendered.params
    for key in ("gates", "failures"):
        got = {(K, params_of[ks]) for K, ks in new[key]}
        assert got == {(K, bop.params) for K, bop in ref[key]}, (key, v)
        assert len(new[key]) == len(ref[key]), (key, v)
    return new["status"]


@pytest.mark.parametrize("name,depth,sample", [("T_eq", 2, None), ("symE", 1, None), ("P/1", 1, 3000)])
def test_open_image_d_matches_formula_reference(name, depth, sample):
    mc = model_class(THEORIES[name], IndexSet(2))
    instances = visited_instances(mc, depth)
    if sample is not None:
        instances = random.Random(20261018).sample(instances, sample)
    statuses = [assert_matches_reference(mc, v) for v in instances]
    # both outcomes occur, so the gate diagnosis is compared too
    assert {"verified", "gated"} <= set(statuses)


@pytest.mark.parametrize("name,n,depth,count", [
    ("T_eq", 2, 2, 19), ("P/1", 2, 1, 28), ("symE", 2, 1, 32), ("T_eq", 3, 2, 36),
])
def test_basic_open_choices_are_distinct(name, n, depth, count):
    # _openness_sweep yields every (dom, pairs, cod) once without a
    # seen-set because these opens are distinct
    mc = model_class(THEORIES[name], IndexSet(n))
    choices = _basic_open_m_choices(mc, FormulaSearch(mc), 2, depth)
    assert len(choices) == count
    assert len({(b.formula, b.params) for b in choices}) == count


def test_normalization_guard_is_an_invariant_error(monkeypatch):
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    v = BasicOpenI(trivial_open_m(), ((0, 1),), trivial_open_m())
    monkeypatch.setattr(groupoid, "basic_open_arrows", lambda mc, v: frozenset())
    with pytest.raises(InvariantError, match="normalization changed the arrow set"):
        open_image_d(mc, v)


def test_uncovered_image_names_the_cover_check(monkeypatch):
    # empty definedness opens leave the arrow set (and so the guard above)
    # alone but empty every certificate open of an array with pairs
    mc = build_model_class(EQUALITY_THEORY, IndexSet(2))
    v = BasicOpenI(trivial_open_m(), ((0, 1),), trivial_open_m())
    monkeypatch.setattr(mc, "equal", lambda a, b: frozenset())
    with pytest.raises(InvariantError, match="not covered by its certificate"):
        open_image_d(mc, v)


# ---------------------------------------------------------------------------
# the sweep of check_openness: one plan per case, one decision per domain
# point set

SWEEPS = [("T_eq", 2), ("P/1", 1), ("symE", 1)]


def memo_key(mc, v):
    return (basic_open_points(mc, v.dom), v.pairs, v.cod)


def reference_sweep(mc, depth):
    """check_openness without its plans and their reuse: open_image_d on
    every instance, in sweep order."""
    out = {"verified": 0, "gated": 0, "failures": []}
    for v in visited_instances(mc, depth):
        status = open_image_d(mc, v)["status"]
        if status == "failed":
            out["failures"].append(str(v))
        else:
            out[status] += 1
    return out


def recording_sweep(mc, depth, monkeypatch):
    """check_openness, with the (pairs, codomain open) of each plan it
    builds and the (domain points, pairs, codomain open) of each decision."""
    plans, decisions = [], []

    class RecordingPlan(groupoid.OpennessPlan):
        def __init__(self, mc, pairs, cod):
            super().__init__(mc, pairs, cod)
            plans.append((pairs, cod))

        def decide(self, dom_points):
            decisions.append((dom_points, self.pairs, self.cod))
            return super().decide(dom_points)

    with monkeypatch.context() as m:
        m.setattr(checks, "OpennessPlan", RecordingPlan)
        res = check_openness(mc, depth=depth)
    return res, plans, decisions


@pytest.mark.parametrize("name,depth", SWEEPS)
def test_open_image_d_sees_the_domain_open_only_through_its_points(name, depth):
    mc = model_class(THEORIES[name], IndexSet(2))
    doms = _basic_open_m_choices(mc, FormulaSearch(mc), 2, depth)
    groups = {}
    for dom in doms:
        groups.setdefault(basic_open_points(mc, dom), []).append(dom)
    shared = [g for g in groups.values() if len(g) > 1]
    assert shared  # the sweep has instances to share
    cases = {(v.pairs, v.cod) for v in visited_instances(mc, depth)}
    for group in shared:
        for pairs, cod in cases:
            first = open_image_d(mc, BasicOpenI(group[0], pairs, cod))
            for dom in group[1:]:
                assert open_image_d(mc, BasicOpenI(dom, pairs, cod)) == first, (dom, pairs, cod)


# (pairs, codomain open) cases of each sweep: one plan each
CASES = {"T_eq": 304, "P/1": 448, "symE": 512}


@pytest.mark.parametrize("name,depth,count,decided", [
    ("T_eq", 2, 5776, 2128), ("P/1", 1, 12544, 4480), ("symE", 1, 16384, 5632),
])
def test_memoized_sweep_matches_memo_free_loop(name, depth, count, decided, monkeypatch):
    mc = model_class(THEORIES[name], IndexSet(2))
    res, plans, decisions = recording_sweep(mc, depth, monkeypatch)
    ref = reference_sweep(mc, depth)
    assert {k: res[k] for k in ref} == ref
    instances = visited_instances(mc, depth)
    assert len(instances) == count
    # every (pairs, codomain open) plan is built once
    assert len(plans) == len(set(plans)) == CASES[name]
    assert set(plans) == {(v.pairs, v.cod) for v in instances}
    # every key is decided, once
    assert len(decisions) == len(set(decisions)) == decided
    assert set(decisions) == {memo_key(mc, v) for v in instances}


@pytest.mark.parametrize("name,depth", SWEEPS)
def test_memoized_sweep_lists_every_failing_instance(name, depth, monkeypatch):
    mc = model_class(THEORIES[name], IndexSet(2))
    instances = visited_instances(mc, depth)
    failing = {memo_key(mc, v) for v in random.Random(20261019).sample(instances, 40)}
    decide = groupoid.OpennessPlan.decide

    def fail_some(plan, dom_points):
        if (dom_points, plan.pairs, plan.cod) in failing:
            return {"status": "failed"}
        return decide(plan, dom_points)

    # open_image_d decides through the same method, so the reference sees
    # the same failures
    monkeypatch.setattr(groupoid.OpennessPlan, "decide", fail_some)
    res = check_openness(mc, depth=depth)
    ref = reference_sweep(mc, depth)
    assert res["status"] == "fail"
    assert res["failures"] == ref["failures"]
    assert (res["verified"], res["gated"]) == (ref["verified"], ref["gated"])
    # one entry per failing instance, not one per failing key
    assert len(res["failures"]) == sum(memo_key(mc, v) in failing for v in instances) > len(failing)


@pytest.mark.parametrize("name,depth,count", [("T_eq", 2, 200), ("P/1", 1, 722), ("symE", 1, 1058)])
def test_sweep_fails_where_arrows_are_missing(name, depth, count):
    # drop from the preservation set <0->1> every arrow out of the largest
    # model of its domain image: the certificate opens, which are read off
    # the formulas, still hold that model, so d loses openness with
    # headroom to spare, and the sweep must fail exactly where the per
    # instance loop does
    mc = build_model_class(THEORIES[name], IndexSet(2))
    pres = mc.preserving(0, 1)
    top = max(mc.iso_dom[j] for j in pres)
    mc._preserving[(0, 1)] = frozenset(j for j in pres if mc.iso_dom[j] != top)
    res = check_openness(mc, depth=depth)
    ref = reference_sweep(mc, depth)
    assert res["status"] == "fail"
    assert (res["verified"], res["gated"]) == (ref["verified"], ref["gated"])
    assert res["failures"] == ref["failures"]
    assert len(res["failures"]) == count
