"""Topological groupoids of models: algebra, continuity, preimage
identities, openness certificates, restriction morphisms."""

import random

import pytest

from modform import groupoid
from modform.checks import check_preimage_identities
from modform.errors import InvariantError
from modform.groupoid import (
    GroupoidMorphism,
    TopGroupoid,
    build_model_groupoid,
    certificate_open,
    identity_morphism,
    mod_on_interpretation,
    open_image_d,
    structure_map_preimages,
)
from modform.logic import (
    EQUALITY_THEORY,
    Eq,
    Exists,
    INCONSISTENT_THEORY,
    Interpretation,
    Rel,
    TOP,
    Var,
    fic,
    identity_interpretation,
    initial_interpretation,
)
from modform.models import IndexSet, IndexedStructure, build_model_class, model_class
from modform.parser import parse_theory
from modform.topology import (
    BasicOpenI,
    BasicOpenM,
    arrow_space,
    basic_open_arrows,
    basic_open_points,
    trivial_open_m,
)

SYM_E = "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)"


def test_equality_groupoid_counts():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    g = build_model_groupoid(mc)
    assert g.objects.size == 5 and g.arrows.size == 12
    assert g.check_algebra() == []


def test_equality_groupoid_at_one_index():
    mc = model_class(EQUALITY_THEORY, IndexSet(1))
    g = build_model_groupoid(mc)
    assert g.objects.size == 2 and g.arrows.size == 2
    assert all(g.e[x] in range(2) for x in range(2))
    assert g.check_algebra() == []


def test_inconsistent_theory_gives_empty_groupoid():
    mc = model_class(INCONSISTENT_THEORY, IndexSet(2))
    g = build_model_groupoid(mc)
    assert g.objects.size == 0 and g.arrows.size == 0
    assert g.check_algebra() == []


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("text", ["", SYM_E])
def test_algebra_and_continuity_small_sizes(text, n):
    theory = parse_theory(text) if text else EQUALITY_THEORY
    mc = model_class(theory, IndexSet(n))
    g = build_model_groupoid(mc)
    assert g.check_algebra() == []
    assert all(g.check_continuity().values())


def _rows(g):
    """A mutable copy of a groupoid's composite rows."""
    return [list(row) for row in g.composites]


def _outcome(call):
    """call(), or the type of the IndexError it raises when the walk reads a
    row shorter than its fiber."""
    try:
        return call()
    except IndexError as err:
        return type(err)


def _with_rows(g, rows):
    """A copy of a groupoid with other composite rows and the same spaces.

    Rows that no longer compose the pair masks, or not the composable
    pairs, leave the m law to the walk, whose verdicts check_continuity
    returns."""
    h = TopGroupoid(g.objects, g.arrows, g.d, g.c, g.e, g.i, [tuple(row) for row in rows])
    walked, walk = [], h.continuity_walk
    h.continuity_walk = lambda laws: walked.extend(laws) or walk(laws)
    got = _outcome(h.check_continuity)
    del h.continuity_walk
    assert (got, walked) == (_outcome(lambda: walk("dceim")), ["m"])
    return h


def test_algebra_reports_a_missing_composable_pair():
    # a short row: the composite of its last pair is missing
    g = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(2)))
    rows = _rows(g)
    rows[0].pop()
    assert _with_rows(g, rows).check_algebra() == [
        "composition table domain is not the composable pairs"
    ]


def test_algebra_reports_a_non_composable_pair():
    # a long row: one entry more than the fiber has pairs
    g = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(2)))
    n = g.arrows.size
    a, b = next((a, b) for a in range(n) for b in range(n) if g.d[a] != g.c[b])
    rows = _rows(g)
    rows[a].append(a)
    assert _with_rows(g, rows).check_algebra() == [
        "composition table domain is not the composable pairs"
    ]


def test_algebra_reports_a_wrong_number_of_rows():
    g = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(2)))
    for rows in (_rows(g)[:-1], _rows(g) + [()]):
        assert _with_rows(g, rows).check_algebra() == [
            "composition table domain is not the composable pairs"
        ]


def test_algebra_reports_a_composite_with_wrong_endpoints():
    g = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(2)))
    a, b = next(g.composable())
    ab = g.compose(a, b)
    x = next(x for x in range(g.arrows.size) if (g.d[x], g.c[x]) != (g.d[ab], g.c[ab]))
    rows = _rows(g)
    rows[a][g.place[b]] = x
    assert _with_rows(g, rows).check_algebra() == [f"m({a},{b}) has wrong endpoints"]


def test_algebra_reports_broken_associativity():
    gr = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(3)))
    identities, n = set(gr.e), gr.arrows.size
    # a composite with a parallel twin, from arrows that the unit and
    # inverse laws never compose with each other
    a, b, x = next(
        (a, b, x)
        for a, b in gr.composable()
        if a not in identities and b not in identities and a != gr.i[b]
        for x in range(n)
        if x != gr.compose(a, b) and (gr.d[x], gr.c[x]) == (gr.d[b], gr.c[a])
    )
    rows = _rows(gr)
    rows[a][gr.place[b]] = x
    broken = _with_rows(gr, rows)
    m = broken.compose
    # every failing triple, found by scanning all triples of arrows
    want = [
        f"associativity fails at ({h},{g},{f})"
        for h in range(n)
        for g in range(n)
        for f in range(n)
        if gr.d[h] == gr.c[g] and gr.d[g] == gr.c[f] and m(m(h, g), f) != m(h, m(g, f))
    ]
    assert want and broken.check_algebra() == want


@pytest.mark.parametrize("text,n", [("", 3), (SYM_E, 2)])
def test_composites_swapped_in_one_row_break_only_the_pair_composite(text, n):
    # g∘f1 and g∘f2 swapped, for f1 and f2 with one domain: the rows stay
    # well typed over the composable pairs, e and i keep their identities,
    # and only pairs[g∘f] = pairs[g] ∘ pairs[f] fails, so the walk decides m
    theory = parse_theory(text) if text else EQUALITY_THEORY
    gr = build_model_groupoid(model_class(theory, IndexSet(n)))
    g, f1, f2 = next(
        (g, f1, f2)
        for g in range(gr.arrows.size)
        for f1 in gr.into.get(gr.d[g], ())
        for f2 in gr.into.get(gr.d[g], ())
        if f1 < f2 and gr.d[f1] == gr.d[f2]
    )
    rows = _rows(gr)
    row = rows[g]
    row[gr.place[f1]], row[gr.place[f2]] = row[gr.place[f2]], row[gr.place[f1]]
    swapped = _with_rows(gr, rows)
    assert swapped.mistyped == []
    assert swapped.check_continuity() == {"d": True, "c": True, "e": True, "i": True, "m": False}


def test_algebra_reports_a_moved_pair():
    # as many entries as composable pairs, but one row short and another
    # long: a composite moved to a pair that is not composable
    g = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(2)))
    n = g.arrows.size
    first = next(g.composable())
    a, b = next((a, b) for a in range(n) for b in range(n) if g.d[a] != g.c[b] and a != first[0])
    rows = _rows(g)
    rows[a].append(rows[first[0]].pop(g.place[first[1]]))
    assert sum(map(len, rows)) == sum(1 for _ in g.composable())
    assert _with_rows(g, rows).check_algebra() == [
        "composition table domain is not the composable pairs"
    ]


def triple_walk_laws(g):
    """The unit, inverse and associativity laws of well-typed rows, with
    associativity checked on every composable triple."""
    bad = []
    m = g.compose
    for f in range(g.arrows.size):
        if m(g.e[g.c[f]], f) != f or m(f, g.e[g.d[f]]) != f:
            bad.append(f"unit law fails at {f}")
        if m(g.i[f], f) != g.e[g.d[f]]:
            bad.append(f"inverse law fails at {f}")
        if m(f, g.i[f]) != g.e[g.c[f]]:
            bad.append(f"inverse law (other side) fails at {f}")
    for h, k in g.composable():
        for f in g.into.get(g.d[k], ()):
            if m(m(h, k), f) != m(h, m(k, f)):
                bad.append(f"associativity fails at ({h},{k},{f})")
    return bad


@pytest.mark.parametrize("text,n", [("", 3), (SYM_E, 2)])
def test_row_associativity_matches_the_triple_walk(text, n):
    theory = parse_theory(text) if text else EQUALITY_THEORY
    gr = build_model_groupoid(model_class(theory, IndexSet(n)))
    ends = {}
    for pair in gr.composable():
        gf = gr.compose(*pair)
        ends.setdefault((gr.d[gf], gr.c[gf]), []).append(pair)
    rng = random.Random(17)
    broken = 0
    for _ in range(12):
        # two composites with the same endpoints but different values, swapped
        pairs = rng.choice([ps for ps in ends.values() if len({gr.compose(*p) for p in ps}) > 1])
        p, q = rng.sample(pairs, 2)
        while gr.compose(*p) == gr.compose(*q):
            p, q = rng.sample(pairs, 2)
        rows = _rows(gr)
        (pg, pf), (qg, qf) = p, q
        rows[pg][gr.place[pf]], rows[qg][gr.place[qf]] = gr.compose(*q), gr.compose(*p)
        swapped = _with_rows(gr, rows)
        want = triple_walk_laws(swapped)
        assert swapped.check_algebra() == want
        broken += any(m.startswith("associativity") for m in want)
    assert broken


def test_s_groupoid_is_equality_groupoid():
    for n in (1, 2):
        S = IndexSet(n)
        gs = build_model_groupoid(model_class(EQUALITY_THEORY, S))
        g = build_model_groupoid(model_class(EQUALITY_THEORY, S))
        assert gs is g


def test_preimage_identities_all_pairs():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    for a in range(2):
        for b in range(2):
            r = structure_map_preimages(mc, a, b)
            assert all(v["ok"] for v in r.values()), (a, b)


def test_preimage_identity_e_value():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    r = structure_map_preimages(mc, 0, 0)
    want = basic_open_points(mc, BasicOpenM(fic(["x", "y"], Eq(Var("x"), Var("y"))), (0, 0)))
    assert r["e"]["computed"] == want
    assert len(want) == 3


def test_preimage_identity_i_value():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    r = structure_map_preimages(mc, 0, 1)
    flip = basic_open_arrows(mc, BasicOpenI(trivial_open_m(), ((1, 0),), trivial_open_m()))
    assert r["i"]["computed"] == flip


def test_preimage_identities_symmetric_relation():
    t = parse_theory(SYM_E)
    mc = model_class(t, IndexSet(2))
    for a in range(2):
        for b in range(2):
            r = structure_map_preimages(mc, a, b)
            assert all(v["ok"] for v in r.values())


def reference_m_expect(mc, a, b):
    """The union over c of <c->b> x <a->c> on composable pairs, testing
    every pair of the product."""
    g = build_model_groupoid(mc)
    pres = lambda p, q: basic_open_arrows(
        mc, BasicOpenI(trivial_open_m(), ((p, q),), trivial_open_m())
    )
    return frozenset(
        (gj, fj)
        for c in mc.S.elements()
        for gj in pres(c, b)
        for fj in pres(a, c)
        if g.d[gj] == g.c[fj]
    )


@pytest.mark.parametrize(
    "text,n",
    [("", 2), ("rel P/1", 2), (SYM_E, 2), ("", 3)],
    ids=["T_eq-2", "P/1-2", "symE-2", "T_eq-3"],
)
def test_preimage_m_expect_matches_all_pairs_scan(text, n):
    theory = parse_theory(text) if text else EQUALITY_THEORY
    mc = model_class(theory, IndexSet(n))
    for a in range(n):
        for b in range(n):
            r = structure_map_preimages(mc, a, b)["m"]
            assert r["expected"] == reference_m_expect(mc, a, b), (a, b)
            assert r["ok"] and r["expected"], (a, b)


def per_pair_preimages(mc):
    """check_preimage_identities built from structure_map_preimages, one
    (a, b) at a time."""
    results = [
        ((a, b), {law: r["ok"] for law, r in structure_map_preimages(mc, a, b).items()})
        for a in mc.S.elements()
        for b in mc.S.elements()
    ]
    failures = [(ab, oks) for ab, oks in results if not all(oks.values())]
    return {"status": "fail" if failures else "pass", "pairs": len(results), "failures": failures}


@pytest.mark.parametrize(
    "text,n",
    [(t, n) for t in ("", "rel P/1", SYM_E) for n in (1, 2, 3)] + [("", 4)],
    ids=[f"{t}-{n}" for t in ("T_eq", "P/1", "symE") for n in (1, 2, 3)] + ["T_eq-4"],
)
def test_preimage_suite_matches_the_per_pair_reference(text, n):
    theory = parse_theory(text) if text else EQUALITY_THEORY
    mc = model_class(theory, IndexSet(n))
    assert check_preimage_identities(mc) == per_pair_preimages(mc)
    # the suite's masks: bit a·n+b of held[f] when f ∈ <a->b>
    S = mc.S.elements()
    held = [
        sum(1 << (a * n + b) for a in S for b in S if f in mc.preserving(a, b))
        for f in range(len(mc.isos))
    ]
    assert arrow_space(mc).held == held == build_model_groupoid(mc).arrows.held


@pytest.mark.parametrize("side", ["short", "long"])
def test_preimage_suite_names_a_row_that_does_not_cover_its_fiber(side):
    mc = build_model_class(EQUALITY_THEORY, IndexSet(2))
    g = build_model_groupoid(mc)
    rows = _rows(g)
    h = next(h for h, row in enumerate(rows) if row)
    if side == "short":
        rows[h].pop()
    else:
        rows[h].append(rows[h][0])
    g.composites = [tuple(row) for row in rows]
    want = f"composite row {h} is {side}: {len(rows[h])} entries for {len(g.into[g.d[h]])} "
    with pytest.raises(InvariantError, match=want):
        check_preimage_identities(mc)


def test_openness_trivial_cover():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    res = open_image_d(mc, BasicOpenI(trivial_open_m(), (), trivial_open_m()))
    assert res["status"] == "verified"
    assert res["image"] == frozenset(range(5))


def test_openness_preservation_only():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    res = open_image_d(mc, BasicOpenI(trivial_open_m(), ((0, 1),), trivial_open_m()))
    assert res["status"] == "verified"
    assert res["image"] == basic_open_points(mc, BasicOpenM(fic(["x"], TOP), (0,)))


def test_openness_symmetric_condition():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    cond = BasicOpenM(fic(["x"], TOP), (0,))
    res = open_image_d(mc, BasicOpenI(cond, ((0, 0),), cond))
    assert res["status"] == "verified"
    assert res["image"] == basic_open_points(mc, cond)


def test_openness_gated_instance():
    # gluing both indices into one block cannot be undone at |S| = 2
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    cod = BasicOpenM(fic(["x", "y"], Eq(Var("x"), Var("y"))), (0, 1))
    res = open_image_d(mc, BasicOpenI(trivial_open_m(), ((0, 0), (0, 1)), cod))
    assert res["status"] == "gated"
    assert res["image"] < res["union"]


def test_openness_gate_shrinks_with_headroom():
    # at |S| = 3 the only still-missing model is the three-block one, which
    # would need a fourth index to absorb the glued pair
    mc = model_class(EQUALITY_THEORY, IndexSet(3))
    cod = BasicOpenM(fic(["x", "y"], Eq(Var("x"), Var("y"))), (0, 1))
    res = open_image_d(mc, BasicOpenI(trivial_open_m(), ((0, 0), (0, 1)), cod))
    assert res["status"] == "gated"
    missing = res["union"] - res["image"]
    assert missing == {mc.find_model(IndexedStructure([0, 1, 2], [(0,), (1,), (2,)]))}


def test_certificate_union_equals_image():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    v = BasicOpenI(
        BasicOpenM(fic(["x"], TOP), (0,)), ((0, 1),), BasicOpenM(fic(["x"], TOP), (1,))
    )
    res = open_image_d(mc, v)
    assert res["status"] == "verified"
    union = frozenset()
    for ks, pts in res["certificate"]:
        assert basic_open_points(mc, certificate_open(v, ks)) == pts
        union |= pts
    assert union == res["image"]


def test_uncovered_image_is_an_invariant_error(monkeypatch):
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    v = BasicOpenI(
        BasicOpenM(fic(["x"], TOP), (0,)), ((0, 1),), BasicOpenM(fic(["x"], TOP), (1,))
    )
    monkeypatch.setattr(groupoid, "basic_open_points", lambda mc, bop: frozenset())
    with pytest.raises(InvariantError):
        open_image_d(mc, v)


def test_mod_on_identity_interpretation():
    t = parse_theory(SYM_E)
    m, report = mod_on_interpretation(identity_interpretation(t), IndexSet(2))
    ident = identity_morphism(m.src)
    assert m.f0 == ident.f0 and m.f1 == ident.f1
    assert all(r["ok"] for r in report)


def test_forgetful_morphism():
    t = parse_theory(SYM_E)
    m, report = mod_on_interpretation(initial_interpretation(t), IndexSet(2))
    assert m.check() == []
    assert all(r["ok"] for r in report)
    gs = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(2)))
    assert m.dst is gs
    # the object map forgets structure: carriers agree
    smc = model_class(EQUALITY_THEORY, IndexSet(2))
    tmc = model_class(t, IndexSet(2))
    for i, M in enumerate(tmc.models):
        assert smc.models[m.f0[i]].domain == M.domain
        assert smc.models[m.f0[i]].blocks == M.blocks


def test_morphism_reports_the_m_square_on_a_pair_that_does_not_compose():
    # sending an arrow to one with another domain breaks the d square, and
    # the image of a composable pair through it no longer composes in dst
    g = build_model_groupoid(model_class(EQUALITY_THEORY, IndexSet(2)))
    n = g.arrows.size
    j = next(j for j in range(n) if j not in g.e)
    x = next(x for x in range(n) if g.d[x] != g.d[j])
    f1 = list(range(n))
    f1[j] = x
    bad = GroupoidMorphism(g, g, tuple(range(g.objects.size)), tuple(f1)).check()
    assert f"d square fails at arrow {j}" in bad
    assert f"m square fails at ({j},{g.e[g.d[j]]})" in bad


def test_no_limit_means_no_bound(monkeypatch):
    # None means "no bound" here as in model_class, not the default limit
    monkeypatch.setattr(groupoid, "DEFAULT_LIMIT", 0)
    t = parse_theory(SYM_E)
    m, _ = mod_on_interpretation(initial_interpretation(t), IndexSet(2), None)
    assert m.check() == []


def test_mod_on_formula_interpretation():
    src = parse_theory("rel P/1")
    tgt = parse_theory(SYM_E)
    F = Interpretation(
        src, tgt, (("P", fic(["x"], Exists("y", Rel("E", (Var("x"), Var("y")))))),), ()
    )
    m, report = mod_on_interpretation(F, IndexSet(2))
    assert m.check() == []
    assert all(r["ok"] for r in report)
    # the displayed identity on one concrete basic open
    mc_src = model_class(tgt, IndexSet(2))
    mc_dst = model_class(src, IndexSet(2))
    b = BasicOpenM(fic(["x"], Rel("P", (Var("x"),))), (0,))
    pts = basic_open_points(mc_dst, b)
    lhs = frozenset(x for x in range(m.src.objects.size) if m.f0[x] in pts)
    translated = BasicOpenM(fic(["x"], F.translate(Rel("P", (Var("x"),)))), (0,))
    assert lhs == basic_open_points(mc_src, translated)


@pytest.mark.parametrize("n", [2, 3])
def test_openness_shortfalls_are_always_headroom(n):
    # gluing arrows keep d from being an open map at small index sizes;
    # every such shortfall must diagnose as a headroom gate, never a failure
    from modform.topology import minimal_varray

    mc = model_class(EQUALITY_THEORY, IndexSet(n))
    g = build_model_groupoid(mc)
    assert not g.is_open()
    saw_gate = False
    for j in range(g.arrows.size):
        res = open_image_d(mc, minimal_varray(mc, j))
        assert res["status"] in ("verified", "gated")
        img = frozenset(g.d[x] for x in g.arrows.minimal_nbhd(j))
        if not g.objects.is_open(img):
            assert res["status"] == "gated"
            saw_gate = True
    assert saw_gate
