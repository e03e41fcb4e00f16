"""The Mod and Form functors, counit and unit, triangle identities, the
semantic-groupoid characterization, and the coherent conditions."""

import pytest

from modform import duality
from modform.duality import (
    GroupoidOverS,
    check_counit_naturality,
    check_pullback_square,
    check_reconstruction,
    check_sem_conditions,
    check_strong_fullness,
    check_triangle_identities,
    check_unit_naturality,
    coherent_check,
    counit,
    enumerate_stable_arrow_sets,
    form_functor,
    mod_functor,
    pullback_sheaf,
    semantic_quotient,
    syntactic_category,
    theory_view,
    u_power,
    unit,
)
from modform.errors import InvariantError
from modform.groupoid import TopGroupoid
from modform.logic import (
    EQUALITY_THEORY,
    Eq,
    INCONSISTENT_THEORY,
    Rel,
    TOP,
    Var,
    fic,
    initial_interpretation,
    sequent,
)
from modform.models import IndexSet, IndexedStructure, model_class
from modform.parser import parse_theory
from modform.search import FormulaSearch
from modform.sheaves import definable_sheaf
from modform.topology import FinSpace

SYM_E = "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)"
S2 = IndexSet(2)


def form(theory):
    """Form(Mod T) at |S| = 2 and k_max = 1."""
    return form_functor(mod_functor(theory, S2), 1)


def test_formula_search_counts_equality_theory():
    mc = model_class(EQUALITY_THEORY, S2)
    search = FormulaSearch(mc)
    assert len(search.classes(0, 3)) == 3
    assert len(search.classes(1, 3)) == 2
    assert len(search.classes(2, 3)) == 3


def test_syntactic_category_equality_theory():
    tc = syntactic_category(model_class(EQUALITY_THEORY, S2), 1, 3)
    assert len(tc.objects[0]) == 3
    assert len(tc.objects[1]) == 2
    assert len(tc.arrows[(0, 0)]) == 6
    assert len(tc.arrows[(1, 1)]) == 3
    # identities are present: one functional graph per object onto itself
    for k in (0, 1):
        for si in range(len(tc.objects[k])):
            assert any(a == si and b == si for a, b, _, _ in tc.arrows[(k, k)])


def test_syntactic_category_inconsistent_theory():
    tc = syntactic_category(model_class(INCONSISTENT_THEORY, S2), 2, 2)
    for k in range(3):
        assert len(tc.objects[k]) == 1
    for j in range(3):
        for k in range(3):
            assert len(tc.arrows[(j, k)]) == 1


def test_semantic_quotient():
    t = parse_theory(SYM_E)
    res = semantic_quotient(t, S2)
    assert res["axioms_in_closure"]
    oracle = res["oracle"]
    assert oracle.entails(sequent(["x"], TOP, TOP))
    res2 = semantic_quotient(INCONSISTENT_THEORY, S2)
    assert res2["oracle"].entails(sequent([], TOP, Rel("Q", ()) if False else TOP))
    # with no models everything is entailed
    from modform.logic import BOT

    assert res2["oracle"].entails(sequent([], TOP, BOT))


def test_mod_functor_equality_is_identity_shaped():
    gos = mod_functor(EQUALITY_THEORY, S2)
    assert gos.f0 == tuple(range(5))
    assert gos.f1 == tuple(range(12))
    assert gos.check() == []


def test_failed_forgetful_preimage_identities_are_an_invariant_error(monkeypatch):
    real = duality.mod_on_interpretation

    def broken(*args):
        morphism, report = real(*args)
        return morphism, [dict(report[0], ok=False)] + report[1:]

    monkeypatch.setattr(duality, "mod_on_interpretation", broken)
    with pytest.raises(InvariantError, match="preimage identities fail"):
        mod_functor(EQUALITY_THEORY, S2)


def test_mod_functor_inconsistent_is_empty():
    gos = mod_functor(INCONSISTENT_THEORY, S2)
    assert gos.groupoid.objects.size == 0


def test_mod_functor_symmetric_is_strongly_full():
    gos = mod_functor(parse_theory(SYM_E), S2)
    ok, witnesses = check_strong_fullness(gos)
    assert ok and witnesses == []


def test_u_power_invariants():
    gos = mod_functor(parse_theory(SYM_E), S2)
    for k in range(3):
        sheaf = u_power(gos, k)
        assert sheaf.check_invariants() == []
        assert u_power(gos, k) is sheaf is gos.powers[k]


def test_pullback_sheaf_identity():
    from modform.groupoid import identity_morphism

    gos = mod_functor(EQUALITY_THEORY, S2)
    sheaf = definable_sheaf(gos.mc, fic(["x"], TOP))
    pulled = pullback_sheaf(identity_morphism(gos.groupoid), sheaf)
    assert len(pulled.points) == len(sheaf.points)
    translation = {i: p for i, (x, p) in enumerate(pulled.points)}
    for i in range(len(pulled.points)):
        assert {translation[j] for j in pulled.space.minimal_nbhd(i)} == set(
            sheaf.space.minimal_nbhd(translation[i])
        )


def test_pullback_of_empty_sheaf():
    gos = mod_functor(parse_theory(SYM_E), S2)
    empty = definable_sheaf(gos.s_mc, fic(["x"], Eq(Var("x"), Var("x")))) if False else None
    from modform.logic import BOT

    empty = definable_sheaf(gos.s_mc, fic(["x"], BOT))
    pulled = pullback_sheaf(gos.morphism(), empty)
    assert pulled.points == []


def test_pullback_square_lemma():
    for text in ("", SYM_E):
        theory = parse_theory(text) if text else EQUALITY_THEORY
        res = check_pullback_square(mod_functor(theory, S2))
        assert res["status"] == "pass", res


def test_form_functor_counts_match_syntactic_category():
    gos = mod_functor(EQUALITY_THEORY, S2)
    rc = form_functor(gos, 1)
    assert len(rc.objects[0]) == 3
    assert len(rc.objects[1]) == 2
    assert len(rc.arrows[(0, 0)]) == 6
    assert len(rc.arrows[(0, 1)]) == 2
    assert len(rc.arrows[(1, 0)]) == 5
    assert len(rc.arrows[(1, 1)]) == 3


def test_form_functor_positions():
    gos = mod_functor(EQUALITY_THEORY, S2)
    rc = form_functor(gos, 1)
    for k, level in rc.levels.items():
        assert [rc.position(k, V, "V") for V in level] == list(range(len(level)))
    # a point set that is no stable open: the theorem callers rely on fails
    with pytest.raises(InvariantError):
        rc.position(1, frozenset({0}), "a single point")


def test_form_functor_identities_and_composition():
    gos = mod_functor(EQUALITY_THEORY, S2)
    rc = form_functor(gos, 1)
    power1 = rc.powers[1]
    # the diagonal graph of the full object is an arrow
    full = rc.objects[1].index(frozenset(range(len(power1.points))))
    diag = frozenset(
        rc.powers[2].point_index[(x, (t[0], t[0]))] for x, t in power1.points
    )
    assert any(si == full and di == full and g == diag for si, di, g in rc.arrows[(1, 1)])


def test_form_functor_empty_groupoid():
    gos = mod_functor(INCONSISTENT_THEORY, S2)
    rc = form_functor(gos, 2)
    assert rc.inconsistent
    assert rc.object_count(0) == rc.object_count(2) == 1


def test_form_objects_at_level_zero_are_stable_opens_of_object_space():
    gos = mod_functor(EQUALITY_THEORY, S2)
    rc = form_functor(gos, 1)
    sizes = sorted(len(o) for o in rc.objects[0])
    assert sizes == [0, 4, 5]


def test_counit_equality_theory():
    res = counit(form(EQUALITY_THEORY), 3)
    assert res["status"] == "verified"
    assert res["object_counts"] == {0: (3, 3), 1: (2, 2)}
    assert res["arrow_counts"][(0, 0)] == (6, 6)
    assert res["arrow_counts"][(1, 1)] == (3, 3)


def test_counit_non_graph_is_an_invariant_error():
    # every definable functional relation is a stable-open graph, so a
    # relation category missing its graphs is a checker bug, not bad input
    rc = form(EQUALITY_THEORY)
    rc.arrows = {key: [] for key in rc.arrows}
    with pytest.raises(InvariantError, match="not a stable-open graph"):
        counit(rc, 3)


def test_counit_bot_goes_to_empty():
    res = counit(form(EQUALITY_THEORY), 3)
    tc, rc = res["tc"], res["rc"]
    for k in (0, 1):
        for i, (f, fam) in enumerate(tc.objects[k]):
            if all(not e for e in fam):
                assert rc.objects[k][res["object_map"][k][i]] == frozenset()


def test_counit_inconsistent_theory():
    res = counit(form(INCONSISTENT_THEORY), 3)
    assert res["inconsistent"] and res["status"] == "verified"


def test_counit_symmetric_theory():
    # depth 3 finds every object class but misses some arrow graphs, which
    # is reported as inconclusive at the bound; depth 4 completes the match
    res3 = counit(form(parse_theory(SYM_E)), 3)
    assert res3["status"] == "inconclusive"
    assert all(nt == nf for nt, nf in res3["object_counts"].values())
    assert all(not v for v in res3["unmatched_objects"].values())
    res4 = counit(form(parse_theory(SYM_E)), 4)
    assert res4["status"] == "verified"
    assert res4["object_counts"] == {0: (5, 5), 1: (7, 7)}


def test_theory_view_and_unit_equality():
    un = unit(form(EQUALITY_THEORY))
    assert un["morphism_violations"] == []
    assert un["over_S"]
    assert all(r["ok"] for r in un["preimage_identities"])
    assert len(un["target"].mc.models) == 5
    assert len(un["target"].mc.isos) == 12


def test_unit_empty_groupoid():
    rc = form(INCONSISTENT_THEORY)
    theory, names = theory_view(rc)
    mc = model_class(theory, S2)
    assert mc.models == []


def test_unit_one_object_groupoid():
    smc = model_class(EQUALITY_THEORY, S2)
    m0 = smc.find_model(IndexedStructure([0], [(0,)]))
    obj = FinSpace(1, [("o", {0})])
    arr = FinSpace(1, [("a", {0})])
    g = TopGroupoid(obj, arr, (0,), (0,), (0,), (0,), [(0,)])
    gos = GroupoidOverS(g, smc, (m0,), (smc.identity_of[m0],))
    assert gos.check() == []
    un = unit(form_functor(gos, 1))
    assert un["morphism_violations"] == []
    target_model = un["target"].mc.models[un["morphism"].f0[0]]
    assert target_model.domain == (0,)
    assert target_model.blocks == ((0,),)


def test_triangle_identities():
    for text in ("", SYM_E):
        theory = parse_theory(text) if text else EQUALITY_THEORY
        res = check_triangle_identities(unit(form(theory)))
        assert res["bottom"] and res["top"], text
        assert res["preimage_report_ok"]


def test_triangles_inconsistent_vacuous():
    rc = form(INCONSISTENT_THEORY)
    assert rc.inconsistent  # the triangle identities degenerate by definition
    res = check_triangle_identities(unit(rc))
    assert res["bottom"] and res["top"]


def test_strong_fullness_of_mod():
    for text in ("", SYM_E):
        theory = parse_theory(text) if text else EQUALITY_THEORY
        ok, wit = check_strong_fullness(mod_functor(theory, S2))
        assert ok and wit == []


def test_strong_fullness_counterexample():
    smc = model_class(EQUALITY_THEORY, S2)
    m0 = smc.find_model(IndexedStructure([0], [(0,)]))
    m1 = smc.find_model(IndexedStructure([1], [(1,)]))
    obj = FinSpace(2, [("o0", {0}), ("o1", {1})])
    arr = FinSpace(2, [("a0", {0}), ("a1", {1})])
    g = TopGroupoid(obj, arr, (0, 1), (0, 1), (0, 1), (0, 1), [(0,), (1,)])
    gos = GroupoidOverS(g, smc, (m0, m1), (smc.identity_of[m0], smc.identity_of[m1]))
    ok, witnesses = check_strong_fullness(gos)
    assert not ok
    h, y = witnesses[0]
    assert smc.iso_cod[h] == gos.f0[y]
    assert not any(gos.f1[a] == h and g.c[a] == y for a in range(g.arrows.size))


def test_strong_fullness_empty_groupoid():
    gos = mod_functor(INCONSISTENT_THEORY, S2)
    ok, wit = check_strong_fullness(gos)
    assert ok and wit == []


def test_sem_conditions_for_mod():
    for text in ("", SYM_E):
        theory = parse_theory(text) if text else EQUALITY_THEORY
        res = check_sem_conditions(mod_functor(theory, S2))
        assert res["strongly_full"] and res["condition_ii"], text
        assert res["conditions"]


def test_sem_condition_full_arrow_set():
    gos = mod_functor(EQUALITY_THEORY, S2)
    res = check_sem_conditions(gos)
    full = frozenset(range(gos.groupoid.arrows.size))
    entry = next(r for r in res["per_N"] if r["N"] == full)
    assert entry["ok"]
    for w in entry["witnesses"]:
        assert w["a"] is not None and w["W"] is not None


def test_enumerate_closed_arrow_sets_are_valid():
    from modform.sheaves import arrow_set_closed

    gos = mod_functor(EQUALITY_THEORY, S2)
    g = gos.groupoid
    sets = enumerate_stable_arrow_sets(g)
    assert frozenset() in sets
    assert frozenset(range(g.arrows.size)) in sets
    for N in sets:
        assert g.arrows.is_open(N)
        assert arrow_set_closed(g, N)


def test_coherent_conditions():
    res = coherent_check(mod_functor(EQUALITY_THEORY, S2), 1)
    assert res["ok"]
    assert [e["frame_size"] for e in res["i"]] == [3, 2]
    assert all(e["all_compact"] for e in res["i"])
    assert all(e["match"] and e["in_frame"] for e in res["ii"])


def test_coherent_conditions_symmetric():
    res = coherent_check(mod_functor(parse_theory(SYM_E), S2), 1)
    assert res["ok"]


def test_coherent_empty_groupoid_vacuous():
    res = coherent_check(mod_functor(INCONSISTENT_THEORY, S2), 1)
    assert res["ok"]
    assert all(e["frame_size"] == 1 for e in res["i"])


def test_counit_naturality():
    F = initial_interpretation(parse_theory(SYM_E))
    res = check_counit_naturality(F, S2, 1, 3)
    assert res["status"] == "pass"


def test_unit_naturality():
    F = initial_interpretation(parse_theory(SYM_E))
    res = check_unit_naturality(F, S2, 1)
    assert res["status"] == "pass"


def test_reconstruction():
    res = check_reconstruction(unit(form(EQUALITY_THEORY)), 3)
    assert res["status"] == "pass"
    assert res["object_round_trip"]


def test_mod_of_semantic_closure_is_same_data():
    t = parse_theory(SYM_E)
    res = semantic_quotient(t, S2)
    mc1 = model_class(t, S2)
    assert res["oracle"] is mc1  # the closure is computed over the same class


def test_hom_bijection_one_object_groupoid():
    from modform.duality import check_hom_bijection

    smc = model_class(EQUALITY_THEORY, S2)
    m0 = smc.find_model(IndexedStructure([0], [(0,)]))
    g = TopGroupoid(
        FinSpace(1, [("o", {0})]), FinSpace(1, [("a", {0})]), (0,), (0,), (0,), (0,), [(0,)]
    )
    gos = GroupoidOverS(g, smc, (m0,), (smc.identity_of[m0],))
    res = check_hom_bijection(gos, parse_theory("rel P/1"), 1)
    assert res["status"] == "pass"
    assert res["morphisms"] == res["interpretations"] == 2


def test_hom_bijection_mod_groupoid():
    from modform.duality import check_hom_bijection

    res = check_hom_bijection(mod_functor(EQUALITY_THEORY, S2), EQUALITY_THEORY, 1)
    assert res["status"] == "pass"
    assert res["morphisms"] == res["interpretations"] == 1


def test_counit_interpretation_is_valid():
    from modform.models import check_interpretation

    t = parse_theory(SYM_E)
    tri = check_triangle_identities(unit(form(t)))
    eps = tri["counit_interpretation"]
    assert check_interpretation(eps, S2) == []
