"""Equivariant sheaves, site objects, section lifts, density."""

import pytest

from modform import sheaves
from modform.errors import InvariantError, SignatureError, SiteError
from modform.groupoid import build_model_groupoid
from modform.logic import BOT, EQUALITY_THEORY, Eq, Exists, Rel, TOP, Var, fic
from modform.models import IndexSet, IndexedStructure, model_class
from modform.parser import parse_theory
from modform.sheaves import (
    definable_morphism,
    definable_morphism_preimage_identity,
    definable_sheaf,
    density_certificate,
    lift_section,
    moerdijk_classes,
    moerdijk_sheaf,
    projection_image_identity,
    rewrite_symmetric,
    stable_opens_of_site,
)
from modform.topology import (
    BasicOpenI,
    BasicOpenM,
    basic_open_arrows,
    basic_open_points,
    trivial_open_m,
)


def mc_eq2():
    return model_class(EQUALITY_THEORY, IndexSet(2))


def midx(mc, domain, blocks):
    return mc.find_model(IndexedStructure(domain, blocks))


def test_definable_sheaf_of_one_variable_top():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    want = {
        (midx(mc, [0], [(0,)]), (0,)),
        (midx(mc, [1], [(1,)]), (1,)),
        (midx(mc, [0, 1], [(0,), (1,)]), (0,)),
        (midx(mc, [0, 1], [(0,), (1,)]), (1,)),
        (midx(mc, [0, 1], [(0, 1)]), (0,)),
    }
    assert set(sh.points) == want
    assert sh.check_invariants() == []


def test_terminal_sheaf_one_point_per_model():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic([], TOP))
    assert len(sh.points) == len(mc.models)
    assert sh.check_invariants() == []


def test_empty_sheaf():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], BOT))
    assert sh.points == []


def test_theta_unit():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    for p in range(len(sh.points)):
        e = mc.identity_of[sh.r[p]]
        assert sh.apply(e, p) == p


def test_theta_swap():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    m01 = midx(mc, [0, 1], [(0,), (1,)])
    swap = next(
        j
        for j in range(len(mc.isos))
        if mc.iso_dom[j] == m01 and mc.iso_cod[j] == m01 and mc.isos[j].mapping == {0: 1, 1: 0}
    )
    p = sh.point_index[(m01, (0,))]
    assert sh.points[sh.apply(swap, p)] == (m01, (1,))


def test_theta_into_glued_model():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    m0 = midx(mc, [0], [(0,)])
    m01glue = midx(mc, [0, 1], [(0, 1)])
    j = next(
        j for j in range(len(mc.isos)) if mc.iso_dom[j] == m0 and mc.iso_cod[j] == m01glue
    )
    p = sh.point_index[(m0, (0,))]
    assert sh.points[sh.apply(j, p)] == (m01glue, (0,))


def test_theta_fiber_mismatch():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    m0 = midx(mc, [0], [(0,)])
    wrong = next(j for j in range(len(mc.isos)) if mc.iso_dom[j] != m0)
    p = sh.point_index[(m0, (0,))]
    with pytest.raises(SignatureError):
        sh.apply(wrong, p)


def test_stabilize_empty_and_idempotent():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    assert sh.stabilize(set()) == frozenset()
    s = sh.stabilize({0})
    assert sh.stabilize(s) == s


def test_stabilize_section_image_is_whole_definable():
    # the stabilization of the section image over <[x|top],0> is the whole
    # sheaf, which is the definable set of (top and exists y. x=y)
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    s0 = sh.section_image((0,))
    got = sh.stabilize(s0)
    assert got == frozenset(range(len(sh.points)))
    closed = fic(["x"], Exists("y", Eq(Var("x"), Var("y"))))
    target = frozenset(
        i for i, (m, t) in enumerate(sh.points) if t in mc.ext(m, closed)
    )
    assert got == target


def test_stable_opens_of_powers():
    mc = mc_eq2()
    u0 = definable_sheaf(mc, fic([], TOP))
    assert [len(o) for o in u0.stable_opens()] == [0, 4, 5]
    u1 = definable_sheaf(mc, fic(["x"], TOP))
    assert [len(o) for o in u1.stable_opens()] == [0, 5]
    u2 = definable_sheaf(mc, fic(["x", "y"], TOP))
    assert [len(o) for o in u2.stable_opens()] == [0, 5, 7]


def test_moerdijk_all_arrows_is_terminal_like():
    mc = mc_eq2()
    g = build_model_groupoid(mc)
    site = moerdijk_sheaf(mc, frozenset(range(g.arrows.size)))
    assert len(site.classes) == len(mc.models)
    assert site.U == frozenset(range(len(mc.models)))
    # fiberwise singleton: the terminal sheaf
    assert sorted(site.sheaf.r) == sorted(range(len(mc.models)))


def test_moerdijk_identities_not_open():
    mc = mc_eq2()
    g = build_model_groupoid(mc)
    idents = frozenset(g.e)
    with pytest.raises(SiteError):
        moerdijk_sheaf(mc, idents)
    # the raw quotient relation is trivial there: one class per arrow
    U, classes, class_of, reps = moerdijk_classes(g, idents)
    assert U == frozenset(range(g.objects.size))
    assert classes == [frozenset({f}) for f in range(g.arrows.size)]
    assert reps == list(range(g.arrows.size))
    assert class_of == {f: f for f in range(g.arrows.size)}


def test_moerdijk_symmetric_condition_five_classes():
    mc = mc_eq2()
    cond = BasicOpenM(fic(["x"], TOP), (0,))
    N = basic_open_arrows(mc, BasicOpenI(cond, ((0, 0),), cond))
    site = moerdijk_sheaf(mc, N)
    assert len(site.classes) == 5
    # classes are keyed by (codomain, image of the block of 0)
    keys = set()
    for cl in site.classes:
        f = mc.isos[min(cl)]
        keys.add((mc.iso_cod[min(cl)], f.apply(f.dom.block_key(0))))
    assert len(keys) == 5


def test_stable_opens_of_site_all_arrows():
    mc = mc_eq2()
    g = build_model_groupoid(mc)
    site = moerdijk_sheaf(mc, frozenset(range(g.arrows.size)))
    res = stable_opens_of_site(site)
    sizes = sorted(len(o) for o in res["lattice"])
    assert sizes == [0, 4, 5]
    assert res["isomorphic"]


def test_stable_opens_restricted_site():
    mc = mc_eq2()
    cond = BasicOpenM(fic(["x"], TOP), (0,))
    N = basic_open_arrows(mc, BasicOpenI(cond, ((0, 0),), cond))
    site = moerdijk_sheaf(mc, N)
    res = stable_opens_of_site(site)
    assert res["isomorphic"]
    for V in res["lattice"]:
        assert V <= site.U


def test_lift_section_terminal():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic([], TOP))
    U = frozenset(range(len(mc.models)))
    section = {x: sh.point_index[(x, ())] for x in U}
    N_s, site, hat = lift_section(sh, U, section)
    assert hat.is_isomorphism()
    assert len(site.classes) == len(mc.models)


def test_lift_section_definable_guns():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    U = basic_open_points(mc, BasicOpenM(fic(["x"], TOP), (0,)))
    section = {x: sh.point_index[(x, (mc.models[x].block_key(0),))] for x in U}
    N_s, site, hat = lift_section(sh, U, section)
    expected = basic_open_arrows(
        mc,
        BasicOpenI(BasicOpenM(fic(["x"], TOP), (0,)), ((0, 0),), trivial_open_m()),
    )
    assert N_s == expected
    assert hat.is_isomorphism()
    assert len(site.classes) == 5 == len(sh.points)
    # s = s-hat after the unit section
    g = build_model_groupoid(mc)
    for x in U:
        assert hat.point_map[site.class_of[g.e[x]]] == section[x]


def test_lift_section_rejects_bad_section():
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    U = basic_open_points(mc, BasicOpenM(fic(["x"], TOP), (0,)))
    bad = {x: 0 for x in U}
    with pytest.raises((SignatureError, KeyError)):
        lift_section(sh, U, bad)


def test_rewrite_symmetric_fixpoint_shape():
    mc = mc_eq2()
    cond = BasicOpenM(fic(["x"], TOP), (0,))
    v = BasicOpenI(cond, ((0, 0),), cond)
    m01 = midx(mc, [0, 1], [(0,), (1,)])
    out = rewrite_symmetric(mc, v, m01)
    assert out.dom == out.cod
    assert out.pairs == tuple((p, p) for p in out.dom.params)
    assert basic_open_arrows(mc, out) <= basic_open_arrows(mc, v)


def test_rewrite_symmetric_merges_dom_cod():
    mc = mc_eq2()
    v = BasicOpenI(
        BasicOpenM(fic(["x"], TOP), (0,)), (), BasicOpenM(fic(["x"], TOP), (1,))
    )
    m01 = midx(mc, [0, 1], [(0,), (1,)])
    out = rewrite_symmetric(mc, v, m01)
    assert out.dom.params == (0, 1)
    assert out.pairs == ((0, 0), (1, 1))
    got = basic_open_arrows(mc, out)
    ident = mc.identity_of[m01]
    assert ident in got
    assert got <= basic_open_arrows(mc, v)


def test_rewrite_symmetric_turns_pair_into_equation():
    mc = mc_eq2()
    v = BasicOpenI(trivial_open_m(), ((0, 1),), trivial_open_m())
    glued = midx(mc, [0, 1], [(0, 1)])
    out = rewrite_symmetric(mc, v, glued)
    assert out.pairs == ((0, 0), (1, 1))
    # the equation 0 = 1 must now hold on both sides
    got = basic_open_arrows(mc, out)
    for j in got:
        f = mc.isos[j]
        assert f.dom.block_key(0) == f.dom.block_key(1)
        assert f.cod.block_key(0) == f.cod.block_key(1)
    assert got <= basic_open_arrows(mc, v)


def test_rewrite_symmetric_requires_identity_inside():
    mc = mc_eq2()
    v = BasicOpenI(trivial_open_m(), ((0, 1),), trivial_open_m())
    m01 = midx(mc, [0, 1], [(0,), (1,)])  # identity does not send [0] to [1]
    with pytest.raises(SignatureError):
        rewrite_symmetric(mc, v, m01)


def _rewrite_with_result(monkeypatch, result):
    """A basic open around an identity of mc_eq2, as (mc, v, model), with
    the arrow set rewrite_symmetric computes for its rewritten open
    replaced by result(mc, the arrow set of v)."""
    mc = mc_eq2()
    v = BasicOpenI(trivial_open_m(), ((0, 0),), trivial_open_m())
    real, sets = sheaves.basic_open_arrows, []

    def arrows(mc, w):
        sets.append(real(mc, w))
        return sets[0] if len(sets) == 1 else result(mc, sets[0])

    monkeypatch.setattr(sheaves, "basic_open_arrows", arrows)
    return mc, v, midx(mc, [0, 1], [(0,), (1,)])


def test_rewrite_symmetric_losing_the_identity_is_an_invariant_error(monkeypatch):
    mc, v, m01 = _rewrite_with_result(monkeypatch, lambda mc, varr: frozenset())
    with pytest.raises(InvariantError, match="lost the identity"):
        rewrite_symmetric(mc, v, m01)


def test_rewrite_symmetric_leaving_the_neighborhood_is_an_invariant_error(monkeypatch):
    def wider(mc, varr):
        return varr | {next(j for j in range(len(mc.isos)) if j not in varr)}

    mc, v, m01 = _rewrite_with_result(monkeypatch, wider)
    with pytest.raises(InvariantError, match="left the original neighborhood"):
        rewrite_symmetric(mc, v, m01)


def test_density_terminal_like_site():
    mc = mc_eq2()
    g = build_model_groupoid(mc)
    site = moerdijk_sheaf(mc, frozenset(range(g.arrows.size)))
    for ci in range(len(site.classes)):
        cert = density_certificate(mc, site, ci)
        assert cert["status"] == "verified"
        assert cert["morphism"].point_map[cert["preimage"]] == ci


def test_density_symmetric_site():
    mc = mc_eq2()
    cond = BasicOpenM(fic(["x"], TOP), (0,))
    N = basic_open_arrows(mc, BasicOpenI(cond, ((0, 0),), cond))
    site = moerdijk_sheaf(mc, N)
    for ci in range(len(site.classes)):
        cert = density_certificate(mc, site, ci)
        assert cert["status"] == "verified"
        morphism = cert["morphism"]
        assert morphism.check() == []
        assert morphism.point_map[cert["preimage"]] == ci


def test_density_identity_classes_covered():
    mc = mc_eq2()
    cond = BasicOpenM(fic(["x"], TOP), (0,))
    N = basic_open_arrows(mc, BasicOpenI(cond, ((0, 0),), cond))
    site = moerdijk_sheaf(mc, N)
    g = site.groupoid
    for x in sorted(site.U):
        ci = site.class_of[g.e[x]]
        cert = density_certificate(mc, site, ci)
        assert cert["status"] in ("verified", "gated")


def test_projection_image_identity():
    # the image of a basic open under the projection is the definable set
    # of the existentially closed conjunction, computed both ways
    mc = mc_eq2()
    sh = definable_sheaf(mc, fic(["x"], TOP))
    cases = [
        (fic(["x", "y"], Eq(Var("x"), Var("y"))), (1,)),
        (fic(["x", "y"], TOP), (0,)),
        (fic(["x"], TOP), ()),
    ]
    for psi, params in cases:
        img, definable, equal = projection_image_identity(mc, sh, psi, params)
        assert equal, (str(psi), params, sorted(img), sorted(definable))


def test_definable_morphism_and_preimage_identity():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    src = definable_sheaf(mc, fic(["x"], TOP))
    dst = definable_sheaf(mc, fic(["x"], TOP))
    graph = fic(["x", "y"], Eq(Var("x"), Var("y")))
    m = definable_morphism(mc, src, dst, graph)
    assert m.check() == []
    for xi, params in [
        (fic(["y", "z"], Eq(Var("y"), Var("z"))), (0,)),
        (fic(["y", "z", "w"], Rel("E", (Var("y"), Var("z")))), (0, 1)),
    ]:
        pre, definable, equal = definable_morphism_preimage_identity(
            mc, src, dst, graph, m, xi, params
        )
        assert equal


def test_definable_morphism_rejects_partial_graph():
    mc = mc_eq2()
    src = definable_sheaf(mc, fic(["x"], TOP))
    dst = definable_sheaf(mc, fic(["x"], TOP))
    from modform.logic import BOT

    with pytest.raises(SignatureError):
        definable_morphism(mc, src, dst, fic(["x", "y"], BOT))


def test_site_invariant_violations_only_without_headroom():
    # when a site sheaf fails etale-ness the groupoid must itself fail to
    # be an open groupoid (the truncation artifact travels together)
    from modform.duality import enumerate_stable_arrow_sets

    mc = mc_eq2()
    g = build_model_groupoid(mc)
    assert not g.is_open()
    some_violation = False
    for N in enumerate_stable_arrow_sets(g, 10_000):
        if not N:
            continue
        site = moerdijk_sheaf(mc, N)
        if site.sheaf_violations:
            some_violation = True
    assert some_violation
