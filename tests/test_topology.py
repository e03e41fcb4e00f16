"""Logical topologies, open lattices, filters, sobriety."""

import pytest

from modform.errors import LimitExceeded
from modform.logic import BOT, EQUALITY_THEORY, Eq, Exists, TOP, Var, fic
from modform.models import IndexSet, IndexedStructure, model_class
from modform.parser import parse_theory
from modform.topology import (
    BasicOpenI,
    BasicOpenM,
    FinSpace,
    basic_open_arrows,
    basic_open_points,
    cp_filters,
    discrete_space,
    filter_to_model,
    horn_diagram,
    indiscrete_space,
    minimal_varray,
    model_space,
    neighborhood_filter,
    sobriety_report,
    trivial_open_m,
)


def mc_eq2():
    return model_class(EQUALITY_THEORY, IndexSet(2))


def model_idx(mc, domain, blocks):
    return mc.find_model(IndexedStructure(domain, blocks))


def test_basic_open_definedness():
    mc = mc_eq2()
    got = basic_open_points(mc, BasicOpenM(fic(["x"], TOP), (0,)))
    want = {
        model_idx(mc, [0], [(0,)]),
        model_idx(mc, [0, 1], [(0,), (1,)]),
        model_idx(mc, [0, 1], [(0, 1)]),
    }
    assert got == want


def test_basic_open_equality():
    mc = mc_eq2()
    got = basic_open_points(mc, BasicOpenM(fic(["x", "y"], Eq(Var("x"), Var("y"))), (0, 1)))
    assert got == {model_idx(mc, [0, 1], [(0, 1)])}


def test_basic_open_trivial_is_everything():
    mc = mc_eq2()
    assert basic_open_points(mc, trivial_open_m()) == frozenset(range(5))


def test_generate_opens_empty_subbasis():
    space = FinSpace(2, [("z", frozenset())])
    assert set(space.opens()) == {frozenset(), frozenset({0, 1})}


def test_generate_opens_discrete():
    assert len(discrete_space(2).opens()) == 4


def test_logical_lattice_of_equality_theory():
    mc = mc_eq2()
    space = model_space(mc)
    opens = space.opens()
    assert len(opens) == 7
    singleton = frozenset({model_idx(mc, [0, 1], [(0, 1)])})
    assert singleton in opens  # <x=y,0,1> is open


def test_open_lattice_limit():
    space = discrete_space(12)
    with pytest.raises(LimitExceeded):
        space.opens(limit=100)


def test_cached_open_lattice_honours_limit():
    space = discrete_space(3)
    assert len(space.opens()) == 8
    with pytest.raises(LimitExceeded) as cached:
        space.opens(limit=4)
    with pytest.raises(LimitExceeded) as fresh:
        discrete_space(3).opens(limit=4)
    assert cached.value.estimate == fresh.value.estimate == 4
    assert len(space.opens(limit=8)) == 8


def test_interior_hull_membership():
    mc = mc_eq2()
    space = model_space(mc)
    m01 = model_idx(mc, [0, 1], [(0,), (1,)])
    assert not space.is_open({m01})
    assert space.interior({m01}) == frozenset()
    assert space.open_hull({m01}) == space.minimal_nbhd(m01)


def test_cp_filters_discrete():
    filters = cp_filters(discrete_space(2))
    assert len(filters) == 2
    assert {f.min_open for f in filters} == {frozenset({0}), frozenset({1})}


def test_cp_filters_indiscrete():
    filters = cp_filters(indiscrete_space(2))
    assert len(filters) == 1
    assert filters[0].min_open == frozenset({0, 1})


def test_cp_filters_logical_space():
    mc = mc_eq2()
    space = model_space(mc)
    filters = cp_filters(space)
    assert len(filters) == 5
    assert set(filters) == {neighborhood_filter(space, i) for i in range(5)}


def test_cp_filters_match_minimal_neighborhoods():
    # the exhaustive lattice scan agrees with the minimal-basis description
    for space in (discrete_space(3), indiscrete_space(3), model_space(mc_eq2())):
        scan = {f.min_open for f in cp_filters(space)}
        assert scan == {space.minimal_nbhd(x) for x in space.points}


def test_filter_properties():
    space = model_space(mc_eq2())
    f = neighborhood_filter(space, 0)
    members = f.members()
    assert frozenset(space.points) in members
    assert frozenset() not in members
    for a in members:
        for b in members:
            assert a & b in members


def test_filter_to_model_round_trips():
    mc = mc_eq2()
    space = model_space(mc)
    for i, M in enumerate(mc.models):
        rebuilt = filter_to_model(mc, neighborhood_filter(space, i))
        assert rebuilt == M


def test_filter_to_model_empty():
    mc = mc_eq2()
    space = model_space(mc)
    i = model_idx(mc, [], [])
    rebuilt = filter_to_model(mc, neighborhood_filter(space, i))
    assert rebuilt.domain == ()


def test_filter_to_model_with_relations():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    space = model_space(mc)
    for i, M in enumerate(mc.models):
        assert filter_to_model(mc, neighborhood_filter(space, i)) == M


def test_sobriety_equality_theory():
    rep = sobriety_report(mc_eq2())
    assert rep["t0"] and rep["bijection"] and rep["round_trip"]
    assert rep["filters"] == rep["models"] == 5


def test_sobriety_with_functions():
    t = parse_theory("fun f/1")
    mc = model_class(t, IndexSet(2))
    rep = sobriety_report(mc)
    assert rep["t0"] and rep["bijection"] and rep["round_trip"]


def test_arrow_basic_opens_preservation():
    mc = mc_eq2()
    v = BasicOpenI(trivial_open_m(), ((0, 0),), trivial_open_m())
    got = basic_open_arrows(mc, v)
    for j in got:
        f = mc.isos[j]
        assert f.dom.has(0) and f.cod.has(0)
        assert f.apply(f.dom.block_key(0)) == f.cod.block_key(0)
    assert len(got) == 5


def test_arrow_basic_open_trivial():
    mc = mc_eq2()
    assert basic_open_arrows(
        mc, BasicOpenI(trivial_open_m(), (), trivial_open_m())
    ) == frozenset(range(12))


def test_arrow_basic_open_with_conditions():
    mc = mc_eq2()
    v = BasicOpenI(
        BasicOpenM(fic(["x"], TOP), (0,)), ((0, 1),), BasicOpenM(fic(["x"], TOP), (1,))
    )
    got = basic_open_arrows(mc, v)
    assert len(got) == 5
    for j in got:
        f = mc.isos[j]
        assert f.apply(f.dom.block_key(0)) == f.cod.block_key(1)


def test_horn_diagram_is_minimal_neighborhood():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    space = model_space(mc)
    for i, M in enumerate(mc.models):
        diagram = horn_diagram(M)
        assert basic_open_points(mc, diagram) == space.minimal_nbhd(i)


def test_minimal_varray_matches_arrow_neighborhood():
    from modform.groupoid import build_model_groupoid

    mc = mc_eq2()
    g = build_model_groupoid(mc)
    for j in range(len(mc.isos)):
        varr = minimal_varray(mc, j)
        assert basic_open_arrows(mc, varr) == g.arrows.minimal_nbhd(j)


def test_geometric_basic_opens_are_open():
    mc = mc_eq2()
    space = model_space(mc)
    candidates = [
        BasicOpenM(fic([], Exists("x", TOP)), ()),
        BasicOpenM(fic(["x"], Exists("y", Eq(Var("x"), Var("y")))), (1,)),
        BasicOpenM(fic([], BOT), ()),
    ]
    for b in candidates:
        assert space.is_open(basic_open_points(mc, b))
