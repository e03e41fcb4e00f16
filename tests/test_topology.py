"""Logical topologies, open lattices, filters, sobriety."""

import pytest

from modform.checks import check_sobriety
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
    filter_to_model,
    horn_diagram,
    minimal_varray,
    model_space,
    sobriety_report,
    trivial_open_m,
)


THEORIES = {
    "T_eq": "",
    "P/1": "rel P/1\n",
    "symE": "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n",
}


def mc_eq2():
    return model_class(EQUALITY_THEORY, IndexSet(2))


def discrete_space(size):
    return FinSpace(size, [(f"{{{i}}}", {i}) for i in range(size)])


def indiscrete_space(size):
    return FinSpace(size, [])


def reference_cp_filters(space):
    """The least members of the completely prime filters, by exhaustive scan
    of the open lattice: the nonempty opens that are not the union of their
    proper open subsets, in lattice order."""
    lattice = space.opens()
    out = []
    for m in lattice:
        if m and frozenset().union(*(o for o in lattice if o < m)) != m:
            out.append(m)
    return out


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


def test_hull_membership():
    mc = mc_eq2()
    space = model_space(mc)
    m01 = model_idx(mc, [0, 1], [(0,), (1,)])
    assert not space.is_open({m01})
    assert space.minimal_nbhd(m01) == frozenset.intersection(
        *(u for u in space.opens() if m01 in u)
    )


def test_cp_filters_discrete():
    assert cp_filters(discrete_space(2)) == [frozenset({0}), frozenset({1})]


def test_cp_filters_indiscrete():
    assert cp_filters(indiscrete_space(2)) == [frozenset({0, 1})]


def test_cp_filters_logical_space():
    space = model_space(mc_eq2())
    filters = cp_filters(space)
    assert len(filters) == 5
    assert set(filters) == {space.minimal_nbhd(i) for i in range(5)}


def test_cp_filters_match_minimal_neighborhoods():
    # the exhaustive lattice scan agrees with the minimal-basis description
    for size in (0, 1, 3):
        for space in (discrete_space(size), indiscrete_space(size)):
            scan = reference_cp_filters(space)
            assert cp_filters(space) == scan
            assert set(scan) == {space.minimal_nbhd(x) for x in space.points}


@pytest.mark.parametrize("name,n", [("T_eq", 2), ("P/1", 2), ("symE", 2), ("T_eq", 3)])
def test_cp_filters_equal_the_scan(name, n):
    space = model_space(model_class(parse_theory(THEORIES[name]), IndexSet(n)))
    assert cp_filters(space) == reference_cp_filters(space)


@pytest.mark.parametrize("name,n", [("P/1", 3), ("symE", 3), ("T_eq", 4)])
def test_sobriety_beyond_the_listed_lattice(name, n):
    # P/1 at n=3 has 43,501 opens; no lattice is listed here
    res = check_sobriety(model_class(parse_theory(THEORIES[name]), IndexSet(n)))
    assert res["status"] == "pass", res
    assert res["filters"] == res["models"]


def test_filter_properties():
    space = model_space(mc_eq2())
    opens = space.opens()
    least = space.minimal_nbhd(0)
    members = [o for o in opens if least <= o]
    assert frozenset(space.points) in members
    assert frozenset() not in members
    for a in members:
        for b in members:
            assert a & b in members
    # completely prime: a union in the filter has a part in it
    for a in opens:
        for b in opens:
            if a | b in members:
                assert a in members or b in members


def test_filter_to_model_round_trips():
    mc = mc_eq2()
    space = model_space(mc)
    for i, M in enumerate(mc.models):
        rebuilt = filter_to_model(mc, space.minimal_nbhd(i))
        assert rebuilt == M


def test_filter_to_model_empty():
    mc = mc_eq2()
    space = model_space(mc)
    i = model_idx(mc, [], [])
    rebuilt = filter_to_model(mc, space.minimal_nbhd(i))
    assert rebuilt.domain == ()


def test_filter_to_model_with_relations():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    space = model_space(mc)
    for i, M in enumerate(mc.models):
        assert filter_to_model(mc, space.minimal_nbhd(i)) == M


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
