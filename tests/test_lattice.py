"""The bitmask lattice engine (`closure_lattice`, `reach`) against the
frozenset loops it replaced.

The union-closure loop and the hull-and-saturate fixpoints below are the
reference implementations: every lattice the package enumerates (open
sets, stable opens of sheaves, site frames, the basis-property lattices)
must come out as the same list, in the same order, and raise
`LimitExceeded` with the same estimate one below its size; every least
stable open, and every site's quotient topology, must be the same set.  Random
generator families come from seeded stdlib ``random``."""

import random

import pytest

from modform.checks import _basic_open_m_choices, check_basis_property
from modform.duality import enumerate_stable_arrow_sets, mod_functor, u_power
from modform.errors import LimitExceeded
from modform.groupoid import build_model_groupoid
from modform.logic import EQUALITY_THEORY
from modform.models import IndexSet, model_class
from modform.parser import parse_theory
from modform.search import FormulaSearch
from modform.sheaves import (
    definable_sheaf,
    moerdijk_sheaf,
    stable_open_lattice,
    stable_opens_of_site,
)
from modform.topology import (
    FinSpace,
    arrow_space,
    basic_open_points,
    bits,
    closure_lattice,
    mask,
    model_space,
    reach,
)

THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P/1": parse_theory("rel P/1\n"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"),
}
NAMES = list(THEORIES)


def _class(name, n=2):
    return model_class(THEORIES[name], IndexSet(n))


def reference_union_closure(gens, limit=300_000):
    """The frozenset union-closure loop every lattice used to run."""
    gens = sorted(set(gens), key=lambda s: (len(s), sorted(s)))
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        cur = frontier.pop()
        for gen in gens:
            nxt = cur | gen
            if nxt not in seen:
                if len(seen) >= limit:
                    raise LimitExceeded("lattice too large", len(seen))
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def open_hull(space, subset):
    """The smallest open superset: the union of the minimal neighbourhoods."""
    return frozenset().union(*(space.minimal_nbhd(x) for x in subset))


def reference_minimal_stable_open(sheaf, p):
    """Alternate the open hull and the orbit closure until neither grows."""
    cur = frozenset([p])
    while True:
        nxt = open_hull(sheaf.space, sheaf.stabilize(cur))
        if nxt == cur:
            return cur
        cur = nxt


def reference_stable_opens(sheaf, limit=300_000):
    gens = {reference_minimal_stable_open(sheaf, p) for p in range(len(sheaf.points))}
    return reference_union_closure(gens, limit)


def reference_minimal_stable(g, N, x):
    """Saturate by the arrows of N, then take the open hull, until fixed."""
    cur = g.objects.minimal_nbhd(x)
    while True:
        sat = set(cur)
        for f in N:
            if g.d[f] in sat:
                sat.add(g.c[f])
        nxt = open_hull(g.objects, sat)
        if nxt == cur:
            return cur
        cur = nxt


def reference_stable_open_lattice(g, U, N, limit=300_000):
    return reference_union_closure({reference_minimal_stable(g, N, x) for x in U}, limit)


def reference_quotient_minimal(g, classes, class_of):
    """A site's quotient topology: saturate each class against the open
    hull of its arrows within d^{-1}(U) until fixed."""
    minimal = []
    for ci in range(len(classes)):
        W = {ci}
        while True:
            hull = set()
            for cj in W:
                for f in classes[cj]:
                    hull |= {h for h in g.arrows.minimal_nbhd(f) if h in class_of}
            W2 = {class_of[f] for f in hull}
            if W2 == W:
                break
            W = W2
        minimal.append(frozenset(W))
    return minimal


def assert_matches(new, ref):
    """`new(limit)` lists the same lattice as `ref(limit)`, in the same
    order, within a limit of its size; one below, both raise alike."""
    want = ref(300_000)
    assert new(len(want)) == want
    if len(want) > 1:
        with pytest.raises(LimitExceeded) as got:
            new(len(want) - 1)
        with pytest.raises(LimitExceeded) as expected:
            ref(len(want) - 1)
        assert got.value.estimate == expected.value.estimate


@pytest.mark.parametrize("name", NAMES)
def test_model_and_arrow_space_opens(name):
    mc = _class(name)
    for space in (model_space(mc), arrow_space(mc)):
        assert_matches(
            lambda limit: FinSpace(space.size, space.subbasis).opens(limit),
            lambda limit: reference_union_closure(space.minimal, limit),
        )


def _definable_sheaves(mc):
    search = FormulaSearch(mc)
    for k in range(2):
        for phi, _ in search.classes(k, 2):
            yield definable_sheaf(mc, phi)


@pytest.mark.parametrize("name", NAMES)
def test_stable_opens_of_definable_sheaves_and_powers(name):
    gos = mod_functor(THEORIES[name], IndexSet(2))
    sheaves = list(_definable_sheaves(gos.mc)) + [u_power(gos, k) for k in range(3)]
    for sheaf in sheaves:
        assert_matches(sheaf.stable_opens, lambda limit: reference_stable_opens(sheaf, limit))
        least = {frozenset(bits(m)) for m in sheaf.least_stable_opens()}
        assert least == {reference_minimal_stable_open(sheaf, p) for p in range(len(sheaf))}


@pytest.mark.parametrize("name", NAMES)
def test_site_frames(name):
    mc = _class(name)
    g = build_model_groupoid(mc)
    for N in enumerate_stable_arrow_sets(g):
        if not N:
            continue
        site = moerdijk_sheaf(mc, N)
        assert site.sheaf.space.minimal == reference_quotient_minimal(g, site.classes, site.class_of)
        res = stable_opens_of_site(site)
        assert res["lattice"] == reference_stable_open_lattice(g, site.U, N)
        assert res["sheaf_lattice"] == reference_stable_opens(site.sheaf)
        assert_matches(
            lambda limit: stable_open_lattice(g, site.U, N, limit),
            lambda limit: reference_stable_open_lattice(g, site.U, N, limit),
        )


@pytest.mark.parametrize("name", NAMES)
def test_basis_property_lattices(name):
    mc = _class(name)
    res = check_basis_property(mc)
    for fragment in ("horn", "geometric"):
        choices = list(_basic_open_m_choices(mc, FormulaSearch(mc, fragment), 2, 3))
        opens = [basic_open_points(mc, b) for b in choices]
        want = reference_union_closure(opens)
        assert len(want) == res[fragment]
        assert_matches(
            lambda limit: closure_lattice(map(mask, opens), limit),
            lambda limit: reference_union_closure(opens, limit),
        )


def _random_family(rng, n):
    return [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 6))]


def test_random_families():
    rng = random.Random(5)
    for _ in range(200):
        gens = _random_family(rng, rng.randint(1, 9))
        assert_matches(
            lambda limit: closure_lattice(map(mask, gens), limit),
            lambda limit: reference_union_closure(gens, limit),
        )


def test_reach_is_the_least_closed_superset():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 10)
        push = [mask(rng.sample(range(n), rng.randint(0, min(2, n)))) for _ in range(n)]
        for x in range(n):
            cur = {x}
            while True:
                nxt = cur.union(*(bits(push[y]) for y in cur))
                if nxt == cur:
                    break
                cur = nxt
            assert bits(reach(push, x)) == sorted(cur)
