"""The isomorphism groupoid on integer keys against the code it replaced.

Canonical-form buckets, the permutation index and the bitmask minimal
neighbourhoods are each held to a slow reference: the all-pairs
isomorphism scan, StructIso algebra with a lookup by ``_key``, and
frozenset intersection.  At n=4 the model and isomorphism counts are held
to orbit-counting formulas, without reading the composition table.
Random data comes from seeded stdlib ``random``."""

import itertools
import math
import random

import pytest

from modform.checks import check_groupoid_axioms
from modform.duality import mod_functor, pullback_sheaf, u_power
from modform.errors import InterpretationError, InvariantError
from modform.groupoid import build_model_groupoid, mod_on_interpretation
from modform.logic import EQUALITY_THEORY, TOP, Eq, Interpretation, Rel, Var, fic
from modform.models import (
    IndexSet,
    IndexedStructure,
    ModelClass,
    StructIso,
    build_model_class,
    canonical_form,
    enumerate_isomorphisms,
    model_class,
)
from modform.parser import parse_theory
from modform.sheaves import definable_sheaf
from modform.topology import FinSpace, arrow_space, mask, model_space

THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P/1": parse_theory("rel P/1\n"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"),
}
CASES = [(name, n) for name in THEORIES for n in (1, 2, 3)]


def _class(name, n):
    return model_class(THEORIES[name], IndexSet(n))


def _copy(M):
    """An equal structure that shares no object with M."""
    return IndexedStructure(
        list(M.domain),
        [list(b) for b in M.blocks],
        {name: {tuple(t) for t in ts} for name, ts in M.rels.items()},
        {name: dict(g) for name, g in M.funs.items()},
    )


def _relabel(M, pi):
    """The isomorphic copy of M carried by pi's image of its domain."""
    blocks = [sorted(pi[x] for x in b) for b in M.blocks]
    key = {b[0]: min(nb) for b, nb in zip(M.blocks, blocks)}
    rels = {name: {tuple(key[k] for k in t) for t in ts} for name, ts in M.rels.items()}
    funs = {
        name: {tuple(key[k] for k in args): key[v] for args, v in g.items()}
        for name, g in M.funs.items()
    }
    return IndexedStructure([pi[x] for x in M.domain], blocks, rels, funs)


def reference_minimal(size, subbasis):
    full = frozenset(range(size))
    out = []
    for x in range(size):
        nbhd = full
        for _, s in subbasis:
            if x in s:
                nbhd &= frozenset(s)
        out.append(nbhd)
    return out


@pytest.mark.parametrize("name,n", CASES)
def test_bucketed_isos_match_all_pairs_scan(name, n):
    mc = _class(name, n)
    scan = [f for M in mc.models for N in mc.models for f in enumerate_isomorphisms(M, N)]
    assert [f._key for f in mc.isos] == [f._key for f in scan]


@pytest.mark.parametrize("name,n", CASES)
def test_arrow_lookups_match_structiso_reference(name, n):
    mc = _class(name, n)
    by_key = {f._key: j for j, f in enumerate(mc.isos)}
    for i, M in enumerate(mc.models):
        assert mc.find_model(_copy(M)) == i
        assert mc.identity_of[i] == by_key[StructIso(M, M, {k: k for k in M.keys})._key]
    for j, f in enumerate(mc.isos):
        assert mc.inverse_of[j] == by_key[f.inverse()._key]
        fresh = StructIso(_copy(f.dom), _copy(f.cod), f.mapping)
        assert mc.find_iso(fresh) == by_key[fresh._key] == j


@pytest.mark.parametrize("name,n", [("T_eq", 2), ("P/1", 2), ("symE", 2), ("T_eq", 3)])
def test_composites_match_structiso_reference(name, n):
    mc = build_model_class(THEORIES[name], IndexSet(n))
    gr = build_model_groupoid(mc)
    by_key = {f._key: j for j, f in enumerate(mc.isos)}
    for g, f in gr.composable():
        assert gr.compose(g, f) == by_key[mc.isos[g].compose(mc.isos[f])._key]


@pytest.mark.parametrize("name,n", CASES)
def test_canonical_form_is_invariant_under_relabelling(name, n):
    mc = _class(name, n)
    rng = random.Random(13)
    wide = list(range(n + 2))
    for M in mc.models:
        pi = dict(zip(range(n), rng.sample(wide, n)))
        N = _relabel(M, pi)
        assert enumerate_isomorphisms(M, N)
        assert canonical_form(N) == canonical_form(M)


@pytest.mark.parametrize("name,n", [("T_eq", 3), ("P/1", 3), ("symE", 2)])
def test_canonical_forms_separate_classes(name, n):
    mc = _class(name, n)
    forms = [canonical_form(M) for M in mc.models]
    for i, M in enumerate(mc.models):
        for j, N in enumerate(mc.models):
            assert (forms[i] == forms[j]) == bool(enumerate_isomorphisms(M, N))


@pytest.mark.parametrize("name,n", CASES)
def test_minimal_nbhds_match_intersection_on_model_spaces(name, n):
    """The model space, and the spaces built as initial topologies of their
    structure maps: the arrow space, the powers of the generic object, a
    definable sheaf and check_pullback_square's pulled-back sheaf."""
    mc = _class(name, n)
    gos = mod_functor(THEORIES[name], IndexSet(n))
    generic = definable_sheaf(gos.s_mc, fic(["x0"], TOP))
    spaces = [model_space(mc), arrow_space(mc)]
    spaces += [u_power(gos, k).space for k in (0, 1, 2)]
    spaces.append(definable_sheaf(mc, fic(["x0", "x1"], Eq(Var("x0"), Var("x1")))).space)
    spaces.append(pullback_sheaf(gos.morphism(), generic).space)
    for space in spaces:
        assert space.minimal == reference_minimal(space.size, space.subbasis)


@pytest.mark.parametrize("name,n", [("T_eq", 2), ("symE", 2)])
def test_the_model_space_is_built_once_per_class(name, n):
    mc = _class(name, n)
    assert model_space(mc) is build_model_groupoid(mc).objects


def reference_arrow_subbasis(mc):
    """The arrow space's subbasis as listed when it was built eagerly: the
    d- and c-preimages of each model-space subbasic set, then each <a->b>,
    found by testing every arrow."""
    S = mc.S.elements()
    preimages = [
        (prefix + name, frozenset(j for j, x in enumerate(ends) if x in s))
        for name, s in model_space(mc).subbasis
        for prefix, ends in (("d", mc.iso_dom), ("c", mc.iso_cod))
    ]
    return preimages + [
        (f"<{a}->{b}>", frozenset(
            j
            for j, f in enumerate(mc.isos)
            if f.dom.has(a) and f.cod.has(b) and f.apply(f.dom.block_key(a)) == f.cod.block_key(b)
        ))
        for a in S
        for b in S
    ]


@pytest.mark.parametrize("name,n", CASES + [("T_eq", 4)])
def test_factored_membership_is_the_minimal_neighbourhood(name, n):
    # g ∈ U_f from the factors, d(g) ∈ U_{d f}, c(g) ∈ U_{c f} and pairs[g]
    # ⊇ pairs[f], before any neighbourhood or subbasis is built; then the
    # ones built on first read, held to the intersection of the subbasis
    mc = build_model_class(THEORIES[name], IndexSet(n))
    space = build_model_groupoid(mc).arrows
    factored = [frozenset(g for g in space.points if space.in_nbhd(g, f)) for f in space.points]
    assert not {"masks", "minimal", "subbasis"} & vars(space).keys()
    subbasis = reference_arrow_subbasis(mc)
    want = reference_minimal(space.size, subbasis)
    assert space.subbasis == subbasis
    assert space.masks == [mask(m) for m in want]
    assert space.minimal == want == factored


def test_the_groupoid_laws_build_no_arrow_neighbourhood():
    mc = build_model_class(THEORIES["symE"], IndexSet(3))
    assert check_groupoid_axioms(mc)["status"] == "pass"
    space = build_model_groupoid(mc).arrows
    assert not {"masks", "minimal", "subbasis"} & vars(space).keys()


def test_minimal_nbhds_match_intersection_on_random_subbases():
    rng = random.Random(19)
    for _ in range(200):
        size = rng.randint(0, 300)
        subbasis = [
            (f"s{k}", rng.sample(range(size), rng.randint(0, size)))
            for k in range(rng.randint(0, 12))
        ]
        assert FinSpace(size, subbasis).minimal == reference_minimal(size, subbasis)


def _stirling2(m, k):
    if m == k:
        return 1
    if k == 0 or k > m:
        return 0
    return k * _stirling2(m - 1, k) + _stirling2(m - 1, k - 1)


def _shapes(n, k):
    """The number of k-block partitions of subsets of an n-element set."""
    return sum(math.comb(n, m) * _stirling2(m, k) for m in range(n + 1))


def test_equality_theory_counts_at_four():
    c = [_shapes(4, k) for k in range(5)]
    assert c == [1, 15, 25, 10, 1]
    mc = build_model_class(EQUALITY_THEORY, IndexSet(4))
    assert len(mc.models) == sum(c) == 52
    assert len(mc.isos) == sum(ck * ck * math.factorial(k) for k, ck in enumerate(c)) == 2100
    assert "composites" not in vars(mc)


def test_symmetric_relation_counts_at_four():
    # symmetric relations on k labelled blocks, grouped into orbits under
    # relabelling; a class of shape k and orbit R has c_k * |R| models, and
    # each pair in it has |Aut| isomorphisms
    c = [_shapes(4, k) for k in range(5)]
    models = isos = classes = 0
    for k, ck in enumerate(c):
        pairs = [(a, b) for a in range(k) for b in range(a, k)]
        labelled = [
            frozenset(t for (a, b), on in zip(pairs, bits) if on for t in {(a, b), (b, a)})
            for bits in itertools.product((0, 1), repeat=len(pairs))
        ]
        assert len(labelled) == 2 ** (k * (k + 1) // 2)
        perms = list(itertools.permutations(range(k)))
        seen = set()
        for R in labelled:
            if R in seen:
                continue
            orbit = {frozenset((p[a], p[b]) for a, b in R) for p in perms}
            seen |= orbit
            aut = sum(1 for p in perms if frozenset((p[a], p[b]) for a, b in R) == R)
            models += ck * len(orbit)
            isos += (ck * len(orbit)) ** 2 * aut
            classes += 1
    assert models == sum(ck * 2 ** (k * (k + 1) // 2) for k, ck in enumerate(c)) == 1895
    mc = build_model_class(THEORIES["symE"], IndexSet(4))
    assert len(mc.models) == models
    assert len(mc.isos) == isos == 73_427
    assert len({canonical_form(M) for M in mc.models}) == classes == 119
    assert "composites" not in vars(mc)


def test_missing_lookups_raise_typed_errors():
    mc = _class("symE", 2)
    M = next(M for M in mc.models if M.rels["E"] == {(0, 0)} and len(M.keys) == 2)
    swap = StructIso(M, M, {0: 1, 1: 0})
    assert not swap.preserves_structure()
    with pytest.raises(InvariantError, match="is not an arrow"):
        mc.find_iso(swap)
    outside = IndexedStructure([0, 1], [(0,), (1,)], {"E": {(0, 1)}})
    with pytest.raises(InvariantError, match="is not a model"):
        mc.find_model(outside)
    with pytest.raises(InvariantError, match="is not a model"):
        mc.find_iso(StructIso(outside, outside, {0: 0, 1: 1}))


def test_missing_composite_raises_a_typed_error():
    # without the identity of a one-block model, an arrow after its inverse
    # has no arrow to name it
    mc = _class("T_eq", 2)
    M = next(i for i, M in enumerate(mc.models) if len(M.keys) == 1)
    ident = mc.identity_of[M]
    isos = [f for j, f in enumerate(mc.isos) if j != ident]
    broken = ModelClass(mc.theory, mc.S, mc.models, isos)
    with pytest.raises(InvariantError, match=r"the composite of arrows \d+ after \d+ is not an arrow"):
        broken.composites


def test_reduct_outside_the_source_class_is_an_interpretation_error():
    # E(x, y) := P(x) is not symmetric, so some reducts are not symE models
    src = THEORIES["symE"]
    tgt = THEORIES["P/1"]
    F = Interpretation(src, tgt, (("E", fic(["x", "y"], Rel("P", (Var("x"),)))),), ())
    with pytest.raises(InterpretationError, match="reduct of model"):
        mod_on_interpretation(F, IndexSet(2))
