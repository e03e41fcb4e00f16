"""`sheaves.tuple_sheaf`, the one builder of the powers of the generic
object and of definable sheaves, against the two builders it replaced.

`reference_u_power`, `reference_definable_sheaf` and
`reference_theory_view` are those builders and the old `theory_view`, with
its own point-set algebra for diagonals, projections and substitution
instances.  The new code must give the same points, projection, action and
subbasis (names and sets), each in the same order, and the same `Theory`.
`TupleSheaf.where` and `TupleSheaf.tuples_over` are held to plain
comprehensions over the points."""

import itertools
import random
from collections import namedtuple

import pytest

from modform.duality import (
    GroupoidOverS,
    form_functor,
    mod_functor,
    theory_view,
    u_power,
)
from modform.groupoid import TopGroupoid, build_model_groupoid
from modform.logic import (
    BOT,
    EQUALITY_THEORY,
    TOP,
    And,
    Eq,
    Exists,
    Or,
    Rel,
    Sequent,
    Signature,
    Theory,
    Var,
    disj,
)
from modform.models import IndexSet, IndexedStructure, model_class
from modform.parser import parse_theory
from modform.search import FormulaSearch
from modform.sheaves import definable_sheaf
from modform.topology import FinSpace, atomic_subbasis, bits

S2 = IndexSet(2)
# a replaced builder's sheaf, with its action as a dict (arrow, point) -> point
Reference = namedtuple("Reference", "points r space act")
THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P1": parse_theory("rel P/1"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)"),
}


# ---------------------------------------------------------------------------
# the replaced builders


def reference_u_power(gos, k):
    g = gos.groupoid
    points = []
    for x in range(g.objects.size):
        A = gos.carrier(x)
        for t in itertools.product(A.keys, repeat=k):
            points.append((x, t))
    index = {p: i for i, p in enumerate(points)}
    sub = []
    for name, pts in g.objects.subbasis:
        sub.append((f"p1{name}", frozenset(i for i, (x, _) in enumerate(points) if x in pts)))
    for params in itertools.product(gos.s_mc.S.elements(), repeat=k):
        img = set()
        for i, (x, t) in enumerate(points):
            A = gos.carrier(x)
            if all(A.has(p) for p in params) and t == tuple(A.block_key(p) for p in params):
                img.add(i)
        label = ",".join(map(str, params)) or "*"
        sub.append((f"s[{label}]", frozenset(img)))
    act = {}
    for a in range(g.arrows.size):
        iso = gos.s_mc.isos[gos.f1[a]]
        for i, (x, t) in enumerate(points):
            if x == g.d[a]:
                act[(a, i)] = index[(g.c[a], iso.apply_tuple(t))]
    r = tuple(x for x, _ in points)
    return Reference(points, r, FinSpace(len(points), sub), act)


def reference_definable_sheaf(mc, f):
    g = build_model_groupoid(mc)
    points = []
    for i in range(len(mc.models)):
        for t in sorted(mc.ext(i, f)):
            points.append((i, t))
    index = {p: n for n, p in enumerate(points)}
    sub = []
    for name, pts, _ in atomic_subbasis(mc):
        sub.append((f"p1{name}", frozenset(n for n, (i, _) in enumerate(points) if i in pts)))
    for params in itertools.product(mc.S.elements(), repeat=len(f)):
        img = set()
        for n, (i, t) in enumerate(points):
            M = mc.models[i]
            if all(M.has(p) for p in params) and t == tuple(M.block_key(p) for p in params):
                img.add(n)
        label = ",".join(map(str, params)) or "*"
        sub.append((f"s[{label}]", frozenset(img)))
    act = {}
    for j in range(g.arrows.size):
        for n, (i, t) in enumerate(points):
            if i == mc.iso_dom[j]:
                act[(j, n)] = index[(mc.iso_cod[j], mc.isos[j].apply_tuple(t))]
    r = tuple(i for i, _ in points)
    return Reference(points, r, FinSpace(len(points), sub), act)


def reference_theory_view(rc):
    if rc.inconsistent:
        return Theory(Signature(), (Sequent((), TOP, BOT),), "Form(empty)"), {}
    names = {}
    rels = []
    irreducibles = {}
    for k in sorted(rc.levels):
        least = {frozenset(bits(m)) for m in rc.powers[k].least_stable_opens()}
        irreducibles[k] = [V for V in rc.levels[k] if V in least]
        order = [i for i, V in enumerate(rc.levels[k]) if V in least]
        order += [i for i, V in enumerate(rc.levels[k]) if V not in least]
        for i, V in enumerate(rc.levels[k]):
            names[(k, i)] = f"P{k}_{i}"
        for i in order:
            rels.append((names[(k, i)], k))
    sig = Signature(tuple(rels), ())
    sheaves = rc.powers

    def atom(k, i):
        return Rel(names[(k, i)], tuple(Var(f"x{m}") for m in range(k)))

    def ctx(k):
        return tuple(f"x{m}" for m in range(k))

    axioms = []
    seen = set()

    def add(context, lhs, rhs):
        s = Sequent(context, lhs, rhs)
        if s not in seen:
            seen.add(s)
            axioms.append(s)

    for k, lvl in sorted(rc.levels.items()):
        full = frozenset(range(len(sheaves[k].points)))
        empty = frozenset()
        add(ctx(k), TOP, atom(k, rc.index[k][full]))
        add(ctx(k), atom(k, rc.index[k][full]), TOP)
        add(ctx(k), atom(k, rc.index[k][empty]), BOT)
        add(ctx(k), BOT, atom(k, rc.index[k][empty]))
        gen_set = set(irreducibles[k])
        for i, V in enumerate(lvl):
            if V not in gen_set:
                decomposition = disj(
                    [atom(k, rc.index[k][W]) for W in irreducibles[k] if W <= V]
                )
                add(ctx(k), atom(k, i), decomposition)
                add(ctx(k), decomposition, atom(k, i))
        gen_idx = [rc.index[k][W] for W in irreducibles[k]]
        for i in gen_idx:
            V = lvl[i]
            for j in gen_idx:
                W = lvl[j]
                if i != j and V <= W:
                    add(ctx(k), atom(k, i), atom(k, j))
                meet = V & W
                add(ctx(k), And((atom(k, i), atom(k, j))), atom(k, rc.index[k][meet]))
                add(ctx(k), atom(k, rc.index[k][meet]), And((atom(k, i), atom(k, j))))
                join = V | W
                add(ctx(k), Or((atom(k, i), atom(k, j))), atom(k, rc.index[k][join]))
                add(ctx(k), atom(k, rc.index[k][join]), Or((atom(k, i), atom(k, j))))
    # diagonals
    for k, lvl in sorted(rc.levels.items()):
        for a in range(k):
            for b in range(a + 1, k):
                diag = frozenset(
                    i for i, (x, t) in enumerate(sheaves[k].points) if t[a] == t[b]
                )
                i = rc.position(k, diag, "diagonal")
                eq = Eq(Var(f"x{a}"), Var(f"x{b}"))
                add(ctx(k), atom(k, i), eq)
                add(ctx(k), eq, atom(k, i))
    # projections of the last coordinate
    for k in sorted(rc.levels):
        if k + 1 not in rc.levels:
            continue
        pw, pw1 = sheaves[k], sheaves[k + 1]
        for i, V in enumerate(rc.levels[k + 1]):
            proj = frozenset(pw.point_index[(x, t[:k])] for x, t in (pw1.points[p] for p in V))
            j = rc.position(k, proj, "projection image")
            ex = Exists(f"x{k}", Rel(names[(k + 1, i)], tuple(Var(f"x{m}") for m in range(k + 1))))
            add(ctx(k), atom(k, j), ex)
            add(ctx(k), ex, atom(k, j))
    # substitution instances
    for k in sorted(rc.levels):
        for m in sorted(rc.levels):
            for sigma in itertools.product(range(m), repeat=k):
                pw_k, pw_m = sheaves[k], sheaves[m]
                for i, V in enumerate(rc.levels[k]):
                    Vset = set(V)
                    inst = frozenset(
                        p
                        for p, (x, t) in enumerate(pw_m.points)
                        if pw_k.point_index[(x, tuple(t[s] for s in sigma))] in Vset
                    )
                    j = rc.position(m, inst, "substitution instance")
                    sub_atom = Rel(names[(k, i)], tuple(Var(f"x{s}") for s in sigma))
                    add(ctx(m), atom(m, j), sub_atom)
                    add(ctx(m), sub_atom, atom(m, j))
    return Theory(sig, tuple(axioms), "Form-theory"), names


# ---------------------------------------------------------------------------
# fixtures


def one_object():
    smc = model_class(EQUALITY_THEORY, S2)
    m0 = smc.find_model(IndexedStructure([0], [(0,)]))
    g = TopGroupoid(
        FinSpace(1, [("o", {0})]), FinSpace(1, [("a", {0})]), (0,), (0,), (0,), (0,), [(0,)]
    )
    return GroupoidOverS(g, smc, (m0,), (smc.identity_of[m0],))


def two_objects():
    smc = model_class(EQUALITY_THEORY, S2)
    m0 = smc.find_model(IndexedStructure([0], [(0,)]))
    m1 = smc.find_model(IndexedStructure([1], [(1,)]))
    g = TopGroupoid(
        FinSpace(2, [("o0", {0}), ("o1", {1})]),
        FinSpace(2, [("a0", {0}), ("a1", {1})]),
        (0, 1), (0, 1), (0, 1), (0, 1), [(0,), (1,)],
    )
    return GroupoidOverS(g, smc, (m0, m1), (smc.identity_of[m0], smc.identity_of[m1]))


GROUPOIDS = {
    **{name: lambda t=t: mod_functor(t, S2) for name, t in THEORIES.items()},
    "one-object": one_object,
    "two-object": two_objects,
}


def assert_same_sheaf(new, old):
    assert new.points == old.points
    assert new.r == old.r
    assert list(new.triples()) == [(a, p, q) for (a, p), q in old.act.items()]
    assert new.space.subbasis == old.space.subbasis


def depth_two_formulas(mc):
    search = FormulaSearch(mc)
    return [f for k in range(3) for f, _ in search.classes(k, 2)]


# ---------------------------------------------------------------------------
# the builder against the replaced ones


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_u_power_matches_the_replaced_builder(name):
    gos = GROUPOIDS[name]()
    for k in range(3):
        assert_same_sheaf(u_power(gos, k), reference_u_power(gos, k))


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_definable_sheaves_match_the_replaced_builder(name):
    mc = model_class(THEORIES[name], S2)
    formulas = depth_two_formulas(mc)
    assert len(formulas) > 5
    for f in formulas:
        new = definable_sheaf(mc, f)
        assert_same_sheaf(new, reference_definable_sheaf(mc, f))
        assert new.formula == f and new.carriers is mc.models


@pytest.mark.parametrize(
    "name,k_max", [("T_eq", 1), ("P1", 1), ("symE", 1), ("T_eq", 2)]
)
def test_theory_view_matches_its_replaced_set_algebra(name, k_max):
    rc = form_functor(mod_functor(THEORIES[name], S2), k_max)
    theory, names = theory_view(rc)
    ref_theory, ref_names = reference_theory_view(rc)
    assert names == ref_names
    assert theory.signature == ref_theory.signature
    assert theory.axioms == ref_theory.axioms
    assert theory == ref_theory


# ---------------------------------------------------------------------------
# the queries against comprehensions


def sample_sheaves():
    for name in sorted(GROUPOIDS):
        gos = GROUPOIDS[name]()
        yield from (u_power(gos, k) for k in range(3))
    for name in sorted(THEORIES):
        mc = model_class(THEORIES[name], S2)
        yield from (definable_sheaf(mc, f) for f in depth_two_formulas(mc)[::3])


def test_where_and_tuples_over_match_comprehensions():
    rng = random.Random(7)
    checked = 0
    for sheaf in sample_sheaves():
        n = sheaf.base.objects.size
        tuples = sorted({t for _, t in sheaf.points})
        for _ in range(4):
            fam = [frozenset(t for t in tuples if rng.random() < 0.5) for _ in range(n)]
            assert sheaf.where(fam.__getitem__) == frozenset(
                i for i, (x, t) in enumerate(sheaf.points) if t in fam[x]
            )
            k = len(tuples[0]) if tuples else 0
            coords = tuple(rng.randrange(k) for _ in range(rng.randrange(k + 1))) if k else ()
            sub = [frozenset(tuple(t[c] for c in coords) for t in fam[x]) for x in range(n)]
            assert sheaf.where(sub.__getitem__, coords) == frozenset(
                i
                for i, (x, t) in enumerate(sheaf.points)
                if tuple(t[c] for c in coords) in sub[x]
            )
            V = frozenset(i for i in range(len(sheaf.points)) if rng.random() < 0.5)
            assert sheaf.tuples_over(V) == [
                frozenset(t for i, (y, t) in enumerate(sheaf.points) if i in V and y == x)
                for x in range(n)
            ]
            checked += 1
    assert checked > 50

