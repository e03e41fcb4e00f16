"""The per-class memo tables of the logical topology against the uncached
code they replaced.

The reference functions below are the implementations from before the
memo tables: they recompute every basic open, subbasis and sheaf from the
models on each call.  The memoized versions must give equal values on real
model classes, and a repeated query must return the very same object.
Random formulas, parameter tuples and pair sets come from seeded stdlib
``random``."""

import itertools
import random

import pytest

from modform.errors import LimitExceeded
from modform.groupoid import build_model_groupoid
from modform.logic import App, EQUALITY_THEORY, Eq, Rel, TOP, Var, fic
from modform.models import IndexSet, build_model_class, eval_formula, model_class
from modform.parser import parse_theory
from modform.search import FormulaSearch
from modform.sheaves import definable_sheaf
from modform.topology import (
    BasicOpenI,
    BasicOpenM,
    FinSpace,
    atomic_opens,
    atomic_subbasis,
    basic_open_arrows,
    basic_open_points,
    trivial_open_m,
)

THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P/1": parse_theory("rel P/1\n"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"),
}
CASES = [("T_eq", 2), ("P/1", 2), ("symE", 2), ("T_eq", 3)]
SYM_E = THEORIES["symE"]


def _class(name, n):
    return model_class(THEORIES[name], IndexSet(n))


def reference_points(mc, b):
    out = set()
    for i, M in enumerate(mc.models):
        if all(M.has(p) for p in b.params):
            key = tuple(M.block_key(p) for p in b.params)
            if key in mc.ext(i, b.formula):
                out.add(i)
    return frozenset(out)


def reference_arrows(mc, v):
    dom_set = reference_points(mc, v.dom)
    cod_set = reference_points(mc, v.cod)
    out = set()
    for j, f in enumerate(mc.isos):
        if mc.iso_dom[j] not in dom_set or mc.iso_cod[j] not in cod_set:
            continue
        ok = True
        for a, b in v.pairs:
            if not (f.dom.has(a) and f.cod.has(b)):
                ok = False
                break
            if f.apply(f.dom.block_key(a)) != f.cod.block_key(b):
                ok = False
                break
        if ok:
            out.add(j)
    return frozenset(out)


def _var_tuple(k):
    return tuple(Var(f"x{i}") for i in range(k))


def reference_atomic(mc):
    sig = mc.theory.signature
    S = mc.S
    out = []
    for a in S.elements():
        b = BasicOpenM(fic(["x0"], TOP), (a,))
        out.append((f"<{a}>", reference_points(mc, b), b))
    for a in S.elements():
        for bb in S.elements():
            op = BasicOpenM(fic(["x0", "x1"], Eq(Var("x0"), Var("x1"))), (a, bb))
            out.append((f"({a}~{bb})", reference_points(mc, op), op))
    for name, arity in sig.rels:
        for t in itertools.product(S.elements(), repeat=arity):
            op = BasicOpenM(
                fic([f"x{i}" for i in range(arity)], Rel(name, _var_tuple(arity))), t
            )
            label = f"<{name},({','.join(map(str, t))})>"
            out.append((label, reference_points(mc, op), op))
    for name, arity in sig.funs:
        for t in itertools.product(S.elements(), repeat=arity + 1):
            args, val = t[:arity], t[arity]
            phi = Eq(App(name, _var_tuple(arity)), Var(f"x{arity}"))
            op = BasicOpenM(fic([f"x{i}" for i in range(arity + 1)], phi), t)
            label = f"<{name}({','.join(map(str, args))})={val}>"
            out.append((label, reference_points(mc, op), op))
    return out


def reference_sheaf(mc, f):
    """(points, r, space, act) of the definable sheaf, rebuilt from scratch."""
    g = build_model_groupoid(mc)
    k = len(f)
    points = []
    for i in range(len(mc.models)):
        for t in sorted(mc.ext(i, f)):
            points.append((i, t))
    index = {p: n for n, p in enumerate(points)}
    r = tuple(i for i, _ in points)
    sub = []
    for name, pts, _ in reference_atomic(mc):
        sub.append((f"p1{name}", frozenset(n for n, (i, _) in enumerate(points) if i in pts)))
    for params in itertools.product(mc.S.elements(), repeat=k):
        img = set()
        for n, (i, t) in enumerate(points):
            M = mc.models[i]
            if all(M.has(p) for p in params) and t == tuple(M.block_key(p) for p in params):
                img.add(n)
        label = ",".join(map(str, params)) or "*"
        sub.append((f"s[{label}]", frozenset(img)))
    act = {}
    for j in range(g.arrows.size):
        iso = mc.isos[j]
        for n, (i, t) in enumerate(points):
            if i == mc.iso_dom[j]:
                act[(j, n)] = index[(mc.iso_cod[j], iso.apply_tuple(t))]
    return points, r, FinSpace(len(points), sub), act


def _formulas(mc, rng, k_max=2, depth=2, count=12):
    """Seeded draw of formulas-in-context of every length up to k_max."""
    search = FormulaSearch(mc)
    out = []
    for k in range(k_max + 1):
        pool = [f for f, _ in search.classes(k, depth)]
        out.extend(rng.sample(pool, min(count, len(pool))))
    return out


def _random_open_m(mc, rng, formulas):
    f = rng.choice(formulas)
    return BasicOpenM(f, tuple(rng.choice(mc.S.elements()) for _ in range(len(f))))


@pytest.mark.parametrize("name,n", CASES)
def test_points_match_reference(name, n):
    mc = _class(name, n)
    for f in _formulas(mc, random.Random(3)):
        for params in itertools.product(mc.S.elements(), repeat=len(f)):
            b = BasicOpenM(f, params)
            got = basic_open_points(mc, b)
            assert got == reference_points(mc, b)
            assert basic_open_points(mc, BasicOpenM(f, params)) is got


@pytest.mark.parametrize("name,n", CASES)
def test_arrows_match_reference(name, n):
    mc = _class(name, n)
    rng = random.Random(13)
    formulas = _formulas(mc, rng)
    all_pairs = list(itertools.product(mc.S.elements(), repeat=2))
    for _ in range(60):
        pairs = tuple(rng.sample(all_pairs, rng.randint(0, min(3, len(all_pairs)))))
        v = BasicOpenI(_random_open_m(mc, rng, formulas), pairs, _random_open_m(mc, rng, formulas))
        assert basic_open_arrows(mc, v) == reference_arrows(mc, v)
    # every pair set, between the trivial opens
    for size in range(len(all_pairs) + 1):
        for pairs in itertools.combinations(all_pairs, size):
            v = BasicOpenI(trivial_open_m(), pairs, trivial_open_m())
            assert basic_open_arrows(mc, v) == reference_arrows(mc, v)


@pytest.mark.parametrize("name,n", CASES)
def test_atomic_subbasis_matches_reference(name, n):
    mc = _class(name, n)
    subbasis = atomic_subbasis(mc)
    assert isinstance(subbasis, tuple)
    assert list(subbasis) == reference_atomic(mc)
    assert atomic_opens(mc) == subbasis
    assert atomic_subbasis(mc) is subbasis


@pytest.mark.parametrize("name,n", CASES)
def test_definable_sheaf_matches_reference(name, n):
    mc = _class(name, n)
    for f in _formulas(mc, random.Random(17), count=4):
        sheaf = definable_sheaf(mc, f)
        points, r, space, act = reference_sheaf(mc, f)
        assert sheaf.formula == f
        assert sheaf.points == points
        assert sheaf.r == r
        assert sheaf.space.subbasis == space.subbasis
        assert sheaf.space.minimal == space.minimal
        assert list(sheaf.triples()) == [(a, p, q) for (a, p), q in act.items()]
        assert sheaf.base is build_model_groupoid(mc)
        assert definable_sheaf(mc, f) is sheaf


@pytest.mark.parametrize("name,n", CASES)
def test_equality_opens_match_reference(name, n):
    mc = _class(name, n)
    eq = fic(["x0", "x1"], Eq(Var("x0"), Var("x1")))
    defined = fic(["x0"], TOP)
    for a in mc.S.elements():
        assert mc.equal(a, a) == reference_points(mc, BasicOpenM(defined, (a,)))
        for b in mc.S.elements():
            got = mc.equal(a, b)
            assert got == reference_points(mc, BasicOpenM(eq, (a, b)))
            assert mc.equal(a, b) is got


def test_equal_formulas_share_one_memo_entry():
    mc = model_class(SYM_E, IndexSet(2))
    f1 = fic(["x", "y"], Rel("E", (Var("x"), Var("y"))))
    f2 = fic(["u", "v"], Rel("E", (Var("u"), Var("v"))))
    assert f1 is not f2 and f1 == f2
    assert hash(f1) == hash(f2) == hash((f1.context, f1.formula))
    got = basic_open_points(mc, BasicOpenM(f1, (0, 1)))
    entries = len(mc._points), len(mc._points[f1])
    assert basic_open_points(mc, BasicOpenM(f2, (0, 1))) is got
    assert (len(mc._points), len(mc._points[f2])) == entries
    assert definable_sheaf(mc, f2) is definable_sheaf(mc, f1)


@pytest.mark.parametrize("name,n", CASES)
def test_ext_equals_evaluation(name, n):
    mc = _class(name, n)
    shared = {}
    for f in _formulas(mc, random.Random(19)):
        for i, M in enumerate(mc.models):
            got = mc.ext(i, f)
            assert got == frozenset(eval_formula(M, f))
            assert mc.ext(i, f) is got
            for t in got:
                assert shared.setdefault(t, t) is t  # one tuple object per value


def test_cached_class_honours_limit():
    S = IndexSet(1)
    mc = model_class(EQUALITY_THEORY, S)
    nodes = mc.search_nodes
    assert nodes > 0
    for limit in (0, nodes - 1, nodes, nodes + 1):
        try:
            build_model_class(EQUALITY_THEORY, S, limit)
            fresh_raises = False
        except LimitExceeded:
            fresh_raises = True
        assert fresh_raises is (limit < nodes)
        if fresh_raises:
            with pytest.raises(LimitExceeded):
                model_class(EQUALITY_THEORY, S, limit)
        else:
            assert model_class(EQUALITY_THEORY, S, limit) is mc
    assert model_class(EQUALITY_THEORY, S, None) is mc


def test_groupoid_is_declared_and_kept_by_the_class():
    mc = build_model_class(EQUALITY_THEORY, IndexSet(2))
    assert mc._groupoid is None and mc._atomic is None
    assert mc.search_nodes == model_class(EQUALITY_THEORY, IndexSet(2)).search_nodes
    g = build_model_groupoid(mc)
    assert mc._groupoid is g
    assert build_model_groupoid(mc) is g
    assert mc._atomic is not None
