"""Fiber-indexed composition, sheaf laws and orbits, and the bitmask
closure engine against the code they replaced.

The all-pairs scans, the frozenset worklist closure and its depth-first
enumerator below are the reference implementations: every composable-pair
computation that now walks codomain fibers, and every arrow-set closure
that now runs on bitmasks, must give the same result, in the same order,
on real model groupoids.  Random arrow subsets come from seeded stdlib
``random``."""

import random

import pytest

from modform import duality
from modform.duality import _close, _hull_tables, closed_hull, enumerate_stable_arrow_sets
from modform.errors import LimitExceeded
from modform.groupoid import TopGroupoid, build_model_groupoid
from modform.logic import EQUALITY_THEORY, TOP, fic
from modform.models import IndexSet, fibers, model_class
from modform.parser import parse_theory
from modform.search import FormulaSearch
from modform.sheaves import EquivariantSheaf, SheafMorphism, definable_sheaf, moerdijk_sheaf
from modform.topology import FinSpace, bits, mask

THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P/1": parse_theory("rel P/1\n"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"),
}
CASES = [("T_eq", 2), ("P/1", 2), ("symE", 2), ("T_eq", 3)]


def _class(name, n):
    return model_class(THEORIES[name], IndexSet(n))


def reference_closed_hull(g, arrows):
    """The round-based fixpoint: every pair of the set, every round."""
    cur = frozenset(arrows)
    while True:
        nxt = set(cur)
        for f in cur:
            nxt |= g.arrows.minimal_nbhd(f)
            nxt.add(g.i[f])
        for a in nxt.copy():
            for b in nxt.copy():
                if g.d[a] == g.c[b]:
                    nxt.add(g.compose(a, b))
        nxt = frozenset(nxt)
        if nxt == cur:
            return cur
        cur = nxt


def reference_worklist_hull(g, arrows, closed=frozenset()):
    """The frozenset worklist closure; `closed` must already be closed."""
    hull = set(closed)
    into = fibers(g.c, hull)
    out_of = fibers(g.d, hull)
    work = list(arrows)
    while work:
        a = work.pop()
        if a in hull:
            continue
        hull.add(a)
        into.setdefault(g.c[a], []).append(a)
        out_of.setdefault(g.d[a], []).append(a)
        work.extend(g.arrows.minimal_nbhd(a))
        work.append(g.i[a])
        work.extend(g.compose(a, b) for b in into.get(g.d[a], ()))
        work.extend(g.compose(b, a) for b in out_of.get(g.c[a], ()))
    return frozenset(hull)


def reference_stable_arrow_sets(g, limit=10_000):
    """The depth-first enumerator on frozensets, re-closing every join."""
    gens = sorted(
        {reference_worklist_hull(g, {a}) for a in range(g.arrows.size)},
        key=lambda s: (len(s), sorted(s)),
    )
    seen = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        cur = frontier.pop()
        for gen in gens:
            if gen <= cur:
                continue
            nxt = reference_worklist_hull(g, gen, cur)
            if nxt not in seen:
                if len(seen) >= limit:
                    raise LimitExceeded("too many closed arrow sets", len(seen))
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def reference_comp(mc):
    """(g, f) -> g after f, scanning all pairs of arrows and composing
    their StructIsos."""
    comp = {}
    for gj, g in enumerate(mc.isos):
        for fj, f in enumerate(mc.isos):
            if mc.iso_dom[gj] == mc.iso_cod[fj]:
                comp[(gj, fj)] = mc.find_iso(g.compose(f))
    return comp


def reference_m_continuous(g):
    """Continuity of composition, testing every pair of nbhd(g) x nbhd(f)."""
    for a, b in g.composable():
        target = g.arrows.minimal_nbhd(g.compose(a, b))
        for a2 in g.arrows.minimal_nbhd(a):
            for b2 in g.arrows.minimal_nbhd(b):
                if g.d[a2] == g.c[b2] and g.compose(a2, b2) not in target:
                    return False
    return True


def reference_action(sheaf):
    """The sheaf's action as a dict (arrow, point) -> point, each row read
    along the points over its arrow's domain found by scanning all points;
    an entry past the end of that fiber is keyed (arrow, None, its place)."""
    g, npts = sheaf.base, len(sheaf.points)
    act = {}
    for a, row in enumerate(sheaf.rows):
        fiber = [p for p in range(npts) if sheaf.r[p] == g.d[a]]
        for k, q in enumerate(row):
            act[(a, fiber[k]) if k < len(fiber) else (a, None, k)] = q
    return act


def reference_check_invariants(sheaf):
    """`EquivariantSheaf.check_invariants` on the action as a dict, testing
    the action's domain, composition and continuity laws at every point (of
    all points or of a minimal neighbourhood), skipping those outside the
    domain fiber and the law instances with an undefined term."""
    bad = []
    g = sheaf.base
    npts = len(sheaf.points)
    act = reference_action(sheaf)
    if not sheaf.space.continuous(sheaf.r, g.objects):
        bad.append("projection not continuous")
    for p in range(npts):
        u = sheaf.space.minimal_nbhd(p)
        img = [sheaf.r[q] for q in u]
        if len(set(img)) != len(img):
            bad.append(f"projection not injective near point {p}")
        if not g.objects.is_open(frozenset(img)):
            bad.append(f"projection image of a minimal neighborhood not open at {p}")
    want = {(a, p) for a in range(g.arrows.size) for p in range(npts) if sheaf.r[p] == g.d[a]}
    if set(act) != want:
        bad.append("action domain is not the fibered product")
        return bad
    for (a, p), q in act.items():
        if sheaf.r[q] != g.c[a]:
            bad.append(f"action of {a} leaves the codomain fiber at {p}")
    for p in range(npts):
        u = act.get((g.e[sheaf.r[p]], p))
        if u is not None and u != p:
            bad.append(f"unit axiom fails at point {p}")
    for gq, f in g.composable():
        gf = g.compose(gq, f)
        for p in range(npts):
            if sheaf.r[p] != g.d[f]:
                continue
            lhs, rhs = act.get((gf, p)), act.get((gq, act[(f, p)]))
            if lhs is not None and rhs is not None and lhs != rhs:
                bad.append(f"composition axiom fails at ({gq},{f},{p})")
    for (a, p), q in act.items():
        target = sheaf.space.minimal_nbhd(q)
        for a2 in g.arrows.minimal_nbhd(a):
            for p2 in sheaf.space.minimal_nbhd(p):
                if sheaf.r[p2] == g.d[a2] and act[(a2, p2)] not in target:
                    bad.append(f"action not continuous at ({a},{p})")
    return bad


def reference_stabilize(sheaf, subset):
    """Orbit closure scanning every arrow for each popped point."""
    out = set(subset)
    frontier = list(out)
    g = sheaf.base
    while frontier:
        p = frontier.pop()
        for a in range(g.arrows.size):
            if g.d[a] == sheaf.r[p]:
                q = sheaf.apply(a, p)
                if q not in out:
                    out.add(q)
                    frontier.append(q)
    return frozenset(out)


def _random_subset(rng, size, at_most=4):
    return rng.sample(range(size), rng.randint(1, min(at_most, size)))


@pytest.mark.parametrize("name,n", CASES)
def test_comp_table_matches_all_pairs_scan(name, n):
    # each row lists g's composites over the arrows f with c(f) = d(g), in
    # ascending order of f
    mc = _class(name, n)
    comp, size = reference_comp(mc), len(mc.isos)
    assert mc.composites == [
        tuple(comp[(g, f)] for f in range(size) if (g, f) in comp) for g in range(size)
    ]


@pytest.mark.parametrize("name,n", CASES)
def test_composable_matches_all_pairs_scan(name, n):
    g = build_model_groupoid(_class(name, n))
    size = g.arrows.size
    want = [(a, b) for a in range(size) for b in range(size) if g.d[a] == g.c[b]]
    assert list(g.composable()) == want


@pytest.mark.parametrize("name,n", CASES)
def test_composition_continuity_matches_all_pairs_scan(name, n):
    g = build_model_groupoid(_class(name, n))
    assert g.check_continuity()["m"] is reference_m_continuous(g) is True
    # tables with one composite moved to a parallel arrow; on T_eq n=3 and
    # P/1 n=2 several of them break continuity
    rng = random.Random(5)
    pairs = list(g.composable())
    for _ in range(20):
        a, b = rng.choice(pairs)
        parallel = [x for x in range(g.arrows.size) if (g.d[x], g.c[x]) == (g.d[b], g.c[a])]
        h = _with_composite(g, a, b, rng.choice(parallel))
        assert h.check_continuity()["m"] is reference_m_continuous(h)


@pytest.mark.parametrize("name,n", CASES)
def test_closed_hull_matches_fixpoint(name, n):
    g = build_model_groupoid(_class(name, n))
    rng = random.Random(7)
    for _ in range(20):
        arrows = _random_subset(rng, g.arrows.size)
        assert closed_hull(g, arrows) == reference_closed_hull(g, arrows)


@pytest.mark.parametrize("name,n", CASES)
def test_closed_hull_over_closed_base(name, n):
    g = build_model_groupoid(_class(name, n))
    rng = random.Random(11)
    for _ in range(20):
        cur = reference_closed_hull(g, _random_subset(rng, g.arrows.size, 2))
        gen = _random_subset(rng, g.arrows.size, 2)
        assert closed_hull(g, gen, cur) == closed_hull(g, cur | frozenset(gen))


@pytest.mark.parametrize("name,n", CASES)
def test_join_of_closed_sets_matches_fixpoint(name, n):
    # the enumerator's join: both sides closed, only arrows of one side
    # missing from the other (and the arrows they add) are composed
    g = build_model_groupoid(_class(name, n))
    rng = random.Random(17)
    for _ in range(20):
        cur = reference_closed_hull(g, _random_subset(rng, g.arrows.size, 2))
        gen = reference_closed_hull(g, _random_subset(rng, g.arrows.size, 2))
        assert closed_hull(g, gen, cur) == reference_closed_hull(g, cur | gen)


@pytest.mark.parametrize("name,n", [("T_eq", 3), ("P/1", 2), ("symE", 2)])
def test_step_memo_across_joins_matches_fixpoint(name, n):
    # one set of tables serves every join, as in the enumerator, so a step
    # memoized by one join is read back by later ones on other hulls
    g = build_model_groupoid(_class(name, n))
    tables = _hull_tables(g)
    rng = random.Random(29)
    for _ in range(50):
        cur = mask(reference_closed_hull(g, _random_subset(rng, g.arrows.size, 2)))
        gen = mask(reference_closed_hull(g, _random_subset(rng, g.arrows.size, 2)))
        got = frozenset(bits(_close(tables, cur | gen, gen & ~cur)))
        assert got == reference_closed_hull(g, bits(cur | gen))


@pytest.mark.parametrize("name,n", CASES)
def test_stable_arrow_sets_match_reference_enumerator(name, n):
    g = build_model_groupoid(_class(name, n))
    assert enumerate_stable_arrow_sets(g) == reference_stable_arrow_sets(g)


@pytest.mark.parametrize("name,n", [("T_eq", 2), ("P/1", 2), ("symE", 2)])
def test_stable_arrow_set_limit_matches_reference(name, n):
    g = build_model_groupoid(_class(name, n))
    count = len(reference_stable_arrow_sets(g))
    assert len(enumerate_stable_arrow_sets(g, count)) == count
    with pytest.raises(LimitExceeded) as new:
        enumerate_stable_arrow_sets(g, count - 1)
    with pytest.raises(LimitExceeded) as ref:
        reference_stable_arrow_sets(g, count - 1)
    assert new.value.estimate == ref.value.estimate == count - 1


@pytest.mark.parametrize("name,limit", [("T_eq", 618), ("P/1", 500)])
def test_stable_arrow_set_limit_matches_reference_at_n3(name, limit):
    g = build_model_groupoid(_class(name, 3))
    with pytest.raises(LimitExceeded) as new:
        enumerate_stable_arrow_sets(g, limit)
    with pytest.raises(LimitExceeded) as ref:
        reference_stable_arrow_sets(g, limit)
    assert new.value.estimate == ref.value.estimate == limit
    assert "closed arrow sets" in str(new.value) and "--nlimit" in str(new.value)


@pytest.mark.parametrize(
    "name,n,hulls,kept",
    [("T_eq", 2, 7, 6), ("T_eq", 3, 52, 28), ("P/1", 2, 16, 14), ("symE", 2, 23, 21),
     ("P/1", 3, 193, 106)],
)
def test_generators_are_the_join_irreducible_hulls(name, n, hulls, kept, monkeypatch):
    # a hull is kept exactly when it is not the closure of the hulls
    # strictly below it, found here by a pairwise scan of the hulls
    g = build_model_groupoid(_class(name, n))
    passed = []
    real = duality.closure_lattice
    monkeypatch.setattr(
        duality, "closure_lattice", lambda gens, *rest: passed.extend(gens) or real(gens, *rest)
    )
    with pytest.raises(LimitExceeded):
        enumerate_stable_arrow_sets(g, 1)
    every = {reference_worklist_hull(g, {a}) for a in range(g.arrows.size)}
    irreducible = {
        h for h in every
        if reference_worklist_hull(g, frozenset().union(*(k for k in every if k < h))) != h
    }
    assert {frozenset(bits(m)) for m in passed} == irreducible
    assert (len(every), len(passed)) == (hulls, kept)


@pytest.mark.parametrize("name,n", CASES)
def test_stable_arrow_sets_match_reference_with_swapped_composites(name, n):
    # the pruning needs only that closing is a closure operator, which it is
    # for any composition table; the first swap that changes the lattice
    g = build_model_groupoid(_class(name, n))
    sound = enumerate_stable_arrow_sets(g)
    rng = random.Random(41)
    pairs = list(g.composable())
    got = sound
    while got == sound:
        (a, b), (a2, b2) = rng.sample(pairs, 2)
        x, y = g.compose(a, b), g.compose(a2, b2)
        if x != y:
            h = _with_composite(_with_composite(g, a, b, y), a2, b2, x)
            got = enumerate_stable_arrow_sets(h)
    assert got == reference_stable_arrow_sets(h)


@pytest.mark.parametrize(
    "name,n,count", [("T_eq", 3, 619), ("P/1", 2, 71), ("symE", 2, 348)]
)
def test_stable_arrow_set_counts(name, n, count):
    g = build_model_groupoid(_class(name, n))
    assert len(enumerate_stable_arrow_sets(g)) == count


def _with_row(sheaf, a, row):
    """The sheaf with the row of arrow a replaced by `row`."""
    rows = list(sheaf.rows)
    rows[a] = tuple(row)
    return EquivariantSheaf(sheaf.base, sheaf.points, sheaf.space, sheaf.r, rows)


def _with_entry(sheaf, a, p, q):
    """The sheaf with a·p moved to q."""
    row = list(sheaf.rows[a])
    row[sheaf.pos[p]] = q
    return _with_row(sheaf, a, row)


def test_sheaf_invariants_match_all_points_scan():
    mc = _class("symE", 2)
    g = build_model_groupoid(mc)
    sheaves = [moerdijk_sheaf(mc, N).sheaf for N in enumerate_stable_arrow_sets(g) if N]
    assert len(sheaves) == 347
    for sheaf in sheaves:
        assert sheaf.check_invariants() == reference_check_invariants(sheaf)
    # an action with one arrow sent to another point of its codomain fiber
    sheaf = max(sheaves, key=len)
    a, p = next(
        (a, p) for a, p, q in sheaf.triples() if a not in g.e and sheaf.r.count(sheaf.r[q]) > 1
    )
    q = next(q for q in range(len(sheaf)) if sheaf.r[q] == g.c[a] and q != sheaf.apply(a, p))
    broken = _with_entry(sheaf, a, p, q)
    bad = broken.check_invariants()
    assert any(v.startswith("composition axiom fails") for v in bad)
    assert any(v.startswith("action not continuous") for v in bad)
    assert bad == reference_check_invariants(broken)
    # an action missing one pair of the fibered product: a short row
    row = list(broken.rows[a])
    del row[broken.pos[p]]
    for short_or_long in (_with_row(broken, a, row), _with_row(sheaf, a, sheaf.rows[a] + (q,))):
        bad = short_or_long.check_invariants()
        assert bad[-1] == "action domain is not the fibered product"
        assert bad == reference_check_invariants(short_or_long)


def test_entry_outside_its_codomain_fiber_is_reported_not_raised():
    # the laws through an entry outside its codomain fiber would read an
    # undefined action term; they are skipped and the entry reported
    g, sheaves = _site_sheaves("symE")
    sheaf = max(sheaves, key=len)
    a, p, _ = next((a, p, q) for a, p, q in sheaf.triples() if a not in g.e)
    q = next(q for q in range(len(sheaf)) if sheaf.r[q] != g.c[a])
    broken = _with_entry(sheaf, a, p, q)
    bad = broken.check_invariants()
    assert [v for v in bad if v.startswith("action of")] == [
        f"action of {a} leaves the codomain fiber at {p}"
    ]
    assert bad == reference_check_invariants(broken)
    assert any(v.startswith("composition axiom fails") for v in bad)


def test_base_composite_with_another_domain_is_skipped_not_raised():
    g, sheaves = _site_sheaves("symE")
    sheaf = max(sheaves, key=len)
    a, b = next((a, b) for a, b in g.composable() if g.d[b] in sheaf.r and a not in g.e)
    x = next(x for x in range(g.arrows.size) if g.d[x] != g.d[b] and g.d[x] in sheaf.r)
    base = _with_composite(g, a, b, x)
    broken = EquivariantSheaf(base, sheaf.points, sheaf.space, sheaf.r, sheaf.rows)
    assert broken.check_invariants() == reference_check_invariants(broken)
    assert broken.check_invariants() == sheaf.check_invariants()


def test_morphism_with_points_swapped_across_fibers_is_reported_not_raised():
    # equivariance at a point sent out of its fiber would read the target's
    # action off the arrow's domain; it is skipped and the point reported
    mc = _class("symE", 2)
    sheaf = definable_sheaf(mc, fic(["x0"], TOP))
    p = 0
    q = next(q for q in range(len(sheaf)) if sheaf.r[q] != sheaf.r[p])
    point_map = list(range(len(sheaf)))
    point_map[p], point_map[q] = q, p
    bad = SheafMorphism(sheaf, sheaf, tuple(point_map)).check()
    want = [f"not fiber-preserving at {p}", f"not fiber-preserving at {q}"]
    want += [
        f"not equivariant at ({a},{x})"
        for a, x, y in sheaf.triples()
        if x not in (p, q) and y in (p, q)
    ]
    assert bad == want + ["not continuous"]


def _site_sheaves(name):
    mc = _class(name, 2)
    g = build_model_groupoid(mc)
    return g, [moerdijk_sheaf(mc, N).sheaf for N in enumerate_stable_arrow_sets(g) if N]


def _same_outcome(sheaf):
    """check_invariants gives the reference's messages."""
    got = sheaf.check_invariants()
    assert got == reference_check_invariants(sheaf)
    return got


def _with_composite(g, a, b, x):
    """g with the composite of (a, b) replaced by x, and the same spaces.

    When x is another arrow the composites no longer compose the pair
    masks, so check_continuity leaves the m law to the walk and returns the
    walk's verdicts."""
    moved = x != g.compose(a, b)
    rows = list(g.composites)
    row = list(rows[a])
    row[g.place[b]] = x
    rows[a] = tuple(row)
    h = TopGroupoid(g.objects, g.arrows, g.d, g.c, g.e, g.i, rows)
    walked, walk = [], h.continuity_walk
    h.continuity_walk = lambda laws: walked.extend(laws) or walk(laws)
    assert h.check_continuity() == walk("dceim") and walked == ["m"] * moved
    del h.continuity_walk
    return h


@pytest.mark.parametrize("name", ["T_eq", "P/1", "symE"])
def test_sheaf_invariants_match_all_pairs_scan_on_corrupted_sheaves(name):
    g, sheaves = _site_sheaves(name)
    rng = random.Random(31)
    seen = set()
    for sheaf in rng.sample(sheaves, min(len(sheaves), 12)):
        assert _same_outcome(sheaf) == reference_check_invariants(sheaf)

        def moves(x, y):
            return [sheaf.apply(x, p) for p in range(len(sheaf)) if sheaf.r[p] == g.d[y]]

        pairs = [(a, b) for a, b in g.composable() if g.d[b] in sheaf.r]
        # a broken composition entry: a composite moved to a parallel arrow
        # that acts otherwise on the points over d(b)
        broken_pairs = [
            (a, b, x)
            for a, b in pairs
            for x in g.out_of[g.d[b]]
            if g.c[x] == g.c[a] and moves(x, b) != moves(g.compose(a, b), b)
        ]
        if broken_pairs:
            base = _with_composite(g, *rng.choice(broken_pairs))
            broken = EquivariantSheaf(base, sheaf.points, sheaf.space, sheaf.r, sheaf.rows)
            seen.update(v.split(" at ")[0] for v in _same_outcome(broken))
        # a composite with the right domain and another codomain
        a, b = rng.choice(pairs)
        wrong = [x for x in g.out_of[g.d[b]] if g.c[x] != g.c[a]]
        if wrong:
            base = _with_composite(g, a, b, rng.choice(wrong))
            assert base.mistyped == [(a, b)]
            _same_outcome(EquivariantSheaf(base, sheaf.points, sheaf.space, sheaf.r, sheaf.rows))
        # a non-continuous action: the same action on the discrete space
        discrete = FinSpace(len(sheaf), [(f"{p}", {p}) for p in range(len(sheaf))])
        broken = EquivariantSheaf(g, sheaf.points, discrete, sheaf.r, sheaf.rows)
        seen.update(v.split(" at ")[0] for v in _same_outcome(broken))
        # one action entry moved to each other point, inside or outside its
        # codomain fiber
        a, p, q = rng.choice(list(sheaf.triples()))
        for other in range(len(sheaf)):
            if other != q:
                _same_outcome(_with_entry(sheaf, a, p, other))
        # a missing action-domain entry: a short row
        row = list(sheaf.rows[a])
        del row[sheaf.pos[p]]
        bad = _same_outcome(_with_row(sheaf, a, row))
        assert bad[-1] == "action domain is not the fibered product"
    assert {"composition axiom fails", "action not continuous"} <= seen


@pytest.mark.parametrize("name", ["T_eq", "P/1", "symE"])
def test_stabilize_matches_all_arrow_scan(name):
    mc = _class(name, 2)
    search = FormulaSearch(mc)
    rng = random.Random(37)
    checked = 0
    for k in range(2):
        for phi, _ in search.classes(k, 2):
            sheaf = definable_sheaf(mc, phi)
            subsets = [{p} for p in range(len(sheaf))] + [set()]
            subsets += [_random_subset(rng, len(sheaf)) for _ in range(5) if len(sheaf)]
            for subset in subsets:
                assert sheaf.stabilize(subset) == reference_stabilize(sheaf, subset)
                checked += 1
    assert checked > 0
