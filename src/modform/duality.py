"""The syntactic category, the Mod and Form functors over the groupoid of
sets, unit and counit, triangle identities, and the semantic-groupoid
characterization.

Everything here is computed at explicit bounds: context lengths up to
k_max, formula depth up to a search bound.  Category equality claims are
claims at those bounds; misses of a bounded search are reported as
inconclusive, never as refutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InvariantError, LimitExceeded, SignatureError
from .groupoid import (
    GroupoidMorphism,
    TopGroupoid,
    build_model_groupoid,
    identity_morphism,
    mod_on_interpretation,
)
from .logic import (
    And,
    BOT,
    Bot,
    EQUALITY_THEORY,
    Eq,
    Exists,
    Interpretation,
    Or,
    Rel,
    Sequent,
    Signature,
    Theory,
    TOP,
    Top,
    Var,
    disj,
    fic,
    identity_interpretation,
    initial_interpretation,
)
from .models import (
    DEFAULT_LIMIT,
    IndexedStructure,
    ModelClass,
    StructIso,
    check_interpretation,
    model_class,
)
from .search import FormulaSearch, _is_functional, functional_families
from .sheaves import (
    EquivariantSheaf,
    TupleSheaf,
    definable_sheaf,
    stable_generators,
    tuple_sheaf,
)
from .topology import (
    DEFAULT_LATTICE_LIMIT,
    FinSpace,
    bits,
    closure_lattice,
    mask,
)


# ---------------------------------------------------------------------------
# groupoids over the groupoid of sets


@dataclass
class GroupoidOverS:
    """A finite topological groupoid with a continuous map to the groupoid
    of indexed sets."""

    groupoid: TopGroupoid
    s_mc: ModelClass  # the model class of the empty theory
    f0: tuple  # object -> S-object index
    f1: tuple  # arrow -> S-arrow index
    mc: ModelClass = None  # backing model class when this is Mod(T)
    # u_power's sheaves by exponent, built on first use
    powers: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def s_groupoid(self):
        return build_model_groupoid(self.s_mc)

    def morphism(self):
        return GroupoidMorphism(self.groupoid, self.s_groupoid, self.f0, self.f1)

    def carrier(self, x):
        """The indexed set underlying an object."""
        return self.s_mc.models[self.f0[x]]

    def check(self):
        return self.morphism().check()

    def fixing(self, a):
        """The arrows of the groupoid of sets that send each index of `a` to
        itself: the meet of the preservation sets <p->p>."""
        return frozenset(range(len(self.s_mc.isos))).intersection(*map(self.s_mc.preserving, a, a))


def mod_functor(theory, S, limit=DEFAULT_LIMIT):
    """The model groupoid of a theory with its forgetful map to the
    groupoid of sets."""
    morphism, report = mod_on_interpretation(initial_interpretation(theory), S, limit)
    bad = [r for r in report if not r["ok"]]
    if bad:
        raise InvariantError(f"forgetful morphism preimage identities fail: {bad[:2]}")
    mc = model_class(theory, S, limit)
    return GroupoidOverS(morphism.src, model_class(EQUALITY_THEORY, S), morphism.f0, morphism.f1, mc)


# ---------------------------------------------------------------------------
# powers of the generic object


def u_power(gos: GroupoidOverS, k) -> TupleSheaf:
    """The k-fold fiberwise power of the pullback of the generic object:
    the tuple sheaf of all k-tuples of blocks of each object's carrier,
    acted on by the underlying set bijections."""
    if k not in gos.powers:
        g = gos.groupoid
        carriers = [gos.carrier(x) for x in range(g.objects.size)]
        gos.powers[k] = tuple_sheaf(
            g, carriers, [gos.s_mc.isos[h] for h in gos.f1], k,
            lambda x: itertools.product(carriers[x].keys, repeat=k), gos.s_mc.S, gos.mc,
        )
    return gos.powers[k]


def pullback_sheaf(m: GroupoidMorphism, sheaf: EquivariantSheaf) -> EquivariantSheaf:
    """Pull an equivariant sheaf back along a groupoid morphism."""
    points = [(x, p) for x, y in enumerate(m.f0) for p in sheaf.over.get(y, ())]
    r = [x for x, _ in points]
    # the coarsest topology making both projections continuous
    maps = [(m.src.objects, [("b", r)]), (sheaf.space, [("f", [p for _, p in points])])]
    pulled = EquivariantSheaf(m.src, points, FinSpace(len(points), (), maps), r, ())
    # the action reads the pulled-back sheaf's own point index and fibers
    index, over = pulled.point_index, pulled.over
    pulled.rows = [
        tuple([index[(c, sheaf.apply(f, points[i][1]))] for i in over.get(x, ())])
        for x, c, f in zip(m.src.d, m.src.c, m.f1)
    ]
    return pulled


# ---------------------------------------------------------------------------
# the Form functor


@dataclass
class RelationCategory:
    """Stable-open relations on the powers of the generic object.

    levels[k] lists the stable opens of the k-th power (as frozensets of
    power point indices) for k up to 2*k_max; category objects live at
    k <= k_max and arrows are stable-open functional graphs at the sum of
    the endpoint levels.  index[k] maps each stable open of levels[k] to its
    position.  The empty groupoid is flagged inconsistent and carries the
    degenerate category instead.
    """

    gos: GroupoidOverS
    k_max: int
    inconsistent: bool
    powers: list = field(default_factory=list)
    levels: dict = field(default_factory=dict)
    index: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict)
    arrows: dict = field(default_factory=dict)

    def object_count(self, k):
        if self.inconsistent:
            return 1
        return len(self.objects[k])

    def position(self, k, V, what):
        """The position of V in levels[k]; every caller's V is a stable
        open by a theorem, so a miss is a checker bug."""
        i = self.index[k].get(V)
        if i is None:
            raise InvariantError(f"{what} is not a stable open at level {k}")
        return i


def form_functor(gos: GroupoidOverS, k_max) -> RelationCategory:
    """The relation category on the pullback of the generic object."""
    g = gos.groupoid
    if g.objects.size == 0:
        return RelationCategory(gos, k_max, True)
    rc = RelationCategory(gos, k_max, False)
    rc.powers = [u_power(gos, k) for k in range(2 * k_max + 1)]
    for k in range(2 * k_max + 1):
        rc.levels[k] = rc.powers[k].stable_opens()
        rc.index[k] = {V: i for i, V in enumerate(rc.levels[k])}
    for k in range(k_max + 1):
        rc.objects[k] = rc.levels[k]
    over = {k: [rc.powers[k].tuples_over(V) for V in rc.objects[k]] for k in rc.objects}
    for j in range(k_max + 1):
        for k in range(k_max + 1):
            pairs = []
            sheaf = rc.powers[j + k]
            graphs = [(graph, sheaf.tuples_over(graph)) for graph in rc.levels[j + k]]
            for si, src_fibers in enumerate(over[j]):
                for di, dst_fibers in enumerate(over[k]):
                    for graph, fam in graphs:
                        if _is_functional(fam, src_fibers, dst_fibers, j, k):
                            pairs.append((si, di, graph))
            rc.arrows[(j, k)] = pairs
    return rc


# ---------------------------------------------------------------------------
# the syntactic category


@dataclass
class TheoryCategory:
    """Semantic-equivalence classes of formulas-in-context with functional
    relations as arrows, at explicit bounds."""

    mc: ModelClass
    k_max: int
    depth: int
    objects: dict = field(default_factory=dict)  # k -> list of (fic, family)
    arrows: dict = field(default_factory=dict)  # (j,k) -> list of (si, di, fic, family)


def syntactic_category(mc: ModelClass, k_max, depth) -> TheoryCategory:
    """Objects and arrows of the syntactic category of mc's theory up to
    the bounds.

    Equivalence is semantic over the model class, which is provable
    equivalence relative to the semantic closure of the theory.
    """
    search = FormulaSearch(mc)
    tc = TheoryCategory(mc, k_max, depth)
    for k in range(k_max + 1):
        tc.objects[k] = search.classes(k, depth)
    for j in range(k_max + 1):
        for k in range(k_max + 1):
            out = []
            for si, (sf, sfam) in enumerate(tc.objects[j]):
                for di, (df, dfam) in enumerate(tc.objects[k]):
                    for f, fam in functional_families(search, j, k, depth, sfam, dfam):
                        out.append((si, di, f, fam))
            tc.arrows[(j, k)] = out
    return tc


def semantic_quotient(theory, S, limit=DEFAULT_LIMIT):
    """The semantic closure of a theory as an entailment oracle, with the
    identity-on-syntax interpretation into it."""
    mc = model_class(theory, S, limit)
    eta = identity_interpretation(theory)
    axioms_closed = all(mc.entails(ax) for ax in theory.axioms)
    return {"oracle": mc, "eta": eta, "axioms_in_closure": axioms_closed}


# ---------------------------------------------------------------------------
# counit


def counit(rc: RelationCategory, depth):
    """The functor from the syntactic category of T to rc = Form(Mod T)
    sending a formula class to its extension sheaf, with an isomorphism
    certificate at the bounds.

    Injectivity on classes holds by construction; surjectivity misses are
    reported as inconclusive at the depth bound.
    """
    k_max = rc.k_max
    tc = syntactic_category(rc.gos.mc, k_max, depth)
    if rc.inconsistent:
        counts = {k: (len(tc.objects[k]), 1) for k in range(k_max + 1)}
        ok = all(len(tc.objects[k]) == 1 for k in range(k_max + 1))
        return {
            "status": "verified" if ok else "failed",
            "object_counts": counts,
            "arrow_counts": {},
            "object_map": {},
            "inconsistent": True,
            "unmatched_objects": {},
            "unmatched_arrows": {},
        }
    object_map = {}
    unmatched_objects = {}
    object_counts = {}
    status = "verified"
    for k in range(k_max + 1):
        mapped = []
        for (f, fam) in tc.objects[k]:
            pts = rc.powers[k].where(fam.__getitem__)
            mapped.append(rc.position(k, pts, f"definable extension of {f}"))
        object_map[k] = mapped
        missed = sorted(set(range(len(rc.objects[k]))) - set(mapped))
        unmatched_objects[k] = missed
        object_counts[k] = (len(tc.objects[k]), len(rc.objects[k]))
        if len(set(mapped)) != len(mapped):
            status = "failed"  # injectivity cannot fail for distinct families
        if missed:
            status = "inconclusive"
    arrow_counts = {}
    unmatched_arrows = {}
    for j in range(k_max + 1):
        for k in range(k_max + 1):
            tc_arrows = set()
            for si, di, f, fam in tc.arrows[(j, k)]:
                pts = rc.powers[j + k].where(fam.__getitem__)
                tc_arrows.add((object_map[j][si], object_map[k][di], pts))
            rc_arrows = {(si, di, graph) for si, di, graph in rc.arrows[(j, k)]}
            arrow_counts[(j, k)] = (len(tc_arrows), len(rc_arrows))
            extra = tc_arrows - rc_arrows
            if extra:
                raise InvariantError("a definable functional relation is not a stable-open graph")
            missed = rc_arrows - tc_arrows
            unmatched_arrows[(j, k)] = sorted(
                (si, di, tuple(sorted(gr))) for si, di, gr in missed
            )
            if missed and status == "verified":
                status = "inconclusive"
    return {
        "status": status,
        "object_counts": object_counts,
        "arrow_counts": arrow_counts,
        "object_map": object_map,
        "unmatched_objects": unmatched_objects,
        "unmatched_arrows": unmatched_arrows,
        "inconsistent": False,
        "rc": rc,
        "tc": tc,
    }


# ---------------------------------------------------------------------------
# the theory view of a relation category


def theory_view(rc: RelationCategory):
    """Present a relation category as a finitely axiomatized theory.

    One relation symbol per stable open at each level up to 2*k_max; the
    axioms record the full lattice structure: tops, bottoms, inclusions,
    meets, joins, diagonals, projections and substitution instances.  The
    S-indexed models of this finite presentation agree with the category's
    models at the computed bounds.
    """
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
        # join-irreducible symbols first, so every other symbol has a
        # defining join over earlier ones and the model search derives it
        for i in order:
            rels.append((names[(k, i)], k))
    sig = Signature(tuple(rels), ())

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
        full = frozenset(range(len(rc.powers[k].points)))
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
        # pairwise lattice facts among the join-irreducibles; everything
        # else is pinned by its decomposition
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
    # diagonals, projections of the last coordinate and substitution
    # instances: each symbol is the category's own value of the formula
    names_inv = {name: key for key, name in names.items()}

    def value(k, phi, what):
        V = eval_in_category(rc, names_inv, phi, {f"x{m}": m for m in range(k)}, k)
        return rc.position(k, V, what)

    for k in sorted(rc.levels):
        for a in range(k):
            for b in range(a + 1, k):
                eq = Eq(Var(f"x{a}"), Var(f"x{b}"))
                i = value(k, eq, "diagonal")
                add(ctx(k), atom(k, i), eq)
                add(ctx(k), eq, atom(k, i))
    for k in sorted(rc.levels):
        if k + 1 not in rc.levels:
            continue
        for i in range(len(rc.levels[k + 1])):
            ex = Exists(f"x{k}", Rel(names[(k + 1, i)], tuple(Var(f"x{m}") for m in range(k + 1))))
            j = value(k, ex, "projection image")
            add(ctx(k), atom(k, j), ex)
            add(ctx(k), ex, atom(k, j))
    for k in sorted(rc.levels):
        for m in sorted(rc.levels):
            for sigma in itertools.product(range(m), repeat=k):
                for i in range(len(rc.levels[k])):
                    sub_atom = Rel(names[(k, i)], tuple(Var(f"x{s}") for s in sigma))
                    j = value(m, sub_atom, "substitution instance")
                    add(ctx(m), atom(m, j), sub_atom)
                    add(ctx(m), sub_atom, atom(m, j))
    return Theory(sig, tuple(axioms), "Form-theory"), names


# ---------------------------------------------------------------------------
# unit


def _symbol(names, k, i):
    """The atomic formula-in-context of the theory-view symbol of levels[k][i]."""
    xs = [f"x{m}" for m in range(k)]
    return fic(xs, Rel(names[(k, i)], tuple(map(Var, xs))))


def unit(rc: RelationCategory, limit=DEFAULT_LIMIT):
    """The comparison morphism from G = rc.gos into Mod(Form G), the model
    groupoid of the relation category's theory: objects go to their fiber
    models, arrows keep their underlying bijections."""
    gos = rc.gos
    theory, names = theory_view(rc)
    S = gos.s_mc.S
    target = mod_functor(theory, S, limit)
    mc_B = target.mc
    g = gos.groupoid
    # over[(k, i)][x]: the tuples of symbol (k, i) over object x
    over = {key: rc.powers[key[0]].tuples_over(rc.levels[key[0]][key[1]]) for key in names}
    eta0 = []
    for x in range(g.objects.size):
        A = gos.carrier(x)
        rels = {name: over[key][x] for key, name in names.items()}
        eta0.append(mc_B.find_model(IndexedStructure(A.domain, A.blocks, rels, {})))
    eta1 = []
    for a in range(g.arrows.size):
        iso = gos.s_mc.isos[gos.f1[a]]
        image = StructIso(
            mc_B.models[eta0[g.d[a]]], mc_B.models[eta0[g.c[a]]], iso.mapping
        )
        eta1.append(mc_B.find_iso(image))
    morphism = GroupoidMorphism(g, target.groupoid, tuple(eta0), tuple(eta1))
    over_S = all(
        target.f0[eta0[x]] == gos.f0[x] for x in range(g.objects.size)
    ) and all(target.f1[eta1[a]] == gos.f1[a] for a in range(g.arrows.size))
    # continuity identity: the preimage of a basic open equals the
    # projection of the relation intersected with the pulled-back section
    identity_report = []
    S_elems = list(S.elements())
    for (k, i), name in sorted(names.items()):
        if k > rc.k_max:
            continue
        sheaf = rc.powers[k]
        for params in itertools.product(S_elems, repeat=k):
            direct = frozenset(
                x
                for x in range(g.objects.size)
                if all(gos.carrier(x).has(p) for p in params)
                and tuple(gos.carrier(x).block_key(p) for p in params) in over[(k, i)][x]
            )
            section = sheaf.section_image(params)
            via_sheaf = frozenset(sheaf.r[p] for p in (rc.levels[k][i] & section))
            identity_report.append(
                {"symbol": name, "params": params, "ok": direct == via_sheaf}
            )
    return {
        "morphism": morphism,
        "rc": rc,
        "theory": theory,
        "names": names,
        "target": target,
        "over_S": over_S,
        "morphism_violations": morphism.check(),
        "preimage_identities": identity_report,
    }


# ---------------------------------------------------------------------------
# triangle identities


def _transpose(theory, un, mc, f0):
    """The interpretation of a theory into the theory view of un["rc"] that
    sends each symbol to the stable open of its extensions in model f0[x]
    of mc over each object x: the counit when mc is Mod(theory) itself,
    and Form(m) after the counit for a morphism m into mc."""
    rc, names = un["rc"], un["names"]

    def image(n, phi):
        k = len(phi)
        V = rc.powers[k].where(lambda x: mc.ext(f0[x], phi))
        return n, _symbol(names, k, rc.position(k, V, f"extension of {n}"))

    symbols = identity_interpretation(theory)
    return Interpretation(
        theory,
        un["theory"],
        tuple(image(*e) for e in symbols.rel_map),
        tuple(image(*e) for e in symbols.fun_map),
    )


def _check_levels(theory, rc: RelationCategory):
    """A relation symbol of arity a is a stable open at power level a, and a
    function symbol of arity a a graph at level a + 1; levels stop at
    2 * k_max, so a larger arity is out of the computed range."""
    for kind, symbols, extra in (("relation", theory.signature.rels, 0),
                                 ("function", theory.signature.funs, 1)):
        for n, a in symbols:
            if a + extra not in rc.levels:
                raise LimitExceeded(
                    f"{kind} {n}/{a} needs power level {a + extra}, but --kmax {rc.k_max} "
                    f"computes levels up to {2 * rc.k_max}"
                )


def check_triangle_identities(un, limit=DEFAULT_LIMIT):
    """Verify both triangle identities at G = Mod(T) as equalities of
    computed data, from the unit of G.

    Bottom: restriction along the counit interpretation after the unit is
    the identity on the model groupoid.  Top: pulling the counit image of
    every relation-category object and arrow back along the unit returns it
    unchanged.  Both hold vacuously when T is inconsistent: G is empty and
    Form(G) is the degenerate category.
    """
    rc, morphism = un["rc"], un["morphism"]
    gos = rc.gos
    if rc.inconsistent:
        return {"bottom": True, "top": True, "top_failures": [],
                "counit_interpretation": None, "preimage_report_ok": True}
    theory = gos.mc.theory
    _check_levels(theory, rc)
    eps = _transpose(theory, un, gos.mc, range(len(gos.mc.models)))
    mod_eps, report = mod_on_interpretation(eps, gos.s_mc.S, limit)
    composite = mod_eps.compose(morphism)
    ident = identity_morphism(gos.groupoid)
    bottom = composite.f0 == ident.f0 and composite.f1 == ident.f1
    # top triangle: objects and arrows of Form(G) return unchanged
    mc_B = un["target"].mc
    failures = []
    for k in sorted(rc.levels):
        for i, V in enumerate(rc.levels[k]):
            phi = _symbol(un["names"], k, i)
            if rc.powers[k].where(lambda x: mc_B.ext(morphism.f0[x], phi)) != V:
                failures.append((k, i))
    return {
        "bottom": bottom,
        "top": not failures,
        "top_failures": failures,
        "counit_interpretation": eps,
        "preimage_report_ok": all(r["ok"] for r in report),
    }


# ---------------------------------------------------------------------------
# the pullback lemma, naturality, and reconstruction


def check_pullback_square(gos: GroupoidOverS):
    """The pullback of the generic object along the forgetful map of
    gos = Mod(T) equals the definable sheaf of the trivial formula, as sets
    and as topologies, and agrees with the generic sheaf pulled back along
    the slice morphism."""
    mc = gos.mc
    power = u_power(gos, 1)
    direct = definable_sheaf(mc, fic(["x0"], TOP))
    same_points = power.points == direct.points
    same_topology = same_points and power.space.same_topology(direct.space)
    same_action = same_points and power.rows == direct.rows
    generic = definable_sheaf(gos.s_mc, fic(["x0"], TOP))
    pulled = pullback_sheaf(gos.morphism(), generic)
    translation = {}
    ok_bijection = len(pulled.points) == len(power.points)
    for i, (x, p) in enumerate(pulled.points):
        smodel, key = generic.points[p]
        q = translation[i] = power.point_index.get((x, key))
        if q is None or smodel != gos.f0[x]:
            ok_bijection = False
    pullback_matches = True
    if ok_bijection:
        for i in range(len(pulled.points)):
            img = {translation[j] for j in pulled.space.minimal_nbhd(i)}
            if img != set(power.space.minimal_nbhd(translation[i])):
                pullback_matches = False
        for a, i, j in pulled.triples():
            if power.apply(a, translation[i]) != translation[j]:
                pullback_matches = False
    return {
        "status": "pass"
        if (same_points and same_topology and same_action and ok_bijection and pullback_matches)
        else "fail",
        "same_points": same_points,
        "same_topology": same_topology,
        "same_action": same_action,
        "pullback_of_generic_matches": ok_bijection and pullback_matches,
    }


def check_counit_naturality(interp, S, k_max, depth, limit=DEFAULT_LIMIT):
    """eps after translation equals the pullback functor after eps, on
    every bounded formula class of the source theory."""
    gos_src = mod_functor(interp.source, S, limit)  # Mod(T)
    gos_dst = mod_functor(interp.target, S, limit)  # Mod(T')
    rc_src = form_functor(gos_src, k_max)
    rc_dst = form_functor(gos_dst, k_max)
    morphism, _ = mod_on_interpretation(interp, S)
    search = FormulaSearch(gos_src.mc)
    failures = []
    checked = 0
    for k in range(k_max + 1):
        for phi, fam in search.classes(k, depth):
            translated = fic(phi.context, interp.translate(phi.formula))
            fam_t = tuple(
                gos_dst.mc.ext(m, translated) for m in range(len(gos_dst.mc.models))
            )
            lhs = rc_dst.powers[k].where(fam_t.__getitem__)
            rhs = rc_dst.powers[k].where(lambda x: fam[morphism.f0[x]])
            checked += 1
            if lhs != rhs:
                failures.append(str(phi))
    return {"status": "pass" if not failures else "fail", "checked": checked, "failures": failures}


def form_interpretation(rc_src: RelationCategory, names_src, rc_dst: RelationCategory,
                        names_dst, morphism: GroupoidMorphism, theory_src, theory_dst):
    """Form of a groupoid morphism, as an interpretation between the two
    relation-category theories: each relation object pulls back."""
    rels = []
    for (k, i), name in sorted(names_src.items()):
        over = rc_src.powers[k].tuples_over(rc_src.levels[k][i])
        pulled = rc_dst.powers[k].where(lambda x: over[morphism.f0[x]])
        j = rc_dst.position(k, pulled, f"pullback of {name}")
        rels.append((name, _symbol(names_dst, k, j)))
    return Interpretation(theory_src, theory_dst, tuple(rels), ())


def check_unit_naturality(interp, S, k_max, limit=DEFAULT_LIMIT):
    """Both naturality squares of the unit at a morphism of the form
    Mod(F): objects and arrows."""
    gos_src = mod_functor(interp.source, S, limit)  # Mod(T), the codomain
    gos_dst = mod_functor(interp.target, S, limit)  # Mod(T'), the domain
    f, _ = mod_on_interpretation(interp, S)  # Mod(T') -> Mod(T)
    un_src = unit(form_functor(gos_src, k_max), limit)
    un_dst = unit(form_functor(gos_dst, k_max), limit)
    fi = form_interpretation(
        un_src["rc"], un_src["names"], un_dst["rc"], un_dst["names"],
        f, un_src["theory"], un_dst["theory"],
    )
    mod_form_f, _ = mod_on_interpretation(fi, S, limit)  # Mod(Form T') -> Mod(Form T)
    obj_ok = all(
        mod_form_f.f0[un_dst["morphism"].f0[x]] == un_src["morphism"].f0[f.f0[x]]
        for x in range(gos_dst.groupoid.objects.size)
    )
    arr_ok = all(
        mod_form_f.f1[un_dst["morphism"].f1[a]] == un_src["morphism"].f1[f.f1[a]]
        for a in range(gos_dst.groupoid.arrows.size)
    )
    return {"status": "pass" if (obj_ok and arr_ok) else "fail", "objects": obj_ok, "arrows": arr_ok}


def eval_in_category(rc: RelationCategory, names_inv, phi, positions, ctx_len):
    """Evaluate a relation-category formula inside the category: atoms are
    the stable opens themselves, connectives are lattice operations, and
    the existential is the projection image.  positions maps variable names
    to coordinates of the current context."""
    sheaf = rc.powers[ctx_len]
    if isinstance(phi, Bot):
        return frozenset()
    if isinstance(phi, Top):
        return frozenset(range(len(sheaf.points)))
    if isinstance(phi, Eq):
        coords = (positions[phi.left.name], positions[phi.right.name])
        return sheaf.where(lambda x: {(u, u) for u in sheaf.carriers[x].keys}, coords)
    if isinstance(phi, Rel):
        k, idx = names_inv[phi.name]
        over = rc.powers[k].tuples_over(rc.levels[k][idx])
        return sheaf.where(over.__getitem__, tuple(positions[a.name] for a in phi.args))
    if isinstance(phi, And):
        out = frozenset(range(len(sheaf.points)))
        for p in phi.parts:
            out &= eval_in_category(rc, names_inv, p, positions, ctx_len)
        return out
    if isinstance(phi, Or):
        out = frozenset()
        for p in phi.parts:
            out |= eval_in_category(rc, names_inv, p, positions, ctx_len)
        return out
    if isinstance(phi, Exists):
        if ctx_len + 1 not in rc.levels:
            raise LimitExceeded("existential exceeds the computed power levels")
        inner_pos = dict(positions)
        inner_pos[phi.var] = ctx_len
        inner = eval_in_category(rc, names_inv, phi.body, inner_pos, ctx_len + 1)
        upper = rc.powers[ctx_len + 1]
        return frozenset(
            sheaf.point_index[(x, t[:ctx_len])] for x, t in (upper.points[p] for p in inner)
        )
    raise SignatureError(f"not a formula: {phi!r}")


def check_reconstruction(un, depth):
    """The two reconstruction functors compose to identities at bounds, on
    the relation category and Mod(Form T) of the unit un: evaluating a
    symbol's atomic formula in the category returns its stable open, and
    re-presenting a bounded formula by the symbol of its categorical value
    is provably equivalent to it.  The degenerate category of an
    inconsistent theory has no symbols and no powers to evaluate in."""
    rc, names = un["rc"], un["names"]
    names_inv = {name: key for key, name in names.items()}
    mc_B = un["target"].mc
    # G(F(V)) = V for every object symbol
    gf_ok = True
    for k, i in names:
        phi = _symbol(names, k, i).formula
        val = eval_in_category(rc, names_inv, phi, {f"x{m}": m for m in range(k)}, k)
        if val != rc.levels[k][i]:
            gf_ok = False
    # F(G(phi)) ~ phi for bounded formula classes over the Form signature
    search = FormulaSearch(mc_B)
    fg_failures = []
    skipped = 0
    checked = 0
    for k in (() if rc.inconsistent else range(rc.k_max + 1)):
        for phi, fam in search.classes(k, depth):
            try:
                val = eval_in_category(
                    rc, names_inv, phi.formula, {f"x{m}": m for m in range(k)}, k
                )
            except LimitExceeded:
                skipped += 1
                continue
            idx = rc.position(k, val, f"value of {phi}")
            fam2 = mc_B.extension_family(_symbol(names, k, idx))
            checked += 1
            if fam != fam2:
                fg_failures.append(str(phi))
    return {
        "status": "pass" if (gf_ok and not fg_failures) else "fail",
        "object_round_trip": gf_ok,
        "formula_round_trip_checked": checked,
        "formula_round_trip_failures": fg_failures,
        "skipped_beyond_levels": skipped,
    }


# ---------------------------------------------------------------------------
# characterization of semantic groupoids


def check_strong_fullness(gos: GroupoidOverS):
    """Every bijection of sets into the image of an object lifts to an
    arrow with that object as codomain."""
    g = gos.groupoid
    sg = gos.s_groupoid
    witnesses = []
    for y in range(g.objects.size):
        for h in range(sg.arrows.size):
            if sg.c[h] != gos.f0[y]:
                continue
            if not any(
                g.c[a] == y and gos.f1[a] == h for a in range(g.arrows.size)
            ):
                witnesses.append((h, y))
    return len(witnesses) == 0, witnesses


def _hull_tables(g: TopGroupoid):
    """Per-arrow bitmask tables for closing arrow sets: `push[a]` holds the
    minimal neighbourhood of `a` and its inverse; `left[a]` pairs each `b`
    with `d(a) == c(b)` with the bit of `a∘b`, `right[a]` each `b` with
    `d(b) == c(a)` with the bit of `b∘a`; `near[a]` is the mask of all
    those `b`, and `step[a]` an empty memo for `_close`.

    The memo belongs to these tables, so it lives as long as they do: one
    `closed_hull` or `enumerate_stable_arrow_sets` call."""
    push = [m | 1 << g.i[a] for a, m in enumerate(g.arrows.masks)]
    left = [[] for _ in push]
    right = [[] for _ in push]
    near = [0] * len(push)
    for a, row in enumerate(g.composites):
        for b, ab in zip(g.into.get(g.d[a], ()), row):
            left[a].append((b, 1 << ab))
            right[b].append((a, 1 << ab))
            near[a] |= 1 << b
            near[b] |= 1 << a
    return push, left, right, near, [{} for _ in push]


def _close(tables, hull, todo):
    """Close the bitmask `hull`, whose arrows outside `todo` already have
    their pushes and their composites with one another in it.

    Each arrow of `todo`, and each arrow added, is taken once: it pushes
    its neighbourhood and inverse and composes with every member present
    then; a pair whose other member joins later is formed when that one is
    taken.

    What taking `a` adds is `push[a]` and the composites with the members
    that lie in `near[a]`, so it is fixed by `a` and `hull & near[a]`:
    `step[a]` memoizes it under that footprint, and the fiber loops run
    only for a footprint not seen before."""
    push, left, right, near, step = tables
    while todo:
        low = todo & -todo
        todo ^= low
        a = low.bit_length() - 1
        memo = step[a]
        key = hull & near[a]
        m = memo.get(key)
        if m is None:
            m = push[a]
            for b, ab in left[a]:
                if key >> b & 1:
                    m |= ab
            for b, ab in right[a]:
                if key >> b & 1:
                    m |= ab
            memo[key] = m
        m &= ~hull
        hull |= m
        todo |= m
    return hull


def closed_hull(g: TopGroupoid, arrows, closed=frozenset()):
    """The smallest open, inverse- and composition-closed superset of
    `arrows` and `closed`; the caller promises `closed` is already closed,
    so pairs inside it are never composed again."""
    base, extra = mask(closed), mask(arrows)
    return frozenset(bits(_close(_hull_tables(g), base | extra, extra & ~base)))


def enumerate_stable_arrow_sets(g: TopGroupoid, limit=10_000):
    """All open arrow sets closed under inverses and composition.

    Every such set N is the join of the closed hulls H_f of its arrows f,
    so closure_lattice over the hulls enumerates exactly the valid sets
    without scanning the full open lattice.  Only the join-irreducible
    hulls are passed: H_b lies in a hull h iff b is in h, so the hulls
    strictly below h are the H_b != h with b in h, and h is dropped when
    the closure of their union gives h back.  By induction on size every
    hull, and so every N, is a join of the kept ones; closure_lattice sorts
    its result by (size, sorted members), so the list is the same, element
    for element, and the limit fires on the same lattices.

    The join passed to it closes the union of two closed sets on
    bitmasks, composing only the arrows of one missing from the other and
    the arrows it adds; as it depends only on the union, it is memoized by
    that union for the duration of the call (most joins repeat an earlier
    union).  Each result is also entered under itself, since a closed set
    is its own closure; so equal results are one int, and a union that is
    already closed is never closed again.  One set of `_hull_tables`
    serves every join, so the per-arrow step memo of `_close` carries
    across joins and is freed with them when the call returns.
    """
    tables = _hull_tables(g)
    joins = {}

    def join(cur, gen):
        union = cur | gen
        nxt = joins.get(union)
        if nxt is None:
            nxt = _close(tables, union, gen & ~cur)
            nxt = joins[union] = joins.setdefault(nxt, nxt)
        return nxt

    hull_of = [_close(tables, 1 << a, 1 << a) for a in range(g.arrows.size)]
    gens = []
    for h in set(hull_of):
        below = 0
        for b in bits(h):
            if hull_of[b] != h:
                below |= hull_of[b]
        if _close(tables, below, below) != h:
            gens.append(h)
    try:
        return closure_lattice(gens, limit, join)
    except LimitExceeded as e:
        raise LimitExceeded(
            "more closed arrow sets than --nlimit", e.estimate, lower_bound=True
        ) from None


def check_sem_conditions(gos: GroupoidOverS, n_limit=10_000):
    """The groupoid-of-indexed-models conditions: strong fullness and the
    neighborhood condition for every open inverse/composition-closed arrow
    set.  Openness of the groupoid is reported alongside (it can fail at
    small index sets as a truncation artifact)."""
    g = gos.groupoid
    open_ok = g.is_open()
    full_ok, witnesses = check_strong_fullness(gos)
    S = gos.s_mc.S
    arrows_within = {}  # (x, a) -> arrows inside nbhd(x) preserving a; the same for every N

    def candidate(x, a):
        if (x, a) not in arrows_within:
            W = g.objects.minimal_nbhd(x)
            fixed = gos.fixing(a)
            arrows_within[(x, a)] = frozenset(
                f
                for f in range(g.arrows.size)
                if gos.f1[f] in fixed and g.d[f] in W and g.c[f] in W
            )
        return arrows_within[(x, a)]

    results = []
    for N in enumerate_stable_arrow_sets(g, n_limit):
        dN = frozenset(g.d[f] for f in N)
        per_x = []
        for x in sorted(dN):
            # any admissible W contains the minimal neighborhood, which is
            # the easiest choice for the containment below
            W = g.objects.minimal_nbhd(x)
            found = None
            if W <= dN:
                A = gos.carrier(x)
                for size in range(S.size + 1):
                    for a in itertools.permutations(sorted(A.domain), size):
                        if candidate(x, a) <= N:
                            found = {"x": x, "a": a, "W": W}
                            break
                    if found:
                        break
            per_x.append(found if found else {"x": x, "a": None, "W": None})
        results.append(
            {"N": N, "witnesses": per_x, "ok": all(w["a"] is not None for w in per_x)}
        )
    cond_ok = all(r["ok"] for r in results)
    return {
        "open": open_ok,
        "strongly_full": full_ok,
        "fullness_witnesses": witnesses,
        "condition_ii": cond_ok,
        "n_count": len(results),
        "per_N": results,
        # openness can fail at small index sets (truncation); the membership
        # verdict proper is the pair of intrinsic conditions
        "conditions": full_ok and cond_ok,
        "sem_strict": open_ok and full_ok and cond_ok,
    }


# ---------------------------------------------------------------------------
# the adjunction hom-bijection at bounds


def enumerate_morphisms_over_s(gos: GroupoidOverS, target: GroupoidOverS):
    """All groupoid morphisms over the groupoid of sets into a model
    groupoid.  The object map determines the arrow map (underlying
    bijections must agree), so the search is a product over objects with
    functoriality and continuity filters.  Intended for small groupoids."""
    g = gos.groupoid
    tg = target.groupoid
    tmc = target.mc
    object_candidates = []
    for x in range(g.objects.size):
        A = gos.carrier(x)
        hits = [
            i
            for i, M in enumerate(tmc.models)
            if M.domain == A.domain and M.blocks == A.blocks
        ]
        object_candidates.append(hits)
    out = []
    for f0 in itertools.product(*object_candidates):
        f1 = []
        ok = True
        for a in range(g.arrows.size):
            mapping = gos.s_mc.isos[gos.f1[a]].mapping
            image = StructIso(
                tmc.models[f0[g.d[a]]], tmc.models[f0[g.c[a]]], mapping
            )
            if not image.preserves_structure():
                ok = False
                break
            f1.append(tmc.find_iso(image))
        if not ok:
            continue
        morphism = GroupoidMorphism(g, tg, tuple(f0), tuple(f1))
        if morphism.check():
            continue
        out.append(morphism)
    return out


def enumerate_interpretations(
    theory, form_theory, rc: RelationCategory, names, S, limit=DEFAULT_LIMIT
):
    """All interpretations of a theory into a relation-category theory with
    atomic stable-open images, validated semantically."""
    _check_levels(theory, rc)
    rel_options = [[(n, a, i) for i in range(len(rc.levels[a]))] for n, a in theory.signature.rels]
    fun_options = [
        [(n, a, i) for i in range(len(rc.levels[a + 1]))] for n, a in theory.signature.funs
    ]
    out = []
    for rel_pick in itertools.product(*rel_options):
        for fun_pick in itertools.product(*fun_options):
            rels = tuple((n, _symbol(names, a, i)) for n, a, i in rel_pick)
            funs = tuple((n, _symbol(names, a + 1, i)) for n, a, i in fun_pick)
            interp = Interpretation(theory, form_theory, rels, funs)
            if not check_interpretation(interp, S, limit):
                out.append(interp)
    return out


def check_hom_bijection(gos: GroupoidOverS, theory, k_max, limit=DEFAULT_LIMIT):
    """Morphisms from the groupoid into Mod(theory) over the groupoid of
    sets correspond bijectively to interpretations of the theory into the
    groupoid's relation-category theory, via the unit and counit
    transpositions; verified by full enumeration of both sides."""
    S = gos.s_mc.S
    target = mod_functor(theory, S, limit)
    un = unit(form_functor(gos, k_max), limit)
    morphisms = enumerate_morphisms_over_s(gos, target)
    interps = enumerate_interpretations(theory, un["theory"], un["rc"], un["names"], S, limit)

    def transpose_morphism(m):
        """Form(m) after the counit: each symbol goes to its pullback."""
        return _transpose(theory, un, target.mc, m.f0)

    def transpose_interpretation(F):
        mod_F, _ = mod_on_interpretation(F, S, limit)  # Mod(T_B) -> Mod(theory)
        return mod_F.compose(un["morphism"])

    key_m = lambda m: (m.f0, m.f1)
    key_i = lambda F: (F.rel_map, F.fun_map)
    round_one = all(
        key_m(transpose_interpretation(transpose_morphism(m))) == key_m(m)
        for m in morphisms
    )
    round_two = all(
        key_i(transpose_morphism(transpose_interpretation(F))) == key_i(F)
        for F in interps
    )
    image = {key_i(transpose_morphism(m)) for m in morphisms}
    onto = image == {key_i(F) for F in interps}
    return {
        "status": "pass" if (round_one and round_two and onto) else "fail",
        "morphisms": len(morphisms),
        "interpretations": len(interps),
        "round_trips": (round_one, round_two),
        "bijective": onto,
    }


# ---------------------------------------------------------------------------
# coherent conditions


def coherent_check(gos: GroupoidOverS, k_max):
    """The two coherent-frame conditions.

    (i) degenerates in a finite frame: every element is compact because any
    cover by the generating stable opens (the least stable opens around the
    points of U) is already finite; the frame is listed, and each element is
    by construction the join of the generators below it.
    (ii) computes the projection pullback of every element through the
    arrow formula and compares with the direct fiberwise pullback.
    """
    g = gos.groupoid
    S = gos.s_mc.S
    report = {"i": [], "ii": []}
    frames = {}
    for k in range(k_max + 1):
        a = tuple(range(k))
        if S.size < k:
            raise SignatureError("index set too small for the requested power")
        U = frozenset(
            x for x in range(g.objects.size) if all(gos.carrier(x).has(p) for p in a)
        )
        fixed = gos.fixing(a)
        N = frozenset(f for f in range(g.arrows.size) if gos.f1[f] in fixed)
        gens = stable_generators(g, U, N)
        lattice = closure_lattice(gens, DEFAULT_LATTICE_LIMIT)
        report["i"].append(
            {
                "k": k,
                "frame_size": len(lattice),
                # every member of the lattice is a union of generators, so
                # the generators below it join to it: each is compact
                "all_compact": True,
                "note": "finite frame: every element is a finite join of basics",
            }
        )
        frames[k] = (U, N, lattice)
    for k in range(k_max):
        a = tuple(range(k + 1))
        b = tuple(range(k))
        U_b, N_b, lattice_b = frames[k]
        U_a, N_a, lattice_a = frames[k + 1]
        # the set arrows that fix b and whose codomain also holds k
        holds_k, s_cod = gos.s_mc.equal(k, k), gos.s_mc.iso_cod
        T = frozenset(j for j in gos.fixing(b) if s_cod[j] in holds_k)
        fT = frozenset(f for f in range(g.arrows.size) if gos.f1[f] in T)
        power_k = u_power(gos, k)
        # the point of the section at b over each object of U_b, which holds U_a
        at = {
            x: power_k.point_index[(x, tuple(gos.carrier(x).block_key(p) for p in b))] for x in U_b
        }
        for V in lattice_b:
            via_arrows = frozenset(
                x
                for x in U_a
                if any(g.c[h] == x and g.d[h] in V for h in fT)
            )
            out_of_V = (h for h in range(g.arrows.size) if g.d[h] in V)
            tilde = frozenset(power_k.apply(h, at[g.d[h]]) for h in out_of_V)
            direct = frozenset(x for x in U_a if at[x] in tilde)
            report["ii"].append(
                {
                    "k": k,
                    "V": sorted(V),
                    "match": via_arrows == direct,
                    "in_frame": via_arrows in lattice_a,
                }
            )
    report["ok"] = all(e["match"] and e["in_frame"] for e in report["ii"])
    return report
