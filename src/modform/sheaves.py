"""Equivariant sheaves over finite groupoids.

An equivariant sheaf is a finite etale space over the object space with a
continuous arrow action.  Definable sheaves carry the family of extensions
of a formula across all models, acted on by application of isomorphisms.
Site objects quotient an arrow set by a Moerdijk-style relation; sections
lift to morphisms out of site objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantError, SignatureError, SiteError
from .groupoid import (
    TopGroupoid,
    build_model_groupoid,
    composition_failures,
    continuity_failures,
    fibered,
)
from .logic import Eq, Exists, Var, conj, fic, substitute
from .models import ModelClass, fibers, star_headroom
from .topology import (
    DEFAULT_LATTICE_LIMIT,
    BasicOpenI,
    BasicOpenM,
    FinSpace,
    basic_open_arrows,
    basic_open_points,
    bits,
    closure_lattice,
    mask,
    reach,
    symmetric_varray,
)


class EquivariantSheaf:
    """An etale space over the objects of a groupoid with an arrow action.

    points are arbitrary payloads; space is their topology; r maps point
    index to object index, over[x] lists the points over x, ascending, and
    pos[p] is p's place in its fiber.  The action is held as rows, in the
    layout of the base's composition: rows[a] is the tuple of a·p for p in
    over[d(a)], so a·p is rows[a][pos[p]] (`apply`).  The base's composites
    are this table for its own arrows acted on by composition, with over =
    into and pos = place.  The rows are held as given, not copied.
    """

    def __init__(self, base: TopGroupoid, points, space: FinSpace, r, rows, mc=None):
        self.base = base
        self.points = list(points)
        self.space = space
        self.r = tuple(r)
        self.rows = rows
        self.over, self.pos = fibered(self.r)
        self.point_index = {p: i for i, p in enumerate(self.points)}
        self.mc = mc

    def __len__(self):
        return len(self.points)

    def apply(self, arrow, pidx):
        if self.r[pidx] != self.base.d[arrow]:
            raise SignatureError("point does not sit over the arrow's domain")
        return self.rows[arrow][self.pos[pidx]]

    def triples(self):
        """(a, p, a·p) for every arrow a and point p over d(a), ascending."""
        d, over = self.base.d, self.over
        return itertools.chain.from_iterable(
            zip(itertools.repeat(a), over.get(d[a], ()), row)
            for a, row in enumerate(self.rows)
            if row
        )

    # -- invariants ----------------------------------------------------------

    def check_invariants(self):
        """Every failed sheaf law, as messages in a fixed order.

        A row not as long as the fiber over its arrow's domain is reported
        alone.  An entry outside its codomain fiber is reported, and the
        laws that would read an undefined term through it are skipped.
        Messages come in the order of a scan of every arrow, pair and point."""
        bad = []
        g, r, rows, over, pos = self.base, self.r, self.rows, self.over, self.pos
        if not self.space.continuous(r, g.objects):
            bad.append("projection not continuous")
        for p in range(len(self.points)):
            u = self.space.minimal_nbhd(p)
            img = [r[q] for q in u]
            if len(set(img)) != len(img):
                bad.append(f"projection not injective near point {p}")
            if not g.objects.is_open(frozenset(img)):
                bad.append(f"projection image of a minimal neighborhood not open at {p}")
        if len(rows) != g.arrows.size or any(
            len(row) != len(over.get(x, ())) for x, row in zip(g.d, rows)
        ):
            bad.append("action domain is not the fibered product")
            return bad
        for a, row in enumerate(rows):
            for p, q in zip(over.get(g.d[a], ()), row):
                if r[q] != g.c[a]:
                    bad.append(f"action of {a} leaves the codomain fiber at {p}")
        for p, x in enumerate(r):
            u = g.e[x]
            if g.d[u] == x and rows[u][pos[p]] != p:
                bad.append(f"unit axiom fails at point {p}")
        for h, f, p in composition_failures(g, rows, r, over, pos):
            bad.append(f"composition axiom fails at ({h},{f},{p})")
        for a, p in continuity_failures(g, rows, r, pos, self.space.minimal):
            bad.append(f"action not continuous at ({a},{p})")
        return bad

    # -- stability -----------------------------------------------------------

    def stabilize(self, subset):
        """Orbit closure under the action; the least stable superset.  Each
        point is moved by the arrows of its domain fiber."""
        out = set(subset)
        frontier = list(out)
        rows, pos, out_of = self.rows, self.pos, self.base.out_of
        while frontier:
            p = frontier.pop()
            k = pos[p]
            for a in out_of.get(self.r[p], ()):
                q = rows[a][k]
                if q not in out:
                    out.add(q)
                    frontier.append(q)
        return frozenset(out)

    def least_stable_opens(self):
        """The least stable open set around each point, as a set of
        bitmasks: what a point reaches through minimal neighbourhoods and
        the action."""
        push, rows, out_of = list(self.space.masks), self.rows, self.base.out_of
        for x, ps in self.over.items():
            for a in out_of.get(x, ()):
                for p, q in zip(ps, rows[a]):
                    push[p] |= 1 << q
        return {reach(push, p) for p in range(len(self.points))}

    def stable_opens(self, limit=DEFAULT_LATTICE_LIMIT):
        """All stable open subsets: the joins of the least ones."""
        return closure_lattice(self.least_stable_opens(), limit)


@dataclass
class SheafMorphism:
    """A fiber-preserving, equivariant, continuous map of total spaces."""

    src: EquivariantSheaf
    dst: EquivariantSheaf
    point_map: tuple

    def check(self):
        """Every failed morphism law, as messages; equivariance is read only
        at the points mapped into their own fiber."""
        src, dst, pm = self.src, self.dst, self.point_map
        kept = [dst.r[pm[p]] == x for p, x in enumerate(src.r)]
        bad = [f"not fiber-preserving at {p}" for p, ok in enumerate(kept) if not ok]
        pos, over, d = dst.pos, src.over, src.base.d
        for a, row in enumerate(src.rows):
            if row:
                dst_row = dst.rows[a]
                for p, q in zip(over[d[a]], row):
                    if kept[p] and dst_row[pos[pm[p]]] != pm[q]:
                        bad.append(f"not equivariant at ({a},{p})")
        if not self.src.space.continuous(self.point_map, self.dst.space):
            bad.append("not continuous")
        return bad

    def is_bijective(self):
        return len(set(self.point_map)) == len(self.point_map) == len(self.dst.points)

    def is_isomorphism(self):
        if not self.is_bijective() or self.check():
            return False
        inv = [0] * len(self.dst.points)
        for p, q in enumerate(self.point_map):
            inv[q] = p
        return self.dst.space.continuous(tuple(inv), self.src.space)

    def image(self):
        return frozenset(self.point_map)


# ---------------------------------------------------------------------------
# sheaves of tuples: powers of the generic object and definable sheaves


class TupleSheaf(EquivariantSheaf):
    """A sheaf of block tuples: its points are (x, t) with t a tuple of block
    keys of carriers[x], the indexed set over object x; the points of each
    object are contiguous and sorted.  tuple_sheaf gives it its action and
    topology."""

    def __init__(self, base, carriers, points, mc=None):
        super().__init__(base, points, None, (x for x, _ in points), (), mc=mc)
        self.carriers = carriers

    def section_image(self, params):
        """The image of the section at an index tuple: over each object
        whose carrier has the parameters, the point of their blocks."""
        out = set()
        for x, A in enumerate(self.carriers):
            if all(A.has(p) for p in params):
                n = self.point_index.get((x, tuple(A.block_key(p) for p in params)))
                if n is not None:
                    out.add(n)
        return frozenset(out)

    def where(self, F, coords=None):
        """The points (x, t) whose tuple lies in F(x), or, given coords,
        whose entries at those coordinates do; F is called once per object."""
        points = self.points
        out = []
        for x, ns in self.over.items():
            want = F(x)
            if coords is None:
                out += [n for n in ns if points[n][1] in want]
            else:
                out += [n for n in ns if tuple([points[n][1][c] for c in coords]) in want]
        return frozenset(out)

    def tuples_over(self, V):
        """The tuples of the points of V over each object, as a list indexed
        by object."""
        out = [set() for _ in range(self.base.objects.size)]
        for n in V:
            x, t = self.points[n]
            out[x].add(t)
        return [frozenset(ts) for ts in out]


def tuple_sheaf(base, carriers, isos, k, tuples, S, mc=None, cls=TupleSheaf, **fields):
    """The sheaf of k-tuples tuples(x) over each object x of base.

    Topology: coarsest with continuous projection and open section images,
    one section image s[...] per k-tuple of S; its subbasis lists the
    projection preimages (p1...) of base's object subbasis first.  Arrow
    a acts by isos[a].apply_tuple.  cls (TupleSheaf or a subclass taking the
    keyword fields) is the class built.
    """
    points = [(x, t) for x in range(base.objects.size) for t in sorted(tuples(x))]
    sheaf = cls(base, carriers, points, mc, **fields)
    # the action and the topology read the sheaf's own point index, fibers
    # and section images, so they are filled in once it exists
    over, index = sheaf.over, sheaf.point_index
    sheaf.rows = [
        tuple([index[(c, isos[a].apply_tuple(points[n][1]))] for n in over.get(x, ())])
        for a, (x, c) in enumerate(zip(base.d, base.c))
    ]
    sections = [
        (f"s[{','.join(map(str, params)) or '*'}]", sheaf.section_image(params))
        for params in itertools.product(S.elements(), repeat=k)
    ]
    sheaf.space = FinSpace(len(points), sections, [(base.objects, [("p1", sheaf.r)])])
    return sheaf


class DefinableSheaf(TupleSheaf):
    """The extension family of a formula-in-context with the application
    action; points are (model index, tuple of block keys)."""

    def __init__(self, base, carriers, points, mc, formula):
        super().__init__(base, carriers, points, mc)
        self.formula = formula

    def basic_open(self, psi, params):
        """The basic open <[x,y|psi], b>: points whose model satisfies psi
        at (their coordinates, the blocks of the parameters).  psi is a
        formula-in-context of length len(self.formula) + len(params)."""
        if len(psi) != len(self.formula) + len(params):
            raise SignatureError("psi context must extend the sheaf context by the parameters")
        out = set()
        for idx, (i, t) in enumerate(self.points):
            M = self.mc.models[i]
            if not all(M.has(p) for p in params):
                continue
            b = tuple(M.block_key(p) for p in params)
            if (t + b) in self.mc.ext(i, psi):
                out.add(idx)
        return frozenset(out)


def definable_sheaf(mc: ModelClass, f) -> DefinableSheaf:
    """The definable sheaf of a formula-in-context: the tuple sheaf of its
    extensions over the model groupoid.  Built once per formula and kept in
    the class's sheaf table."""
    hit = mc._sheaves.get(f)
    if hit is None:
        hit = mc._sheaves[f] = tuple_sheaf(
            build_model_groupoid(mc), mc.models, mc.isos, len(f),
            lambda i: mc.ext(i, f), mc.S, mc, DefinableSheaf, formula=f,
        )
    return hit


def conjunction_with_exists(f, psi_context, psi):
    """The formula-in-context [x | phi and exists y. psi] from [x|phi] and
    psi over the joint context (x, y)."""
    k = len(f.context)
    body = psi
    for v in reversed(psi_context):
        body = Exists(v, body)
    return fic(f.context, conj([f.formula, body]))


def projection_image_identity(mc, sheaf: DefinableSheaf, psi, params):
    """Both sides of the projection identity for a basic open of a
    definable sheaf: the pointwise image of the basic open under the
    projection, and the basic open of the existentially closed formula.
    Returns (image, definable, equal)."""
    basic = sheaf.basic_open(psi, params)
    image = frozenset(sheaf.r[p] for p in basic)
    k = len(sheaf.formula)
    m = len(params)
    # [y | exists x. phi(x) and psi(x,y)] with the sheaf context projected out
    body = conj([sheaf.formula.formula, psi.formula])
    inner = substitute(
        body,
        {f"x{i}": Var(f"u{i}") for i in range(k)}
        | {f"x{k + j}": Var(f"y{j}") for j in range(m)},
    )
    for i in reversed(range(k)):
        inner = Exists(f"u{i}", inner)
    closed = fic([f"y{j}" for j in range(m)], inner)
    definable = basic_open_points(mc, BasicOpenM(closed, params))
    return image, definable, image == definable


def definable_morphism(mc, src: DefinableSheaf, dst: DefinableSheaf, graph):
    """The sheaf morphism of a functional relation between two definable
    sheaves.

    graph is a formula-in-context over the joined contexts whose extension
    is fiberwise a total single-valued relation from the source extension
    to the target extension; the induced point map is checked to be
    continuous and equivariant.
    """
    j, k = len(src.formula), len(dst.formula)
    if len(graph) != j + k:
        raise SignatureError("graph context must join the two sheaf contexts")
    point_map = []
    for i, (m, t) in enumerate(src.points):
        images = [w[j:] for w in mc.ext(m, graph) if w[:j] == t]
        if len(images) != 1:
            raise SignatureError(f"graph not functional at point {i}")
        point_map.append(dst.point_index[(m, images[0])])
    morphism = SheafMorphism(src, dst, tuple(point_map))
    bad = morphism.check()
    if bad:
        raise SignatureError(f"definable morphism fails checks: {bad[:3]}")
    return morphism


def definable_morphism_preimage_identity(mc, src, dst, graph, morphism, xi, params):
    """Both sides of the preimage identity for a basic open of the target:
    the pointwise preimage under the morphism, and the basic open of the
    graph composed with the condition.  Returns (preimage, definable, equal)."""
    j, k = len(src.formula), len(dst.formula)
    m = len(params)
    target_open = dst.basic_open(xi, params)
    preimage = frozenset(
        p for p in range(len(src.points)) if morphism.point_map[p] in target_open
    )
    # [x, z | exists y. graph(x, y) and xi(y, z)]
    names = (
        {f"x{i}": Var(f"x{i}") for i in range(j)}
        | {f"x{j + i}": Var(f"v{i}") for i in range(k)}
    )
    graph_part = substitute(graph.formula, names)
    xi_names = {f"x{i}": Var(f"v{i}") for i in range(k)} | {
        f"x{k + i}": Var(f"z{i}") for i in range(m)
    }
    xi_part = substitute(xi.formula, xi_names)
    body = conj([graph_part, xi_part])
    for i in reversed(range(k)):
        body = Exists(f"v{i}", body)
    joint = fic([f"x{i}" for i in range(j)] + [f"z{i}" for i in range(m)], body)
    definable = src.basic_open(joint, params)
    return preimage, definable, preimage == definable


# ---------------------------------------------------------------------------
# Moerdijk site objects


class MoerdijkSiteObject:
    """The pair (U, N) with its induced sheaf of arrow classes.

    classes partition the arrows with domain in U = d(N); two arrows are
    identified when they share a codomain and differ by an N-arrow, so the
    class of h is its coset {h∘m : m in N, c(m) = d(h)}.  Classes are
    ordered by their least arrows, reps[ci] is the least arrow of class ci,
    and class_of maps each arrow to its class.
    """

    def __init__(self, mc, groupoid, N, U, classes, class_of, reps, sheaf, sheaf_violations=()):
        self.mc = mc
        self.groupoid = groupoid
        self.N = N
        self.U = U
        self.classes = classes
        self.class_of = class_of
        self.reps = reps
        self.sheaf = sheaf
        # etale-ness of the quotient is a theorem for open groupoids; at
        # small index sets the groupoid may fail to be open and these record
        # the shortfall instead of blocking the construction
        self.sheaf_violations = tuple(sheaf_violations)
        # domain model -> density_certificate's search for the elements over
        # it, which depends only on this site and that model
        self.covers = {}


def arrow_set_closed(g: TopGroupoid, N):
    """Whether an arrow set is closed under inverses and composition."""
    N = frozenset(N)
    for f in N:
        if g.i[f] not in N:
            return False
    into, rows, place = fibers(g.c, N), g.composites, g.place
    for a in N:
        for b in into.get(g.d[a], ()):
            if rows[a][place[b]] not in N:
                return False
    return True


def moerdijk_classes(g: TopGroupoid, N):
    """The raw quotient data of d^{-1}(U) by the N-relation (no topology):
    (U, classes, class_of, reps).

    The arrows over U = d(N) are walked in ascending order; each arrow h not
    yet classed starts the class of its coset {h∘m : m in N, c(m) = d(h)},
    so each class comes out keyed by its least arrow h = reps[ci].  For N
    closed under inverses and composition the cosets are the classes of the
    relation "c(f) = c(h) and h^{-1}∘f in N"; every same-codomain pair of
    every class is then checked against N, so a relation that is not an
    equivalence raises SiteError."""
    N = frozenset(N)
    U = frozenset(g.d[f] for f in N)
    into, rows, place = fibers(g.c, N), g.composites, g.place
    classes, class_of, reps = [], {}, []
    for h in range(g.arrows.size):
        if h in class_of or g.d[h] not in U:
            continue
        ci = class_of[h] = len(classes)
        cl = {h}
        row = rows[h]
        for m in into.get(g.d[h], ()):
            f = row[place[m]]
            if g.c[f] != g.c[h]:
                raise SiteError("codomain not constant on a class")
            if class_of.setdefault(f, ci) != ci:
                raise SiteError("the N-relation is not transitive on a class")
            cl.add(f)
        classes.append(frozenset(cl))
        reps.append(h)
    # the relation must be an equivalence: every pair of a class (they share
    # a codomain) differs by an N-arrow
    for cl in classes:
        for f in cl:
            pf = place[f]
            for h in cl:
                if rows[g.i[h]][pf] not in N:
                    raise SiteError("the N-relation is not transitive on a class")
    return U, classes, class_of, reps


def moerdijk_sheaf(mc: ModelClass, N) -> MoerdijkSiteObject:
    """Build the site object for an open, inverse- and composition-closed
    arrow set; verifies all equivariant-sheaf invariants."""
    g = build_model_groupoid(mc)
    N = frozenset(N)
    if not g.arrows.is_open(N):
        raise SiteError("arrow set is not open")
    if not arrow_set_closed(g, N):
        raise SiteError("arrow set is not closed under inverses and composition")
    U, classes, class_of, reps = moerdijk_classes(g, N)
    if frozenset(g.c[f] for f in N) != U:
        raise SiteError("d(N) and c(N) disagree")
    # quotient topology: the least set of classes around each class that
    # holds every class its arrows' neighbourhoods meet within d^{-1}(U)
    push = []
    for cl in classes:
        m = 0
        for f in cl:
            for h in g.arrows.minimal_nbhd(f):
                if h in class_of:
                    m |= 1 << class_of[h]
        push.append(m)
    minimal = [frozenset(bits(reach(push, ci))) for ci in range(len(classes))]
    space = FinSpace(len(classes), [(f"q{ci}", m) for ci, m in enumerate(minimal)])
    r = tuple(g.c[f] for f in reps)
    # an arrow acts on the classes over its domain through their least
    # arrows, read at their places in its row of composites
    over = fibers(r, range(len(classes)))
    cols = {x: [g.place[reps[ci]] for ci in cis] for x, cis in over.items()}
    rows = [tuple([class_of[row[k]] for k in cols.get(x, ())]) for x, row in zip(g.d, g.composites)]
    points = [("class", ci) for ci in range(len(classes))]
    sheaf = EquivariantSheaf(g, points, space, r, rows, mc=mc)
    bad = sheaf.check_invariants()
    action_bad = [v for v in bad if "action" in v or "fiber" in v or "axiom" in v]
    if action_bad:
        raise SiteError(f"site sheaf invariants fail: {action_bad[:3]}")
    return MoerdijkSiteObject(mc, g, N, U, classes, class_of, reps, sheaf, bad)


def stable_generators(g: TopGroupoid, U, N):
    """The least open subset of U closed under the arrow set N around each
    point of U, as bitmasks."""
    push = list(g.objects.masks)
    for f in N:
        push[g.d[f]] |= 1 << g.c[f]
    gens = [reach(push, x) for x in U]
    outside = ~mask(U)
    if any(gen & outside for gen in gens):
        raise SignatureError("stable hull escapes U; N does not restrict to U")
    return gens


def stable_open_lattice(g: TopGroupoid, U, N, limit=DEFAULT_LATTICE_LIMIT):
    """Open subsets of U closed under the arrow set N: the joins of the
    stable generators."""
    return closure_lattice(stable_generators(g, U, N), limit)


def stable_opens_of_site(site: MoerdijkSiteObject, limit=DEFAULT_LATTICE_LIMIT):
    """The lattice of open subsets of U closed under N, together with the
    subsheaf constructor V -> classes with domain in V, and the bijection
    check against the stable opens of the induced sheaf."""
    g = site.groupoid
    lattice = stable_open_lattice(g, site.U, site.N, limit)
    dom = [g.d[f] for f in site.reps]

    def subsheaf(V):
        return frozenset(ci for ci, x in enumerate(dom) if x in V)

    sheaf_lattice = site.sheaf.stable_opens(limit)
    image = sorted({subsheaf(V) for V in lattice}, key=lambda s: (len(s), sorted(s)))
    return {
        "lattice": lattice,
        "subsheaf": subsheaf,
        "sheaf_lattice": sheaf_lattice,
        "isomorphic": image == sheaf_lattice and len(lattice) == len(sheaf_lattice),
    }


# ---------------------------------------------------------------------------
# sections and their lifts


def lift_section(sheaf: EquivariantSheaf, U, section):
    """Lift a continuous section over an open set to a site-object morphism.

    section maps object indices in U to point indices.  Returns the arrow
    set N_s, the site object, and the morphism s-hat with s = s-hat after
    the unit section.
    """
    g = sheaf.base
    U = frozenset(U)
    if not g.objects.is_open(U):
        raise SignatureError("section domain is not open")
    for x in U:
        if sheaf.r[section[x]] != x:
            raise SignatureError("not a section of the projection")
        image = {section[y] for y in g.objects.minimal_nbhd(x)}
        if not image <= sheaf.space.minimal_nbhd(section[x]):
            raise SignatureError("section not continuous")
    N_s = frozenset(
        f
        for f in range(g.arrows.size)
        if g.d[f] in U and g.c[f] in U and sheaf.apply(f, section[g.d[f]]) == section[g.c[f]]
    )
    site = moerdijk_sheaf(sheaf_mc(sheaf), N_s)
    point_map = []
    for cl in site.classes:
        images = {sheaf.apply(f, section[g.d[f]]) for f in cl}
        if len(images) != 1:
            raise SiteError("lift not well-defined on a class")
        point_map.append(images.pop())
    hat = SheafMorphism(site.sheaf, sheaf, tuple(point_map))
    bad = hat.check()
    if bad:
        raise SiteError(f"lifted morphism fails checks: {bad[:3]}")
    for x in U:
        if point_map[site.class_of[g.e[x]]] != section[x]:
            raise SiteError("lift does not restrict to the section on units")
    return N_s, site, hat


def sheaf_mc(sheaf):
    mc = getattr(sheaf, "mc", None)
    if mc is None:
        raise SignatureError("sheaf does not carry a model class")
    return mc


# ---------------------------------------------------------------------------
# symmetric rewriting and density


def rewrite_symmetric(mc: ModelClass, v: BasicOpenI, model_idx):
    """Shrink a basic open arrow neighborhood of an identity to symmetric
    shape: equal domain and codomain conditions over one distinct parameter
    tuple, preserved pointwise.

    The moves: merge the domain and codomain conditions, promote every
    mentioned index to the preservation condition, and replace a
    preservation pair b -> c with distinct entries by b -> b plus the
    equation b = c on both sides.
    """
    g = build_model_groupoid(mc)
    ident = mc.identity_of[model_idx]
    varr = basic_open_arrows(mc, v)
    if ident not in varr:
        raise SignatureError("the identity of the model is not in the given basic open")
    M = mc.models[model_idx]
    mentioned = []
    for p in v.dom.params + v.cod.params:
        if p not in mentioned:
            mentioned.append(p)
    for a, b in v.pairs:
        for p in (a, b):
            if p not in mentioned:
                mentioned.append(p)
    m = tuple(mentioned)
    pos = {p: i for i, p in enumerate(m)}
    ctx = [f"x{i}" for i in range(len(m))]
    dom_sub = {w: Var(ctx[pos[v.dom.params[i]]]) for i, w in enumerate(v.dom.formula.context)}
    cod_sub = {w: Var(ctx[pos[v.cod.params[i]]]) for i, w in enumerate(v.cod.formula.context)}
    parts = [
        substitute(v.dom.formula.formula, dom_sub),
        substitute(v.cod.formula.formula, cod_sub),
    ]
    for a, b in v.pairs:
        if a != b:
            parts.append(Eq(Var(ctx[pos[a]]), Var(ctx[pos[b]])))
    chi = fic(ctx, conj(parts))
    cond = BasicOpenM(chi, m)
    result = BasicOpenI(cond, tuple((p, p) for p in m), cond)
    got = basic_open_arrows(mc, result)
    if ident not in got:
        raise InvariantError("rewriting lost the identity arrow")
    if not got <= varr:
        raise InvariantError("rewriting left the original neighborhood")
    return result


def lift_shortfall(mc: ModelClass, hat: SheafMorphism, params):
    """Diagnose a section lift at params that is not onto its sheaf: the
    sorted points it misses, and whether index headroom explains them all,
    that is, no missing point (at the keys of its blocks, each the least
    element of its block) has star headroom towards params."""
    missing = sorted(set(range(len(hat.dst.points))) - set(hat.point_map))
    for p in missing:
        x, t = hat.dst.points[p]
        if star_headroom(mc.models[x], t, params, mc.S):
            return missing, False
    return missing, True


def _subset_order(domain):
    elems = sorted(domain)
    for size in range(len(elems) + 1):
        for combo in itertools.combinations(elems, size):
            yield combo


def symmetric_lift(mc: ModelClass, phi, params):
    """Lift the section of the symmetric basic open <phi, params> to a
    site-object morphism.

    Returns the arrow set of the symmetric array (<phi, params>, (p,p)...,
    <phi, params>) and lift_section's (N_s, site, hat) for the section of
    the definable sheaf of phi at params over <phi, params>.  A correct lift
    has N_s equal to that arrow set; what a mismatch means is the caller's.
    """
    D = definable_sheaf(mc, phi)
    cond = BasicOpenM(phi, params)
    U = basic_open_points(mc, cond)
    section = {}
    for x in U:
        M = mc.models[x]
        p = D.point_index.get((x, tuple(M.block_key(q) for q in params)))
        if p is None:
            raise InvariantError("a point of <phi, params> is not in the sheaf of phi")
        section[x] = p
    arrows = basic_open_arrows(mc, BasicOpenI(cond, tuple((p, p) for p in params), cond))
    return (arrows, *lift_section(D, U, section))


def _symmetric_row(mc: ModelClass, model_idx, subset):
    """The row of the class's lift table for a model and a subset of its
    domain: [formula, params, arrow set] of the symmetric array, then the
    lift's verdict, None until _lift_verdict fills it in."""
    key = (model_idx, subset)
    row = mc._lifts.get(key)
    if row is None:
        varr = symmetric_varray(mc.models[model_idx], subset)
        row = mc._lifts[key] = [varr.dom.formula, varr.dom.params, basic_open_arrows(mc, varr), None]
    return row


def _lift_verdict(mc: ModelClass, chi, params, arrows):
    """What density reads of the symmetric lift at (chi, params): for an
    isomorphism, (True, the inner site's class_of, each inner class's least
    arrow, the point map); otherwise (False, lift_shortfall's result)."""
    _, N_s, inner, hat = symmetric_lift(mc, chi, params)
    if N_s != arrows:
        raise SiteError("computed stabilizer differs from the symmetric array")
    if hat.is_isomorphism():
        return True, inner.class_of, inner.reps, hat.point_map
    return False, lift_shortfall(mc, hat, params)


def _density_cover(mc: ModelClass, site: MoerdijkSiteObject, model_idx):
    """density_certificate's search for the elements over one domain model:
    (True, chi, params, definable sheaf, morphism into the site sheaf, the
    inner lift's class_of, its point map) for the first fitting symmetric
    neighbourhood whose lift is an isomorphism; otherwise (False, status,
    attempts)."""
    attempts = []
    fitted = 0
    for subset in _subset_order(mc.models[model_idx].domain):
        row = _symmetric_row(mc, model_idx, subset)
        chi, params, arrows, verdict = row
        if not arrows <= site.N:
            continue
        fitted += 1
        if verdict is None:
            verdict = row[3] = _lift_verdict(mc, chi, params, arrows)
        if verdict[0]:
            _, class_of, least, point_map = verdict
            D = definable_sheaf(mc, chi)
            embed = [site.class_of[f] for f in least]
            inv = {q: p for p, q in enumerate(point_map)}
            morphism = SheafMorphism(
                D, site.sheaf, tuple(embed[inv[p]] for p in range(len(D.points)))
            )
            bad = morphism.check()
            if bad:
                raise SiteError(f"density morphism fails checks: {bad[:3]}")
            return True, chi, params, D, morphism, class_of, point_map
        missing, gate_ok = verdict[1]
        attempts.append(
            {
                "params": params,
                "missing": missing,
                "headroom_explains": gate_ok,
            }
        )
    if fitted == 0:
        raise SiteError("no symmetric neighborhood fits inside N")  # full diagram always fits
    status = "gated" if all(a["headroom_explains"] for a in attempts) else "failed"
    return False, status, attempts


def density_certificate(mc: ModelClass, site: MoerdijkSiteObject, class_idx):
    """Exhibit a definable sheaf covering a given element of a site object.

    Searches symmetric basic neighborhoods of the identity at the element's
    domain model, smallest parameter set first; for the first one inside N
    whose section lift is an isomorphism, returns the definable sheaf, the
    morphism into the site sheaf, and the preimage point.  Surjectivity of
    the lift is where index headroom enters; shortfalls are classified and
    reported as gated.  The lift depends only on the model and the subset,
    so each is lifted once per class (the class's lift table) and only
    embedded into the site here.  The search and the morphism depend only
    on the site and the domain model, so the elements over one model share
    them through the site's `covers`.
    """
    rep = site.reps[class_idx]
    model_idx = site.groupoid.d[rep]
    cover = site.covers.get(model_idx)
    if cover is None:
        cover = site.covers[model_idx] = _density_cover(mc, site, model_idx)
    if not cover[0]:
        _, status, attempts = cover
        return {"status": status, "attempts": attempts, "element": class_idx}
    _, chi, params, D, morphism, class_of, point_map = cover
    preimage = point_map[class_of[rep]]
    if morphism.point_map[preimage] != class_idx:
        raise SiteError("density certificate misses its element")
    return {
        "status": "verified",
        "formula": chi,
        "params": params,
        "definable": D,
        "morphism": morphism,
        "preimage": preimage,
        "element": class_idx,
    }
