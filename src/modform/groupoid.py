"""Finite topological groupoids of models and isomorphisms.

The groupoid of a model class has the models as objects and the
isomorphisms as arrows, both carrying the logical topology.  Structure
maps are explicit finite functions; composition is one row of composites
per arrow, over the codomain fiber of its domain, built on first use.
Continuity and open-map checks run on minimal neighborhoods, which is
exact for finite spaces; a model groupoid's continuity is decided from
its arrow space's factors, without building them (check_continuity).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

from .errors import InterpretationError, InvariantError, SignatureError
from .logic import Eq, conj, fic, substitute, Var
from .models import DEFAULT_LIMIT, ModelClass, StructIso, fibers, model_class, reduct, star_headroom
from .topology import (
    BasicOpenI,
    BasicOpenM,
    FinSpace,
    arrow_space,
    arrows_between,
    atomic_subbasis,
    basic_open_arrows,
    basic_open_points,
    bits,
    model_space,
    trivial_open_m,
)


class TopGroupoid:
    """Object and arrow spaces with d, c, e, i and composition.

    Composition is held as rows, m: G1 x_G0 G1 -> G1 on the fibered
    product: `composites[g]` is the tuple of g∘f for f in into[d(g)], in
    that order, so g∘f is `composites[g][place[f]]`: the regular action,
    held as every action is (sheaves.EquivariantSheaf), whose laws
    composition_failures and continuity_failures check.  The rows are held
    as given, not copied; nothing mutates them."""

    def __init__(self, objects: FinSpace, arrows: FinSpace, d, c, e, i, composites):
        self.objects = objects
        self.arrows = arrows
        self.d = tuple(d)
        self.c = tuple(c)
        self.e = tuple(e)
        self.i = tuple(i)
        self.composites = composites
        # x -> arrows with codomain (domain) x, ascending, and f -> its place
        # in into[c(f)], its column in each row it composes with; built from
        # c and d alone so that check_algebra can hold the rows against them
        self.into, self.place = fibered(self.c)
        self.out_of = fibers(self.d, range(len(self.d)))

    def composable(self):
        """Pairs (g, f) with d(g) = c(f), ordered by g and then f;
        composition is g after f.  Walks the codomain fiber over d(g), so
        the cost is the number of composable pairs."""
        for g in range(self.arrows.size):
            for f in self.into.get(self.d[g], ()):
                yield g, f

    def compose(self, g, f):
        """g after f, for d(g) = c(f)."""
        return self.composites[g][self.place[f]]

    @functools.cached_property
    def covers(self):
        """Whether the rows cover the composable pairs: each arrow's row
        is as long as its fiber."""
        return [len(row) for row in self.composites] == [len(self.into.get(x, ())) for x in self.d]

    @functools.cached_property
    def mistyped(self):
        """The composable pairs (g, f), in composable order, whose composite
        does not run from d(f) to c(g); empty when the rows are well typed."""
        d, c = self.d, self.c
        return [
            (g, f)
            for g, row in enumerate(self.composites)
            for f, gf in zip(self.into.get(d[g], ()), row)
            if d[gf] != d[f] or c[gf] != c[g]
        ]

    # -- algebraic axioms ---------------------------------------------------

    def check_algebra(self):
        """All groupoid identities, exactly; returns a list of violations.

        Every law is checked on every composable pair and triple, walking
        codomain fibers.  Associativity is the composition law of the
        regular action, decided by composition_failures on the rows."""
        bad = []
        n_obj, n_arr = self.objects.size, self.arrows.size
        if len(self.d) != n_arr or len(self.c) != n_arr or len(self.e) != n_obj:
            bad.append("structure map sizes disagree with the spaces")
            return bad
        for x in range(n_obj):
            if self.d[self.e[x]] != x or self.c[self.e[x]] != x:
                bad.append(f"e({x}) is not an endo-arrow at {x}")
        for f in range(n_arr):
            if self.i[self.i[f]] != f:
                bad.append(f"i not involutive at {f}")
            if self.d[self.i[f]] != self.c[f] or self.c[self.i[f]] != self.d[f]:
                bad.append(f"i swaps d and c incorrectly at {f}")
        d, c, e, i = self.d, self.c, self.e, self.i
        rows, into, place = self.composites, self.into, self.place
        if not self.covers:
            bad.append("composition table domain is not the composable pairs")
            return bad
        if self.mistyped:
            return bad + [f"m({g},{f}) has wrong endpoints" for g, f in self.mistyped]
        for f in range(n_arr):
            if rows[e[c[f]]][place[f]] != f or rows[f][place[e[d[f]]]] != f:
                bad.append(f"unit law fails at {f}")
            if rows[i[f]][place[f]] != e[d[f]]:
                bad.append(f"inverse law fails at {f}")
            if rows[f][place[i[f]]] != e[c[f]]:
                bad.append(f"inverse law (other side) fails at {f}")
        triples = composition_failures(self, rows, c, into, place)
        return bad + [f"associativity fails at ({h},{g},{f})" for h, g, f in triples]

    # -- continuity ---------------------------------------------------------

    def check_continuity(self):
        """Continuity of d, c, e, i and of composition on the fibered
        product with its subspace-of-product topology: composition is
        continuous where the regular action is.

        When the arrow space is the initial topology of d and c into the
        object space with n² generators, as arrow_space builds it (its k-th
        generator <k div n -> k mod n>), write pairs[f] for arrows.held[f],
        whose bit a·n+b is set when f ∈ <a->b>.  Then

            g ∈ U_f  iff  d(g) ∈ U_{d f}, c(g) ∈ U_{c f}, pairs[g] ⊇ pairs[f],

        an identity (arrows.in_nbhd), and each law is decided from the
        factors:

        - d, c: continuous, by the construction of the initial topology.
        - e: e(y) ∈ U_{e(x)} by that test, for every y ∈ U_x.
        - i: pairs[i f] = pairs[f]ᵀ and i swaps d and c, for every arrow
          f.  Then for g ∈ U_f, d(i g) = c(g) ∈ U_{c f} = U_{d(i f)},
          likewise for c, and pairs[i g] = pairs[g]ᵀ ⊇ pairs[f]ᵀ =
          pairs[i f]: i(U_f) ⊆ U_{i f}.
        - m: the rows cover the composable pairs and are well typed
          (mistyped is empty), and pairs[g∘f] = pairs[g] ∘ pairs[f], the
          relational composite, for every composable pair.  Then for g2 ∈
          U_g and f2 ∈ U_f with d(g2) = c(f2), d(g2∘f2) = d(f2) ∈ U_{d f} =
          U_{d(g∘f)}, likewise for c, and pairs[g2∘f2] = pairs[g2] ∘
          pairs[f2] ⊇ pairs[g] ∘ pairs[f] = pairs[g∘f], since the
          composite is monotone: g2∘f2 ∈ U_{g∘f}.

        The i and m pair identities hold exactly when pair_defects finds no
        defect.  These arguments read held[f] only as the generators that
        hold f, so they hold whatever the generators are.  The identities
        imply each law; a law whose identity fails, and every law of a
        groupoid whose arrow space is built otherwise, is decided by
        continuity_walk, which is exact.  So the verdicts are the walk's.
        """
        arrows, objects, d, c, e, i = self.arrows, self.objects, self.d, self.c, self.e, self.i
        n = round(len(arrows.generators) ** 0.5)
        ends = [(base, tuple(ends)) for base, ends_list in arrows.maps for _, ends in ends_list]
        if ends != [(objects, d), (objects, c)] or n * n != len(arrows.generators):
            return self.continuity_walk("dceim")
        i_bad, m_bad = pair_defects(self, arrows.held, n)
        fast = {
            "d": True,
            "c": True,
            "e": all(
                arrows.in_nbhd(e[y], e[x]) for x in range(objects.size) for y in objects.minimal[x]
            ),
            "i": not i_bad
            and len(i) == arrows.size
            and all(d[j] == c[f] and c[j] == d[f] for f, j in enumerate(i)),
            "m": not m_bad and self.covers and not self.mistyped,
        }
        walked = self.continuity_walk([law for law, ok in fast.items() if not ok])
        return {law: ok or walked[law] for law, ok in fast.items()}

    def continuity_walk(self, laws):
        """The laws among "d", "c", "e", "i", "m" in `laws`, each decided
        exhaustively on the minimal neighbourhoods: a map is continuous
        when it sends each minimal neighbourhood into the minimal
        neighbourhood of the image, and composition when the regular
        action is (continuity_failures)."""
        walks = {
            "d": lambda: self.arrows.continuous(self.d, self.objects),
            "c": lambda: self.arrows.continuous(self.c, self.objects),
            "e": lambda: self.objects.continuous(self.e, self.arrows),
            "i": lambda: self.arrows.continuous(self.i, self.arrows),
            "m": lambda: not continuity_failures(
                self, self.composites, self.c, self.place, self.arrows.minimal
            ),
        }
        return {law: walks[law]() for law in laws}

    def is_open(self):
        """Whether d and c are open maps."""
        return self.arrows.open_map(self.d, self.objects) and self.arrows.open_map(
            self.c, self.objects
        )

    def to_json(self):
        return {
            "objects": self.objects.size,
            "arrows": self.arrows.size,
            "d": list(self.d),
            "c": list(self.c),
            "e": list(self.e),
            "i": list(self.i),
            "m": [[g, f, self.compose(g, f)] for g, f in self.composable()],
            "object_subbasis": [
                [name, sorted(pts)] for name, pts in self.objects.subbasis
            ],
            "arrow_subbasis": [
                [name, sorted(pts)] for name, pts in self.arrows.subbasis
            ],
        }


def pair_transpose(p, n):
    """The converse of a relation on 0..n-1 held as a pair mask (bit a·n+b
    for the pair (a, b))."""
    out = 0
    for k in bits(p):
        a, b = divmod(k, n)
        out |= 1 << (b * n + a)
    return out


def pair_composite(pg, pf, n):
    """The relational composite of two pair masks: (a, c) when (a, b) is in
    pf and (b, c) in pg for some b."""
    full = (1 << n) - 1
    out = 0
    for a in range(n):
        row = pf >> (a * n) & full
        acc = 0
        for b in bits(row):
            acc |= pg >> (b * n) & full
        out |= acc << (a * n)
    return out


def pair_defects(g: TopGroupoid, held, n):
    """(i_bad, m_bad), the pairs at which the pair masks `held` (bit a·n+b of
    held[f] for (a, b)) break the pair identities of i and m: the OR over
    arrows f of held[i f] ^ held[f]ᵀ, and over composable pairs (h, f) of
    held[h∘f] ^ held[h] ∘ held[f] (pair_transpose, pair_composite).

    Each codomain fiber's masks are read once, composites are memoized by
    (held[h], held[f]) for this call only, and a row is XORed entry by entry
    only when it differs as a whole.  Rows are read as far as they go;
    callers guard coverage (g.covers)."""
    transposes = {}  # held[f] -> its transpose
    i_bad = 0
    for p, j in zip(held, g.i):
        t = transposes.get(p)
        if t is None:
            t = transposes[p] = pair_transpose(p, n)
        i_bad |= held[j] ^ t
    fibers_of = {x: list(map(held.__getitem__, fs)) for x, fs in g.into.items()}
    composites = {}  # held[h] -> held[f] -> held[h] ∘ held[f]
    m_bad = 0
    for h, (x, row) in enumerate(zip(g.d, g.composites)):
        fiber = fibers_of.get(x, ())
        by = composites.setdefault(held[h], {})
        for pf in fiber:
            if pf not in by:
                by[pf] = pair_composite(held[h], pf, n)
        got, want = list(map(held.__getitem__, row)), list(map(by.__getitem__, fiber))
        if got != want:
            for p, q in zip(got, want):
                m_bad |= p ^ q
    return i_bad, m_bad


def fibered(ends):
    """(x -> the indices over x, ascending; each index's place in its fiber)."""
    over = fibers(ends, range(len(ends)))
    pos = [0] * len(ends)
    for members in over.values():
        for k, p in enumerate(members):
            pos[p] = k
    return over, pos


# ---------------------------------------------------------------------------
# the laws of an action held as rows


def composition_failures(g: TopGroupoid, rows, r, over, pos):
    """The triples (h, f, p), ascending, at which (h∘f)·p = h·(f·p) fails,
    for an action of g held as rows: rows[a] is the tuple of a·p for p in
    over[d(a)], so a·p is rows[a][pos[p]]; r maps points to objects.  g's
    composites are such an action on its arrows (r = c, over = into, pos =
    place).  A triple with an undefined term (f·p off the fiber over c(f),
    or h∘f not starting at d(f)) is skipped.  For well-typed composites an
    arrow h is walked only if, over the f whose rows stay in the fiber
    into[d(h)], h's row read along those rows end to end differs from the
    rows of the h∘f end to end; a fiber with no points has no such f."""
    d, c, comp, into, out_of = g.d, g.c, g.composites, g.into, g.out_of
    if g.mistyped:
        differ = range(len(rows))
    else:
        differ = []
        for x in over:
            hs = out_of.get(x, ())
            ends = list(chain.from_iterable(map(rows.__getitem__, into.get(x, ()))))
            if any(map(x.__ne__, map(r.__getitem__, ends))):
                differ += hs
                continue
            ends = list(map(pos.__getitem__, ends))
            for h in hs:
                read_h = list(map(rows[h].__getitem__, ends))
                if list(chain.from_iterable(map(rows.__getitem__, comp[h]))) != read_h:
                    differ.append(h)
        differ.sort()
    bad = []
    for h in differ:
        row_h = rows[h]
        for f, hf in zip(into.get(d[h], ()), comp[h]):
            if d[hf] == d[f]:
                for p, q, y in zip(over.get(d[f], ()), rows[f], rows[hf]):
                    if r[q] == c[f] and y != row_h[pos[q]]:
                        bad.append((h, f, p))
    return bad


def continuity_failures(g: TopGroupoid, rows, r, pos, minimal):
    """The pairs (a, p), ascending, at which an action of g held as rows
    (see composition_failures) is not continuous: (a, p) once for each
    (a2, p2) in nbhd(a) x nbhd(p), with p2 over d(a2), whose a2·p2 leaves
    nbhd(a·p).  minimal[p] is the minimal neighbourhood of point p."""
    d, out_of, near_arrows = g.d, g.out_of, g.arrows.minimal
    bad = []
    for p, near in enumerate(minimal):
        cols = {}  # object -> the places of the points of nbhd(p) over it
        for p2 in near:
            cols.setdefault(r[p2], []).append(pos[p2])
        k = pos[p]
        for a in out_of.get(r[p], ()):
            target = minimal[rows[a][k]]
            for a2 in near_arrows[a]:
                ks = cols.get(d[a2])
                if ks:
                    row = rows[a2]
                    for j in ks:
                        if row[j] not in target:
                            bad.append((a, p))
    bad.sort()
    return bad


@dataclass
class GroupoidMorphism:
    """A continuous functor between finite topological groupoids."""

    src: TopGroupoid
    dst: TopGroupoid
    f0: tuple
    f1: tuple

    def check(self):
        bad = []
        for j in range(self.src.arrows.size):
            if self.dst.d[self.f1[j]] != self.f0[self.src.d[j]]:
                bad.append(f"d square fails at arrow {j}")
            if self.dst.c[self.f1[j]] != self.f0[self.src.c[j]]:
                bad.append(f"c square fails at arrow {j}")
            if self.f1[self.src.i[j]] != self.dst.i[self.f1[j]]:
                bad.append(f"i square fails at arrow {j}")
        for x in range(self.src.objects.size):
            if self.f1[self.src.e[x]] != self.dst.e[self.f0[x]]:
                bad.append(f"e square fails at object {x}")
        src, dst, f1 = self.src, self.dst, self.f1
        for g, f in src.composable():  # an arrow that breaks a d or c square may not compose
            if dst.d[f1[g]] != dst.c[f1[f]] or f1[src.compose(g, f)] != dst.compose(f1[g], f1[f]):
                bad.append(f"m square fails at ({g},{f})")
        if not self.src.objects.continuous(self.f0, self.dst.objects):
            bad.append("object map not continuous")
        if not self.src.arrows.continuous(self.f1, self.dst.arrows):
            bad.append("arrow map not continuous")
        return bad

    def compose(self, other):
        """self after other."""
        if other.dst is not self.src:
            raise SignatureError("morphisms not composable")
        return GroupoidMorphism(
            other.src,
            self.dst,
            tuple(self.f0[x] for x in other.f0),
            tuple(self.f1[j] for j in other.f1),
        )


def identity_morphism(g: TopGroupoid):
    return GroupoidMorphism(g, g, tuple(range(g.objects.size)), tuple(range(g.arrows.size)))


# ---------------------------------------------------------------------------
# building the model groupoid


def build_model_groupoid(mc: ModelClass) -> TopGroupoid:
    """The topological groupoid of models and isomorphisms of a class."""
    if mc._groupoid is not None:
        return mc._groupoid
    g = TopGroupoid(
        model_space(mc),
        arrow_space(mc),
        mc.iso_dom,
        mc.iso_cod,
        mc.identity_of,
        mc.inverse_of,
        mc.composites,
    )
    mc._groupoid = g
    return g


# ---------------------------------------------------------------------------
# the three structure-map preimage identities


def structure_map_preimages(mc: ModelClass, a, b):
    """Compute the i, e and m preimages of <a->b> and verify the identities
    i^-1<a->b> = <b->a>,  e^-1<a->b> = <[x,y|x=y],a,b>,  and
    m^-1<a->b> = union over c of <c->b> x <a->c> on composable pairs."""
    g = build_model_groupoid(mc)
    target = mc.preserving(a, b)
    i_pre = frozenset(j for j in range(g.arrows.size) if g.i[j] in target)
    i_expect = mc.preserving(b, a)
    e_pre = frozenset(x for x in range(g.objects.size) if g.e[x] in target)
    e_expect = basic_open_points(
        mc, BasicOpenM(fic(["x", "y"], Eq(Var("x"), Var("y"))), (a, b))
    )
    m_pre = frozenset((gj, fj) for gj, fj in g.composable() if g.compose(gj, fj) in target)
    m_expect = set()
    for c in mc.S.elements():
        right = fibers(g.c, mc.preserving(a, c))
        for gj in mc.preserving(c, b):
            m_expect.update((gj, fj) for fj in right.get(g.d[gj], ()))
    return {
        "i": {"computed": i_pre, "expected": i_expect, "ok": i_pre == i_expect},
        "e": {"computed": e_pre, "expected": e_expect, "ok": e_pre == e_expect},
        "m": {"computed": m_pre, "expected": frozenset(m_expect), "ok": m_pre == frozenset(m_expect)},
    }


# ---------------------------------------------------------------------------
# openness of the domain map, with certificates


def _normalize_pairs(pairs):
    """Duplicate-free preservation pairs, with the equations they force.

    An arrow is single-valued on blocks, so two targets of one source name
    one codomain block; it is injective on blocks, so two sources of one
    target name one domain block.  Returns the pairs, the domain equations
    and the codomain equations, each equation an index pair.
    """
    target_of = {}  # source -> its first target
    cod_extra = []
    for b, c in pairs:
        first = target_of.setdefault(b, c)
        if first != c:
            cod_extra.append((first, c))
    source_of = {}  # target -> its first source
    dom_extra = []
    for b, c in target_of.items():
        first = source_of.setdefault(c, b)
        if first != b:
            dom_extra.append((first, b))
    return tuple((b, c) for c, b in source_of.items()), dom_extra, cod_extra


def _merge_duplicate_entries(formula_in_context, params):
    """Collapse repeated parameter entries by equating context variables."""
    f = formula_in_context
    ctx = list(f.context)
    phi = f.formula
    params = list(params)
    while True:
        dup = None
        for j in range(len(params)):
            for i in range(j):
                if params[i] == params[j]:
                    dup = (i, j)
                    break
            if dup:
                break
        if not dup:
            break
        i, j = dup
        ren = {v: Var(v) for v in ctx}
        ren[ctx[j]] = Var(ctx[i])
        phi = substitute(phi, ren)
        del ctx[j]
        del params[j]
    return fic(ctx, phi), tuple(params)


def _normalize_v_array(v: BasicOpenI):
    """Rewrite to distinct codomain parameters and duplicate-free
    preservation sources and targets, preserving the arrow set."""
    pairs, dom_extra, cod_extra = _normalize_pairs(v.pairs)

    def extend(formula, params, extra):
        ctx = list(formula.context)
        params = list(params)
        parts = [formula.formula]
        for p, q in extra:
            u, w = f"x{len(ctx)}", f"x{len(ctx) + 1}"
            ctx += [u, w]
            params += [p, q]
            parts.append(Eq(Var(u), Var(w)))
        return fic(ctx, conj(parts)), tuple(params)

    dom_fc, dom_params = extend(v.dom.formula, v.dom.params, dom_extra)
    cod_fc, cod_params = extend(v.cod.formula, v.cod.params, cod_extra)
    cod_fc, cod_params = _merge_duplicate_entries(cod_fc, cod_params)
    return BasicOpenI(BasicOpenM(dom_fc, dom_params), pairs, BasicOpenM(cod_fc, cod_params))


def certificate_open(v: BasicOpenI, ks):
    """The basic open that open_image_d's certificate entry for the
    codomain choice `ks` stands for: the normalized domain and codomain
    formulas of `v` conjoined on disjoint variable blocks, at the domain
    parameters, `ks` and the preservation sources.

    For display and tests; open_image_d never builds it.
    """
    norm = _normalize_v_array(v)
    dom_fc, cod_fc = norm.dom.formula, norm.cod.formula
    p, q, r = len(dom_fc), len(cod_fc), len(norm.pairs)
    ctx = [f"x{i}" for i in range(p + q + r)]
    phi = substitute(dom_fc.formula, {w: Var(ctx[i]) for i, w in enumerate(dom_fc.context)})
    psi = substitute(cod_fc.formula, {w: Var(ctx[p + i]) for i, w in enumerate(cod_fc.context)})
    params = tuple(norm.dom.params) + tuple(ks) + tuple(b for b, _ in norm.pairs)
    return BasicOpenM(fic(ctx, conj([phi, psi])), params)


def _equated(mc: ModelClass, points, equations):
    """The members of `points` in which each index pair of `equations`
    names one block."""
    for p, q in equations:
        points = points & mc.equal(p, q)
    return points


class OpennessPlan:
    """What open_image_d computes for one (pairs, codomain open) case
    before it reads the domain open; `decide` finishes one domain point set.

    The plan holds the normalized pairs' sources and targets, the distinct
    codomain parameters and, over all domain models, the arrows of the case
    before and after normalization, which must agree (else InvariantError).
    A domain open only filters those arrows by their domain model, as
    arrows_between does, so that guard holds on every domain point set.
    For each arrow, in ascending order, the plan keeps its domain model and
    its codomain choice `ks`, once per distinct pair: a repeat adds neither
    an image point nor a certificate entry, and dropping it keeps the order
    of first choice.  The codomain points of each `ks` are memoized for the
    life of the plan, which check_openness drops after its case.
    """

    def __init__(self, mc: ModelClass, pairs, cod: BasicOpenM):
        self.mc, self.pairs, self.cod = mc, pairs, cod
        norm_pairs, dom_extra, self._cod_extra = _normalize_pairs(pairs)
        cod_params = tuple(cod.params) + tuple(x for eq in self._cod_extra for x in eq)
        e_params = tuple(dict.fromkeys(cod_params))  # first occurrences, in order
        self._slot = {e: i for i, e in enumerate(e_params)}
        self._cod_points = {}  # ks -> codomain points
        self._sources = tuple(b for b, _ in norm_pairs)
        self._targets = e_params + tuple(c for _, c in norm_pairs)

        everywhere = trivial_open_m()
        dom_models = _equated(mc, basic_open_points(mc, everywhere), dom_extra)
        self._base = _equated(mc, dom_models, [(b, b) for b in self._sources])
        arrows = arrows_between(mc, dom_models, norm_pairs, self.cod_points(e_params))
        if basic_open_arrows(mc, BasicOpenI(everywhere, pairs, cod)) != arrows:
            raise InvariantError("normalization changed the arrow set")

        forced = {c: b for b, c in norm_pairs}  # preservation target -> its source
        entries = {}  # (domain model, ks), in order of first arrow
        for j in sorted(arrows):
            f = mc.isos[j]
            M, N = f.dom, f.cod
            inv = {w: k for k, w in f.mapping.items()}
            ks = []
            for e in e_params:
                if e in forced:
                    ks.append(forced[e])
                    continue
                pre_key = inv[N.block_key(e)]
                block = next(blk for blk in M.blocks if blk[0] == pre_key)
                taken = set(self._sources) | set(ks)
                ks.append(next((x for x in block if x not in taken), block[0]))
            entries.setdefault((mc.iso_dom[j], tuple(ks)))
        self._entries = tuple(entries)

    def cod_points(self, ks):
        """The codomain open's points with its parameters read at `ks`, one
        index per distinct codomain parameter, and the equations the pairs
        force on the codomain."""
        hit = self._cod_points.get(ks)
        if hit is None:
            at = lambda e: ks[self._slot[e]]
            params = tuple(map(at, self.cod.params))
            hit = basic_open_points(self.mc, BasicOpenM(self.cod.formula, params))
            hit = _equated(self.mc, hit, [(at(x), at(y)) for x, y in self._cod_extra])
            self._cod_points[ks] = hit
        return hit

    def decide(self, dom_points):
        """open_image_d of (a domain open with these points, the pairs, the
        codomain open)."""
        kept = [(x, ks) for x, ks in self._entries if x in dom_points]
        d_image = frozenset(x for x, _ in kept)
        base = dom_points & self._base
        chosen = {ks: base & self.cod_points(ks) for ks in dict.fromkeys(ks for _, ks in kept)}
        certificate = list(chosen.items())

        union = frozenset().union(*chosen.values())
        if not d_image <= union:
            raise InvariantError("domain image is not covered by its certificate")

        gates = []
        failures = []
        if union != d_image:
            for ks, pts in certificate:
                dedup = {}
                consistent = True
                for s, t in zip(ks + self._sources, self._targets):
                    if dedup.get(t, s) != s:
                        consistent = False
                    dedup[t] = s
                srcs, tgts = tuple(dedup.values()), tuple(dedup)
                for K_idx in sorted(pts - d_image):
                    if consistent and star_headroom(self.mc.models[K_idx], srcs, tgts, self.mc.S):
                        failures.append((K_idx, ks))
                    else:
                        gates.append((K_idx, ks))
        status = "failed" if failures else ("gated" if gates else "verified")
        return {
            "image": d_image,
            "certificate": certificate,
            "union": union,
            "status": status,
            "gates": gates,
            "failures": failures,
        }


def open_image_d(mc: ModelClass, v: BasicOpenI):
    """The image of a basic open arrow set under the domain map, with a
    certificate: basic opens of the model space whose union is the image.

    The certificate follows the openness proof: normalize the preservation
    pairs, pick for every distinct codomain parameter a preimage index
    under each arrow (smallest available, forced to the preservation source
    when the parameter is a preservation target), and record one basic open
    per distinct choice `ks`: the domain and codomain conditions merged on
    disjoint variable blocks, at the domain parameters, `ks` and the
    preservation sources.  Such a conjunction holds where each conjunct
    does, so an open's points are an intersection of memoized point sets
    (the domain open, the codomain open at `ks` read through the
    deduplication of its parameters, the equality opens the normalization
    forces, and the definedness opens of the sources); no formula is built
    or evaluated.  Certificate entries are (ks, points) pairs, and
    certificate_open renders an entry's open on request.

    Instances whose star construction lacks index headroom are reported
    as gated rather than failed; gates and failures are (model index, ks)
    pairs.

    Only the last steps read the domain open, and only through its points:
    this is OpennessPlan(mc, v.pairs, v.cod).decide on them, so a sweep can
    build each plan once and decide it for many domain opens.
    """
    return OpennessPlan(mc, v.pairs, v.cod).decide(basic_open_points(mc, v.dom))


# ---------------------------------------------------------------------------
# Mod on interpretations


def mod_on_interpretation(interp, S, limit=DEFAULT_LIMIT):
    """The groupoid morphism of restriction along an interpretation.

    For F: T -> T' the object map sends a T'-model to its reduct and the
    arrow map keeps the underlying block bijection.  Returns the morphism
    together with the basic-open preimage report.
    """
    mc_src = model_class(interp.target, S, limit)  # models of T'
    mc_dst = model_class(interp.source, S, limit)  # models of T
    g_src = build_model_groupoid(mc_src)
    g_dst = build_model_groupoid(mc_dst)
    f0 = []
    for x, M in enumerate(mc_src.models):
        try:
            f0.append(mc_dst.find_model(reduct(M, interp)))
        except InvariantError as err:
            raise InterpretationError(
                f"the reduct of model {x} is not a model of the source theory: {err}"
            ) from err
    f1 = []
    for j, iso in enumerate(mc_src.isos):
        image = StructIso(
            mc_dst.models[f0[mc_src.iso_dom[j]]],
            mc_dst.models[f0[mc_src.iso_cod[j]]],
            iso.mapping,
        )
        f1.append(mc_dst.find_iso(image))
    morphism = GroupoidMorphism(g_src, g_dst, tuple(f0), tuple(f1))
    report = []
    for name, pts, bop in atomic_subbasis(mc_dst):
        translated = BasicOpenM(
            fic(bop.formula.context, interp.translate(bop.formula.formula)), bop.params
        )
        lhs = frozenset(x for x in range(g_src.objects.size) if f0[x] in pts)
        rhs = basic_open_points(mc_src, translated)
        report.append({"open": name, "ok": lhs == rhs, "preimage": lhs, "translated": rhs})
    return morphism, report
