"""Finite topological spaces presented by subbases, and the logical
topologies on model and isomorphism sets.

A finite topology is handled through its minimal basis: the minimal open
neighborhood of a point is the intersection of all subbasic sets containing
it.  A set is open iff it contains the minimal neighborhood of each of its
points, so membership, meets, joins and the completely prime filters never
need the full open lattice.  The lattice itself (all unions of minimal
neighborhoods) is generated lazily and only where an operation genuinely
enumerates opens.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import LimitExceeded, SignatureError
from .logic import App, Eq, Rel, TOP, Var, conj, fic
from .models import IndexedStructure, ModelClass

DEFAULT_LATTICE_LIMIT = 300_000


# ---------------------------------------------------------------------------
# point sets as int bitmasks, and the one lattice enumerator


def mask(points):
    """The bitmask of a set of point indices."""
    out = 0
    for p in points:
        out |= 1 << p
    return out


def bits(m):
    """The points of a bitmask, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def reach(push, x):
    """The least bitmask holding point `x` and `push[y]` for each of its
    points `y`."""
    out = todo = 1 << x
    while todo:
        low = todo & -todo
        todo ^= low
        new = push[low.bit_length() - 1] & ~out
        out |= new
        todo |= new
    return out


def closure_lattice(gens, limit, join=None):
    """Every join of the bitmasks `gens`, the empty join included, as
    frozensets sorted by (size, sorted points).

    A depth-first search from the empty set joins each found set with every
    generator not already inside it.  `join(cur, gen)` defaults to union;
    a caller whose joins must be closed again passes its own.  Raises
    LimitExceeded when a join would find a set beyond the first `limit`
    (the empty set counts).
    """
    gens = sorted(set(gens), key=lambda m: (m.bit_count(), bits(m)))
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for gen in gens:
            if not gen & ~cur:
                continue
            nxt = cur | gen if join is None else join(cur, gen)
            if nxt not in seen:
                if len(seen) >= limit:
                    raise LimitExceeded("lattice too large", len(seen), lower_bound=True)
                seen.add(nxt)
                frontier.append(nxt)
    return [frozenset(b) for b in sorted(map(bits, seen), key=lambda b: (len(b), b))]


class FinSpace:
    """Points 0..n-1 with the coarsest topology that keeps each of its named
    generators open and makes each map continuous.

    `maps` lists (base space, [(prefix, ends), ...]) pairs, `ends` mapping
    the points into the base.  The space is held by these factors, the
    generators and the maps; `held[x]` is the bitmask of the generators
    that hold x (bit k for the k-th).  Preimages commute with meets, so the
    minimal neighbourhood of x is

        U_x = (meet over the maps of ends^-1(U_{ends(x)})) ∩ (meet of the
              generators that hold x),

    and `in_nbhd(y, x)` decides y ∈ U_x from the factors alone: ends(y) ∈
    U_{ends(x)} in each base, and held[y] ⊇ held[x].  The subbasis (for
    each base, each base set and each map into that base, the preimage
    named prefix + the set's name; then the generators), the
    neighbourhoods as bitmasks (`masks`) and as frozensets (`minimal`) are
    built on first read, once per space, by that rule.
    """

    def __init__(self, size, generators=(), maps=()):
        self.size = size
        self.generators = [(name, frozenset(s)) for name, s in generators]
        self.maps = list(maps)
        full = frozenset(range(size))
        for name, s in self.generators:
            if not s <= full:
                raise SignatureError(f"subbasic set {name} not within the point set")
        self._opens = None

    @functools.cached_property
    def held(self):
        held = [0] * self.size
        for k, (_, s) in enumerate(self.generators):
            for x in s:
                held[x] |= 1 << k
        return held

    @functools.cached_property
    def subbasis(self):
        return [
            (prefix + name, frozenset(x for x, y in enumerate(ends) if y in s))
            for base, ends_list in self.maps
            for name, s in base.subbasis
            for prefix, ends in ends_list
        ] + self.generators

    @functools.cached_property
    def masks(self):
        """The minimal neighbourhoods as bitmasks."""
        nbhd = [(1 << self.size) - 1] * self.size
        for base, ends_list in self.maps:
            for _, ends in ends_list:
                fiber = [0] * base.size
                for x, y in enumerate(ends):
                    fiber[y] |= 1 << x
                pre = [0] * base.size  # y -> the preimage of y's minimal neighbourhood
                for y, m in enumerate(base.masks):
                    for z in bits(m):
                        pre[y] |= fiber[z]
                for x, y in enumerate(ends):
                    nbhd[x] &= pre[y]
        for _, s in self.generators:
            m = mask(s)
            for x in s:
                nbhd[x] &= m
        return nbhd

    @functools.cached_property
    def minimal(self):
        """The minimal neighbourhoods as frozensets, one per distinct mask."""
        points = tuple(range(self.size))
        shared = {}
        for m in self.masks:
            if m not in shared:
                shared[m] = frozenset(map(points.__getitem__, bits(m)))
        return [shared[m] for m in self.masks]

    def in_nbhd(self, y, x):
        """Whether y lies in the minimal neighbourhood of x, decided from
        the factors."""
        held = self.held
        return not held[x] & ~held[y] and all(
            base.masks[ends[x]] >> ends[y] & 1
            for base, ends_list in self.maps
            for _, ends in ends_list
        )

    @property
    def points(self):
        return range(self.size)

    def minimal_nbhd(self, x):
        return self.minimal[x]

    def is_open(self, subset):
        subset = frozenset(subset)
        return all(self.minimal[x] <= subset for x in subset)

    def opens(self, limit=DEFAULT_LATTICE_LIMIT):
        """Every open set: the union closure of the minimal basis.

        Returned sorted by (size, sorted points); cached.  A cached lattice
        larger than `limit` is built again, so the call raises as a fresh
        one would.
        """
        if self._opens is None or len(self._opens) > limit:
            self._opens = closure_lattice(self.masks, limit)
        return self._opens

    def same_topology(self, other):
        return self.size == other.size and self.minimal == other.minimal

    def continuous(self, f, target):
        """Whether the point map f into target is continuous."""
        for x in self.points:
            image = {f[y] for y in self.minimal[x]}
            if not image <= target.minimal[f[x]]:
                return False
        return True

    def open_map(self, f, target):
        """Whether the point map f into target is an open map."""
        for x in self.points:
            if not target.is_open({f[y] for y in self.minimal[x]}):
                return False
        return True


# ---------------------------------------------------------------------------
# basic opens of the logical topology


@dataclass(frozen=True)
class BasicOpenM:
    """A formula-in-context with an index parameter tuple of equal length."""

    formula: object  # FormulaInContext
    params: tuple

    def __post_init__(self):
        if len(self.formula) != len(self.params):
            raise SignatureError("parameter tuple length differs from context length")

    def __str__(self):
        inner = ",".join(str(p) for p in self.params) or "*"
        return f"<{self.formula}, {inner}>"


def trivial_open_m():
    return BasicOpenM(fic((), TOP), ())


@dataclass(frozen=True)
class BasicOpenI:
    """Domain, preservation and codomain conditions for isomorphisms."""

    dom: BasicOpenM
    pairs: tuple  # ordered (a, b) index pairs
    cod: BasicOpenM

    def __str__(self):
        pairs = ",".join(f"{a}->{b}" for a, b in self.pairs) or "-"
        return f"({self.dom} / {pairs} / {self.cod})"


def basic_open_points(mc: ModelClass, b: BasicOpenM):
    """Models in which the parameters are defined and satisfy the formula.

    Memoized in the class's points table, by formula and then by params.
    """
    by_params = mc._points.get(b.formula)
    if by_params is None:
        by_params = mc._points[b.formula] = {}
    hit = by_params.get(b.params)
    if hit is None:
        out = set()
        for i, M in enumerate(mc.models):
            if all(M.has(p) for p in b.params):
                key = tuple(M.block_key(p) for p in b.params)
                if key in mc.ext(i, b.formula):
                    out.add(i)
        hit = by_params[b.params] = frozenset(out)
    return hit


def basic_open_arrows(mc: ModelClass, v: BasicOpenI):
    """Arrows satisfying the domain, preservation and codomain conditions."""
    return arrows_between(
        mc, basic_open_points(mc, v.dom), v.pairs, basic_open_points(mc, v.cod)
    )


def arrows_between(mc: ModelClass, dom_set, pairs, cod_set):
    """Arrows from a model in dom_set to a model in cod_set: the class's
    preservation sets <a->b> of the pairs, intersected and filtered by
    their endpoints."""
    arrows = range(len(mc.isos))
    if pairs:
        # ascending, as the scan this replaced added them: insertion order
        # fixes the iteration order of the result
        arrows = sorted(frozenset.intersection(*[mc.preserving(a, b) for a, b in pairs]))
    iso_dom, iso_cod = mc.iso_dom, mc.iso_cod
    return frozenset({j for j in arrows if iso_dom[j] in dom_set and iso_cod[j] in cod_set})


# ---------------------------------------------------------------------------
# logical subbases


def _var_tuple(k):
    return tuple(Var(f"x{i}") for i in range(k))


def atomic_opens(mc: ModelClass):
    """The subbasic opens of the logical topology on the model set.

    A tuple of (name, point set, BasicOpenM): definedness sets, equality
    sets, relation sets and function-equation sets, in a fixed order.  This
    builds it; atomic_subbasis keeps the class's one copy.
    """
    sig = mc.theory.signature
    S = mc.S
    out = []
    for a in S.elements():
        b = BasicOpenM(fic(["x0"], TOP), (a,))
        out.append((f"<{a}>", basic_open_points(mc, b), b))
    for a in S.elements():
        for bb in S.elements():
            op = BasicOpenM(fic(["x0", "x1"], Eq(Var("x0"), Var("x1"))), (a, bb))
            out.append((f"({a}~{bb})", basic_open_points(mc, op), op))
    for name, arity in sig.rels:
        for t in itertools.product(S.elements(), repeat=arity):
            op = BasicOpenM(
                fic([f"x{i}" for i in range(arity)], Rel(name, _var_tuple(arity))), t
            )
            label = f"<{name},({','.join(map(str, t))})>"
            out.append((label, basic_open_points(mc, op), op))
    for name, arity in sig.funs:
        for t in itertools.product(S.elements(), repeat=arity + 1):
            args, val = t[:arity], t[arity]
            phi = Eq(App(name, _var_tuple(arity)), Var(f"x{arity}"))
            op = BasicOpenM(fic([f"x{i}" for i in range(arity + 1)], phi), t)
            label = f"<{name}({','.join(map(str, args))})={val}>"
            out.append((label, basic_open_points(mc, op), op))
    return tuple(out)


def atomic_subbasis(mc: ModelClass):
    """atomic_opens(mc), built on first use and kept by the class."""
    if mc._atomic is None:
        mc._atomic = atomic_opens(mc)
    return mc._atomic


def model_space(mc: ModelClass):
    """The model set with the logical topology (subbasis of atomic opens),
    built on first use and kept by the class."""
    if mc._model_space is None:
        mc._model_space = FinSpace(
            len(mc.models), [(name, pts) for name, pts, _ in atomic_subbasis(mc)]
        )
    return mc._model_space


def arrow_space(mc: ModelClass):
    """The isomorphism set with the logical topology: the coarsest that
    makes the domain and codomain maps into the model space continuous and
    keeps each preservation set <a->b> open.

    The generators are the <a->b> for a, then b, in S, so bit a·n+b of
    `held[f]` is set when f ∈ <a->b>: g ∈ U_f exactly when d(g) ∈ U_{d f},
    c(g) ∈ U_{c f} and held[g] ⊇ held[f] (in_nbhd).
    """
    S = mc.S.elements()
    return FinSpace(
        len(mc.isos),
        [(f"<{a}->{b}>", mc.preserving(a, b)) for a in S for b in S],
        [(model_space(mc), [("d", mc.iso_dom), ("c", mc.iso_cod)])],
    )


def horn_diagram(M, subset=None):
    """The atomic diagram of a structure restricted to a subset of its
    carrier domain, as a basic open: one context variable per index, a Horn
    conjunction of every atomic fact among them, the indices as parameters.

    The resulting basic open is the intersection of all subbasic opens
    containing M that only mention indices in the subset.
    """
    elements = sorted(M.domain if subset is None else subset)
    pos = {a: i for i, a in enumerate(elements)}
    ctx = [f"x{i}" for i in range(len(elements))]
    parts = []
    for a in elements:
        for b in elements:
            if a < b and M.block_key(a) == M.block_key(b):
                parts.append(Eq(Var(ctx[pos[a]]), Var(ctx[pos[b]])))
    for name, ts in sorted(M.rels.items()):
        arity = len(next(iter(ts))) if ts else None
        if arity is None:
            continue
        for combo in itertools.product(elements, repeat=arity):
            if tuple(M.block_key(x) for x in combo) in ts:
                parts.append(Rel(name, tuple(Var(ctx[pos[x]]) for x in combo)))
    for name, g in sorted(M.funs.items()):
        for args, val in sorted(g.items()):
            arity = len(args)
            for combo in itertools.product(elements, repeat=arity):
                if tuple(M.block_key(x) for x in combo) != args:
                    continue
                for v in elements:
                    if M.block_key(v) == val:
                        parts.append(
                            Eq(App(name, tuple(Var(ctx[pos[x]]) for x in combo)), Var(ctx[pos[v]]))
                        )
    return BasicOpenM(fic(ctx, conj(parts)), tuple(elements))


def minimal_varray(mc: ModelClass, iso_idx):
    """The minimal basic open neighborhood of an arrow, as an explicit
    domain / preservation / codomain array."""
    f = mc.isos[iso_idx]
    dom = horn_diagram(f.dom)
    cod = horn_diagram(f.cod)
    pairs = tuple(
        (a, b)
        for a in f.dom.domain
        for b in f.cod.domain
        if f.apply(f.dom.block_key(a)) == f.cod.block_key(b)
    )
    return BasicOpenI(dom, pairs, cod)


def symmetric_varray(M, subset=None):
    """A symmetric basic open around the identity of M: the Horn diagram on
    the subset both as domain and codomain condition, with every subset
    element preserved."""
    diagram = horn_diagram(M, subset)
    return BasicOpenI(diagram, tuple((p, p) for p in diagram.params), diagram)


# ---------------------------------------------------------------------------
# completely prime filters and sobriety


def cp_filters(space):
    """The completely prime filters of opens, each given by its least member:
    the distinct minimal neighbourhoods, sorted by (size, sorted points).

    In a finite space every such filter is the up-set of an open that is not
    the union of its proper open subsets.  Such an open contains a point x
    whose minimal neighbourhood is the whole open, and each minimal
    neighbourhood is such an open.
    """
    return sorted(set(space.minimal), key=lambda o: (len(o), sorted(o)))


def filter_to_model(mc: ModelClass, least):
    """Rebuild the structure whose neighbourhood filter has least member
    `least`.

    Each atomic subbasic open containing `least` is a fact of the structure:
    a defined index, an equality, a relation tuple or a function graph entry.
    """
    A, related = [], set()
    rels = {name: set() for name, _ in mc.theory.signature.rels}
    graphs = {name: [] for name, _ in mc.theory.signature.funs}
    for _, pts, b in atomic_subbasis(mc):
        if not least <= pts:
            continue
        phi, t = b.formula.formula, b.params
        if isinstance(phi, Rel):
            rels[phi.name].add(t)
        elif isinstance(phi, Eq) and isinstance(phi.left, App):
            graphs[phi.left.fn].append(t)
        elif isinstance(phi, Eq):
            related.add(t)
        else:
            A.append(t[0])
    blocks = []
    key_of = {}
    for a in A:
        if a in key_of:
            continue
        blk = tuple(b for b in A if (a, b) in related)
        for x in blk:
            key_of[x] = blk[0]
        blocks.append(blk)
    rels = {name: frozenset(tuple(key_of[x] for x in t) for t in ts) for name, ts in rels.items()}
    funs = {
        name: {tuple(key_of[x] for x in t[:-1]): key_of[t[-1]] for t in ts}
        for name, ts in graphs.items()
    }
    return IndexedStructure(A, blocks, rels, funs)


def sobriety_report(mc: ModelClass):
    """Test sobriety of the truncated model space.

    At finite scale sobriety is the T0 property: the completely prime
    filters biject with the models exactly when the minimal neighbourhoods
    are distinct.  The report also says whether every filter round-trips
    through filter_to_model.
    """
    space = model_space(mc)
    filters = cp_filters(space)
    t0 = len(filters) == len(mc.models)
    roundtrips = []
    for least in filters:
        idx = mc.model_index.get(filter_to_model(mc, least))
        roundtrips.append((least, idx, idx is not None and space.minimal[idx] == least))
    return {
        "t0": t0,
        "filters": len(filters),
        "models": len(mc.models),
        "bijection": t0,
        "round_trip": all(ok for _, _, ok in roundtrips),
        "details": roundtrips,
    }
