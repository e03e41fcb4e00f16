"""Indexed structures: enumeration, evaluation, isomorphisms, entailment.

A structure here is a quotient of a subset of the finite index set
{0, ..., n-1}: a sorted carrier domain, a partition of it into blocks, and
relation/function interpretations over the blocks.  Blocks are keyed by
their minimal element.  Enumeration order is fixed once and for all:
subsets in binary counting order, partitions in restricted-growth-string
order, relation interpretations in bitmask order, function interpretations
in base-(number of blocks) counting order.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .errors import HeadroomError, InterpretationError, InvariantError, LimitExceeded, SignatureError
from .logic import (
    And,
    App,
    Bot,
    Eq,
    Exists,
    FormulaInContext,
    Or,
    Rel,
    Sequent,
    Theory,
    Top,
    Var,
    substitute,
)

DEFAULT_LIMIT = 200_000


@dataclass(frozen=True)
class IndexSet:
    """The fixed finite index set; elements are 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("index set must be nonempty")

    def elements(self):
        return range(self.size)


class IndexedStructure:
    """Carrier domain, partition into blocks, and symbol interpretations.

    rels maps a relation name to a frozenset of tuples of block keys; funs
    maps a function name to a dict from argument key tuples to a key.
    Instances are immutable by convention and hashable by canonical form.
    """

    __slots__ = ("domain", "blocks", "keys", "rels", "funs", "_block_of", "_key", "_hash")

    def __init__(self, domain, blocks, rels=None, funs=None):
        domain = tuple(sorted(domain))
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0])) if blocks else ()
        flat = [x for b in blocks for x in b]
        if sorted(flat) != list(domain) or len(flat) != len(set(flat)):
            raise SignatureError("blocks do not partition the domain")
        self.domain = domain
        self.blocks = blocks
        self.keys = tuple(b[0] for b in blocks)
        self._block_of = {}
        for b in blocks:
            for x in b:
                self._block_of[x] = b[0]
        keys = set(self.keys)
        rels = {name: frozenset(tuple(t) for t in ts) for name, ts in (rels or {}).items()}
        funs = {name: dict(g) for name, g in (funs or {}).items()}
        for name, ts in rels.items():
            for t in ts:
                if not set(t) <= keys:
                    raise SignatureError(f"relation {name} references unknown block {t}")
        for name, g in funs.items():
            for args, val in g.items():
                if not set(args) <= keys or val not in keys:
                    raise SignatureError(f"function {name} references unknown block")
        self.rels = rels
        self.funs = funs
        self._key = (
            self.domain,
            self.blocks,
            tuple(sorted((n, tuple(sorted(ts))) for n, ts in rels.items())),
            tuple(sorted((n, tuple(sorted(g.items()))) for n, g in funs.items())),
        )
        self._hash = hash(self._key)

    def block_key(self, element):
        return self._block_of[element]

    def has(self, element):
        return element in self._block_of

    def rel(self, name):
        return self.rels.get(name, frozenset())

    def fun(self, name):
        return self.funs[name]

    def __eq__(self, other):
        return isinstance(other, IndexedStructure) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"IndexedStructure(domain={self.domain}, blocks={self.blocks})"

    def to_json(self):
        """Canonical JSON form, byte-stable under the canonical ordering."""
        return {
            "domain": list(self.domain),
            "blocks": [list(b) for b in self.blocks],
            "rels": {
                n: [list(t) for t in sorted(ts)] for n, ts in sorted(self.rels.items())
            },
            "funs": {
                n: [[list(a), v] for a, v in sorted(g.items())]
                for n, g in sorted(self.funs.items())
            },
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# enumeration


def _partitions_rgs(elements):
    """Set partitions in restricted-growth-string order; blocks listed by
    first occurrence, which equals minimal-element order."""
    n = len(elements)
    if n == 0:
        yield ()
        return
    rgs = [0] * n
    while True:
        nblocks = max(rgs) + 1
        blocks = [[] for _ in range(nblocks)]
        for i, lab in enumerate(rgs):
            blocks[lab].append(elements[i])
        yield tuple(tuple(b) for b in blocks)
        # next restricted growth string
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                break
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def count_structures(sig, S):
    """Exact count of the enumeration, for limit checks."""
    total = 0
    n = S.size
    for mask in range(1 << n):
        elements = [i for i in range(n) if mask >> i & 1]
        for blocks in _partitions_rgs(elements):
            b = len(blocks)
            cnt = 1
            for _, arity in sig.rels:
                cnt *= 1 << (b**arity)
            for _, arity in sig.funs:
                cnt *= b ** (b**arity)
            total += cnt
    return total


def enumerate_structures(sig, S, limit=DEFAULT_LIMIT):
    """All indexed structures over sig, complete and duplicate-free."""
    est = count_structures(sig, S)
    if est > limit:
        raise LimitExceeded("structure enumeration too large", est)
    return list(_iter_structures(sig, S))


def _rel_choices(keys, arity):
    tuples = sorted(itertools.product(keys, repeat=arity))
    for mask in range(1 << len(tuples)):
        yield frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)


def _fun_choices(keys, arity):
    argtuples = sorted(itertools.product(keys, repeat=arity))
    if not keys:
        if argtuples:
            return  # a constant needs a value; no interpretation exists
        yield {}
        return
    for values in itertools.product(keys, repeat=len(argtuples)):
        yield dict(zip(argtuples, values))


def _iter_structures(sig, S):
    n = S.size
    for mask in range(1 << n):
        elements = [i for i in range(n) if mask >> i & 1]
        for blocks in _partitions_rgs(elements):
            keys = tuple(b[0] for b in blocks)
            rel_opts = [(name, list(_rel_choices(keys, a))) for name, a in sig.rels]
            fun_opts = [(name, list(_fun_choices(keys, a))) for name, a in sig.funs]
            for rel_pick in itertools.product(*(opts for _, opts in rel_opts)):
                rels = {name: pick for (name, _), pick in zip(rel_opts, rel_pick)}
                for fun_pick in itertools.product(*(opts for _, opts in fun_opts)):
                    funs = {name: pick for (name, _), pick in zip(fun_opts, fun_pick)}
                    yield IndexedStructure(elements, blocks, rels, funs)


# ---------------------------------------------------------------------------
# evaluation


def _eval_term(M, t, env):
    if isinstance(t, Var):
        return env[t.name]
    args = tuple(_eval_term(M, a, env) for a in t.args)
    return M.fun(t.fn)[args]


def satisfies(M, phi, env):
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Eq):
        return _eval_term(M, phi.left, env) == _eval_term(M, phi.right, env)
    if isinstance(phi, Rel):
        t = tuple(_eval_term(M, a, env) for a in phi.args)
        return t in M.rel(phi.name)
    if isinstance(phi, And):
        return all(satisfies(M, p, env) for p in phi.parts)
    if isinstance(phi, Or):
        return any(satisfies(M, p, env) for p in phi.parts)
    if isinstance(phi, Exists):
        for key in M.keys:
            env2 = dict(env)
            env2[phi.var] = key
            if satisfies(M, phi.body, env2):
                return True
        return False
    raise TypeError(f"not a formula: {phi!r}")


def eval_formula(M, f: FormulaInContext):
    """The Tarskian extension: all context assignments satisfying the formula.

    With an empty context the result is a subset of {()}.
    """
    out = set()
    for assignment in itertools.product(M.keys, repeat=len(f.context)):
        env = dict(zip(f.context, assignment))
        if satisfies(M, f.formula, env):
            out.add(assignment)
    return out


def holds(M, seq: Sequent):
    for assignment in itertools.product(M.keys, repeat=len(seq.context)):
        env = dict(zip(seq.context, assignment))
        if satisfies(M, seq.lhs, env) and not satisfies(M, seq.rhs, env):
            return False
    return True


def is_model(M, theory: Theory):
    return all(holds(M, ax) for ax in theory.axioms)


# ---------------------------------------------------------------------------
# isomorphisms


class StructIso:
    """A block bijection between two structures preserving all structure."""

    __slots__ = ("dom", "cod", "mapping", "_key")

    def __init__(self, dom, cod, mapping):
        mapping = dict(mapping)
        if sorted(mapping) != sorted(dom.keys) or sorted(mapping.values()) != sorted(cod.keys):
            raise SignatureError("mapping is not a bijection between the block sets")
        self.dom = dom
        self.cod = cod
        self.mapping = mapping
        self._key = (dom._key, cod._key, tuple(sorted(mapping.items())))

    def apply(self, key):
        return self.mapping[key]

    def apply_tuple(self, t):
        return tuple(self.mapping[k] for k in t)

    def preserves_structure(self):
        return _preserves(self.dom, self.cod, self.mapping)

    def inverse(self):
        return StructIso(self.cod, self.dom, {v: k for k, v in self.mapping.items()})

    def compose(self, other):
        """self after other (other: A->B, self: B->C)."""
        return StructIso(other.dom, self.cod, {k: self.mapping[v] for k, v in other.mapping.items()})

    def __eq__(self, other):
        return isinstance(other, StructIso) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"StructIso({dict(sorted(self.mapping.items()))})"


def _preserves(dom, cod, sigma):
    """Whether the block bijection sigma (a dict) carries every relation and
    function graph of dom onto that of cod.  A bijection maps a relation
    onto one of equal size exactly when it maps it into it."""
    at = sigma.__getitem__
    for name in set(dom.rels) | set(cod.rels):
        src, dst = dom.rel(name), cod.rel(name)
        if len(src) != len(dst):
            return False
        for t in src:
            if tuple(map(at, t)) not in dst:
                return False
    for name in set(dom.funs) | set(cod.funs):
        g, h = dom.funs.get(name), cod.funs.get(name)
        if g is None or h is None:
            return False
        for args, val in g.items():
            if h[tuple(map(at, args))] != at(val):
                return False
    return True


def enumerate_isomorphisms(M, N):
    """All structure-preserving bijections between the block sets, in
    permutation order of the codomain keys."""
    mk, nk = M.keys, N.keys
    if len(mk) != len(nk):
        return []
    out = []
    for perm in itertools.permutations(nk):
        sigma = dict(zip(mk, perm))
        if _preserves(M, N, sigma):
            out.append(StructIso(M, N, sigma))
    return out


def canonical_form(M):
    """The least relabelled copy of M over all bijections of its blocks onto
    0..k-1: the block count, then the nonempty relations and every function
    graph, each sorted.  Isomorphic structures have equal forms, since
    relabelling N after an isomorphism M -> N is a relabelling of M."""
    keys = M.keys
    rels = [(name, ts) for name, ts in sorted(M.rels.items()) if ts]
    funs = sorted(M.funs.items())
    best = None
    for perm in itertools.permutations(range(len(keys))):
        p = dict(zip(keys, perm))
        form = (
            tuple((name, tuple(sorted(tuple(p[k] for k in t) for t in ts))) for name, ts in rels),
            tuple(
                (name, tuple(sorted((tuple(p[k] for k in args), p[v]) for args, v in g.items())))
                for name, g in funs
            ),
        )
        if best is None or form < best:
            best = form
    return len(keys), best


def fibers(ends, arrows):
    """Arrows grouped by an endpoint map: x -> the arrows f with ends[f] == x,
    in the order of `arrows`.  With the codomain map, the fiber over d(g)
    holds exactly the f composable with g, so a composition pass costs the
    number of composable pairs instead of the square of the arrow count."""
    out = {}
    for f in arrows:
        out.setdefault(ends[f], []).append(f)
    return out


# ---------------------------------------------------------------------------
# the model class


class ModelClass:
    """All S-indexed models of a theory with all isomorphisms between them.

    The class owns its groupoid's tables and every memo table of its
    logical topology.  Each lives as long as the class (and so, through
    model_class, as long as the process).  Two are built with the class:

    - ``model_index``: structure -> its model number (``find_model``).
    - ``arrow_index``: (dom, cod, perm) -> arrow number, where perm lists
      the codomain keys in domain-key order (``iso_perm``).  Identities,
      inverses, composites, ``find_iso`` and ``star`` are lookups in it.

    The rest are filled on first use:

    - ``composites``: arrow g -> its row of composites g after f over the
      codomain fiber of d(g), held as is by ``groupoid.build_model_groupoid``.
    - ``_ext_cache``: (model index, formula-in-context) -> extension, the
      frozenset of satisfying block-key tuples (``ext``).
    - ``_tuples``: tuple -> the one shared copy of it, so equal tuples in
      different extensions are one object (``ext``).
    - ``_preserving``: index pair (a, b) -> the arrows of the preservation
      set <a->b> (``preserving``).
    - ``_equal``: index pair (a, b) -> the models in which a and b name one
      block (``equal``).
    - ``_points``: formula -> parameter tuple -> the model indices of the
      basic open <formula, params> (``topology.basic_open_points``).  Two
      levels, so each formula tree is held once however many tuples it
      meets.
    - ``_atomic``: the atomic subbasis tuple, or None until built
      (``topology.atomic_subbasis``).
    - ``_model_space``: the model space, or None until built
      (``topology.model_space``); its open lattice is listed once.
    - ``_sheaves``: formula -> its definable sheaf
      (``sheaves.definable_sheaf``); sheaves are never mutated once built.
    - ``_groupoid``: the topological groupoid, or None until built
      (``groupoid.build_model_groupoid``).
    - ``_lifts``: (model index, subset of its domain) -> [formula, params,
      arrow set] of the symmetric array on that subset, then the verdict of
      the section lift, None until the subset first fits a site: (True,
      the inner site's class_of, each inner class's least arrow, the point
      map) for an isomorphism, else (False, ``lift_shortfall``'s result)
      (``sheaves.density_certificate``).

    search_nodes is the number of nodes the model search visited; model_class
    holds a cached class to a later call's limit with it.
    """

    def __init__(self, theory, S, models, isos, search_nodes=0):
        self.theory = theory
        self.S = S
        self.search_nodes = search_nodes
        self.models = list(models)
        self.isos = list(isos)
        self.model_index = {M: i for i, M in enumerate(self.models)}
        self.iso_dom = [self.model_index[f.dom] for f in self.isos]
        self.iso_cod = [self.model_index[f.cod] for f in self.isos]
        self.iso_perm = [tuple(map(f.mapping.__getitem__, f.dom.keys)) for f in self.isos]
        self.arrow_index = {
            key: j for j, key in enumerate(zip(self.iso_dom, self.iso_cod, self.iso_perm))
        }
        self.identity_of = [self.arrow_index.get((i, i, M.keys)) for i, M in enumerate(self.models)]
        self.inverse_of = []
        for j, perm in enumerate(self.iso_perm):
            d, c = self.iso_dom[j], self.iso_cod[j]
            back = dict(zip(perm, self.models[d].keys))
            inv = self.arrow_index.get((c, d, tuple(map(back.__getitem__, self.models[c].keys))))
            if inv is None:
                raise InvariantError(f"the inverse of arrow {j}, {self.isos[j]!r}, is not an arrow")
            self.inverse_of.append(inv)
        self._ext_cache = {}
        self._tuples = {}
        self._preserving = {}
        self._equal = {}
        self._points = {}
        self._atomic = None
        self._model_space = None
        self._sheaves = {}
        self._groupoid = None
        self._lifts = {}

    @functools.cached_property
    def composites(self):
        """g -> the tuple of composites g after f, for f in the codomain
        fiber of d(g) in ascending order: composition as rows over the
        composable pairs.  The composite's permutation is g's mapping read
        along f's, so no StructIso is built."""
        arrow, perm, dom, cod = self.arrow_index, self.iso_perm, self.iso_dom, self.iso_cod
        into = fibers(cod, range(len(self.isos)))
        rows = []
        for gj, g in enumerate(self.isos):
            after, c, fs = g.mapping.__getitem__, cod[gj], into.get(dom[gj], ())
            row = tuple([arrow.get((dom[fj], c, tuple(map(after, perm[fj])))) for fj in fs])
            if None in row:
                fj = fs[row.index(None)]
                raise InvariantError(f"the composite of arrows {gj} after {fj} is not an arrow")
            rows.append(row)
        return rows

    def __repr__(self):
        return (
            f"ModelClass({self.theory}, |S|={self.S.size}, "
            f"{len(self.models)} models, {len(self.isos)} isos)"
        )

    def find_model(self, M):
        i = self.model_index.get(M)
        if i is None:
            raise InvariantError(f"{M!r} is not a model of {self!r}")
        return i

    def find_iso(self, iso):
        d, c = self.find_model(iso.dom), self.find_model(iso.cod)
        j = self.arrow_index.get((d, c, tuple(map(iso.mapping.__getitem__, iso.dom.keys))))
        if j is None:
            raise InvariantError(f"{iso!r} from model {d} to model {c} is not an arrow of {self!r}")
        return j

    def ext(self, model_idx, f: FormulaInContext):
        key = (model_idx, f)
        hit = self._ext_cache.get(key)
        if hit is None:
            shared = self._tuples
            hit = frozenset(shared.setdefault(t, t) for t in eval_formula(self.models[model_idx], f))
            self._ext_cache[key] = hit
        return hit

    def preserving(self, a, b):
        """The preservation set <a->b>: arrows whose domain has a, whose
        codomain has b, and which send the block of a to the block of b."""
        hit = self._preserving.get((a, b))
        if hit is None:
            hit = frozenset(
                j
                for j, f in enumerate(self.isos)
                if f.dom.has(a) and f.cod.has(b) and f.apply(f.dom.block_key(a)) == f.cod.block_key(b)
            )
            self._preserving[(a, b)] = hit
        return hit

    def equal(self, a, b):
        """The models in which a and b are defined and name one block: the
        point set of the basic open <[x0, x1 | x0 = x1], (a, b)>.  equal(a, a)
        is the definedness open of a."""
        hit = self._equal.get((a, b))
        if hit is None:
            hit = frozenset(
                i
                for i, M in enumerate(self.models)
                if M.has(a) and M.has(b) and M.block_key(a) == M.block_key(b)
            )
            self._equal[(a, b)] = hit
        return hit

    def entails(self, seq: Sequent):
        """Membership in the semantic closure: true in every listed model."""
        lhs = FormulaInContext(seq.context, seq.lhs)
        rhs = FormulaInContext(seq.context, seq.rhs)
        for i in range(len(self.models)):
            if not self.ext(i, lhs) <= self.ext(i, rhs):
                return False
        return True

    def extension_family(self, f: FormulaInContext):
        """Per-model extensions, the semantic value of a formula-in-context."""
        return tuple(self.ext(i, f) for i in range(len(self.models)))

    def star(self, model_idx, a, b):
        """Star construction located inside the class: returns (N index, iso index)."""
        N, iso = star_lemma(self.models[model_idx], a, b, self.S)
        return self.find_model(N), self.find_iso(iso)


def _axiom_symbols(seq):
    return _formula_symbols(seq.lhs) | _formula_symbols(seq.rhs)


def _definition_map(theory, symbols):
    """Relation symbols pinned by a biconditional axiom pair over earlier
    symbols: name -> defining formula.  The search evaluates the formula
    instead of enumerating interpretations; results are unchanged because
    any other interpretation would fail the axiom pair."""
    atoms = {}
    for idx, (kind, name, arity) in enumerate(symbols):
        if kind == "rel":
            atoms[name] = (idx, Rel(name, tuple(Var(f"x{i}") for i in range(arity))))
    forward = {}  # name -> formulas phi with axiom  atom |- phi
    backward = {}  # name -> formula set, with axiom  phi |- atom
    for ax in theory.axioms:
        lhs, rhs = ax.lhs, ax.rhs
        if isinstance(lhs, Rel) and lhs.name in atoms:
            idx, atom = atoms[lhs.name]
            if len(ax.context) == len(atom.args) and lhs == atom:
                forward.setdefault(lhs.name, []).append(rhs)
        if isinstance(rhs, Rel) and rhs.name in atoms:
            idx, atom = atoms[rhs.name]
            if len(ax.context) == len(atom.args) and rhs == atom:
                backward.setdefault(rhs.name, set()).add(lhs)
    defs = {}
    for name, (idx, atom) in atoms.items():
        earlier = {symbols[j][1] for j in range(idx)}
        for phi in forward.get(name, []):
            if phi in backward.get(name, set()) and _formula_symbols(phi) <= earlier:
                defs[name] = phi
                break
    return defs


def _formula_symbols(phi):
    """Relation and function names occurring in a formula."""
    syms = set()

    def walk(p):
        if isinstance(p, Rel):
            syms.add(p.name)
            for t in p.args:
                walk_term(t)
        elif isinstance(p, Eq):
            walk_term(p.left)
            walk_term(p.right)
        elif isinstance(p, (And, Or)):
            for q in p.parts:
                walk(q)
        elif isinstance(p, Exists):
            walk(p.body)

    def walk_term(t):
        if isinstance(t, App):
            syms.add(t.fn)
            for a in t.args:
                walk_term(a)

    walk(phi)
    return syms


def _search_models(theory, S, limit, visited):
    """Depth-first interpretation search, pruning with every axiom whose
    symbols are already decided.  Yields exactly the structures that
    enumerate_structures + is_model would keep, in the same order.

    limit (None for no bound) bounds the number of candidate nodes the
    search may visit; the one-element list visited counts them.
    """
    sig = theory.signature
    symbols = [("rel", n, a) for n, a in sig.rels] + [("fun", n, a) for n, a in sig.funs]
    defs = _definition_map(theory, symbols)
    ax_syms = [(ax, _axiom_symbols(ax)) for ax in theory.axioms]
    stage_axioms = {i: [] for i in range(len(symbols) + 1)}
    for ax, syms in ax_syms:
        decided = set()
        stage = 0
        for i, (_, n, _a) in enumerate(symbols, start=1):
            decided.add(n)
            if syms <= decided:
                stage = i
                break
        if not syms:
            stage = 0
        stage_axioms[stage].append(ax)

    n = S.size
    for mask in range(1 << n):
        elements = [i for i in range(n) if mask >> i & 1]
        for blocks in _partitions_rgs(elements):
            keys = tuple(b[0] for b in blocks)

            def descend(i, rels, funs):
                visited[0] += 1
                if limit is not None and visited[0] > limit:
                    raise LimitExceeded("model search exceeded its node budget")
                probe = IndexedStructure(elements, blocks, rels, funs)
                for ax in stage_axioms[i]:
                    if not holds(probe, ax):
                        return
                if i == len(symbols):
                    yield probe
                    return
                kind, name, arity = symbols[i]
                if kind == "rel":
                    phi = defs.get(name)
                    if phi is not None:
                        ext = eval_formula(
                            probe, FormulaInContext(tuple(f"x{m}" for m in range(arity)), phi)
                        )
                        yield from descend(i + 1, {**rels, name: frozenset(ext)}, funs)
                        return
                    for pick in _rel_choices(keys, arity):
                        yield from descend(i + 1, {**rels, name: pick}, funs)
                else:
                    for pick in _fun_choices(keys, arity):
                        yield from descend(i + 1, rels, {**funs, name: pick})

            yield from descend(0, {}, {})


def build_model_class(theory, S, limit=DEFAULT_LIMIT):
    """All S-indexed models of the theory and all isomorphisms between them.

    The limit bounds the nodes visited by the pruned interpretation search,
    so heavily axiomatized theories stay cheap even when the raw structure
    count is large.
    """
    visited = [0]
    models = list(_search_models(theory, S, limit, visited))
    # only models with one canonical form can be isomorphic; the pairs keep
    # model order, so the iso list is the all-pairs scan's
    forms = [canonical_form(M) for M in models]
    orbit = {}
    for j, form in enumerate(forms):
        orbit.setdefault(form, []).append(j)
    isos = []
    for i, M in enumerate(models):
        for j in orbit[forms[i]]:
            isos.extend(enumerate_isomorphisms(M, models[j]))
    return ModelClass(theory, S, models, isos, search_nodes=visited[0])


_class_cache = {}


def model_class(theory, S, limit=DEFAULT_LIMIT):
    """Cached build_model_class; theories are hashable values.

    A cached class raises LimitExceeded exactly when a fresh build would:
    when its search visited more nodes than limit allows.
    """
    key = (theory, S.size)
    mc = _class_cache.get(key)
    if mc is None:
        mc = _class_cache[key] = build_model_class(theory, S, limit)
    elif limit is not None and mc.search_nodes > limit:
        raise LimitExceeded("model search exceeded its node budget")
    return mc


def entails(theory, S, seq, limit=DEFAULT_LIMIT):
    return model_class(theory, S, limit).entails(seq)


# ---------------------------------------------------------------------------
# reduct and star lemma


def reduct(Mprime, interp):
    """Restrict a model of the target theory along an interpretation.

    Same carrier and partition; relations and function graphs evaluate the
    image formulas in Mprime.
    """
    rels = {}
    for name, arity in interp.source.signature.rels:
        rels[name] = frozenset(eval_formula(Mprime, interp.rel_image(name)))
    funs = {}
    for name, arity in interp.source.signature.funs:
        graph = eval_formula(Mprime, interp.fun_image(name))
        g = {}
        for t in graph:
            args, val = t[:arity], t[arity]
            if args in g:
                raise InterpretationError(f"image of {name} not single-valued on {args}")
            g[args] = val
        for args in itertools.product(Mprime.keys, repeat=arity):
            if args not in g:
                raise InterpretationError(f"image of {name} not total on {args}")
        funs[name] = g
    return IndexedStructure(Mprime.domain, Mprime.blocks, rels, funs)


def star_headroom(M, a, b, S):
    """Whether a surjection S ->> blocks(M) extending b_i -> [a_i] exists."""
    keys = M.keys
    if len(a) != len(b):
        raise SignatureError("tuples a and b must have equal length")
    if len(set(b)) != len(b):
        raise SignatureError("entries of b must be pairwise distinct")
    for x in a:
        if not M.has(x):
            raise SignatureError(f"{x} is not in the carrier domain")
    if not keys:
        return S.size == 0
    hit = {M.block_key(x) for x in a}
    free = S.size - len(b)
    return free >= len(set(keys) - hit)


def star_surjection(M, a, b, S):
    """The surjection p: S ->> blocks(M) of the star construction, as its
    (index, block key) pairs in index order, or None when no surjection
    extends b_i -> [a_i].

    Deterministic fill: unhit blocks take the smallest unused index
    elements in block order, every remaining index element lands in the
    first block."""
    if not star_headroom(M, a, b, S):
        return None
    indices = S.elements()
    if not all(y in indices for y in b):
        raise SignatureError("entries of b must be index elements")
    p = dict(zip(b, map(M.block_key, a)))
    hit = set(p.values())
    fill = iter([k for k in M.keys if k not in hit])
    first = M.keys[0]
    for s in indices:
        if s not in p:
            p[s] = next(fill, first)
    return tuple(sorted(p.items()))


def star_image(M, p):
    """The model N carried by the indices of p, each block of N the fiber
    of p over a block of M, together with the isomorphism f: M -> N that
    sends a block to the least index of its fiber."""
    fibers = {}
    for s, k in p:
        fibers.setdefault(k, []).append(s)
    sigma = {k: f[0] for k, f in fibers.items()}
    rels = {
        name: frozenset(tuple(sigma[k] for k in t) for t in ts) for name, ts in M.rels.items()
    }
    funs = {
        name: {tuple(sigma[k] for k in args): sigma[val] for args, val in g.items()}
        for name, g in M.funs.items()
    }
    N = IndexedStructure([s for s, _ in p], list(fibers.values()), rels, funs)
    return N, StructIso(M, N, sigma)


def star_lemma(M, a, b, S):
    """Move the marked elements of M onto the prescribed fresh labels.

    Returns a model N carried by all of S together with an isomorphism
    f: M -> N with f([a_i]) = [b_i]: the image of star_surjection(M, a, b, S).
    """
    p = star_surjection(M, a, b, S)
    if p is None:
        raise HeadroomError(
            f"no surjection of {S.size} indices onto {len(M.keys)} blocks extends the assignment"
        )
    return star_image(M, p)


# ---------------------------------------------------------------------------
# interpretation validation


def functionality_sequents(interp):
    """Totality and single-valuedness sequents for every function image."""
    out = []
    for name, arity in interp.source.signature.funs:
        img = interp.fun_image(name)
        ctx = [f"x{i}" for i in range(arity)]
        body = img.formula
        total = Sequent(tuple(ctx), Top(), Exists(f"x{arity}", body))
        ren = {f"x{i}": Var(f"x{i}") for i in range(arity)}
        ren[f"x{arity}"] = Var(f"x{arity + 1}")
        body2 = substitute(body, ren)
        unique = Sequent(
            tuple(ctx + [f"x{arity}", f"x{arity + 1}"]),
            And((body, body2)),
            Eq(Var(f"x{arity}"), Var(f"x{arity + 1}")),
        )
        out.append((name, total, unique))
    return out


def check_interpretation(interp, S, limit=DEFAULT_LIMIT):
    """Semantic validation of an interpretation against the target class.

    Checks that every function image is provably functional and that every
    translated source axiom holds in all target models.  Returns a list of
    failure descriptions, empty when valid.
    """
    mc = model_class(interp.target, S, limit)
    failures = []
    for name, total, unique in functionality_sequents(interp):
        if not mc.entails(total):
            failures.append(f"image of {name} is not total")
        if not mc.entails(unique):
            failures.append(f"image of {name} is not single-valued")
    for ax in interp.source.axioms:
        if not mc.entails(interp.translate_sequent(ax)):
            failures.append(f"translated axiom fails: {ax}")
    return failures
