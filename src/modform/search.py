"""Bounded enumeration of formulas-in-context up to semantic equivalence.

The search works over a fixed model class: two formulas are identified when
their extension families (one extension per model) coincide, which is
exactly provable equivalence relative to the semantic closure of the
theory.  Depth counts tree height, with terms contributing their own
height; the enumeration is deterministic, keeping the first representative
found for each semantic class.

Formula space is infinite, so every result is a statement "at depth d";
callers report the bound rather than extrapolate.
"""

from __future__ import annotations

import itertools

from .logic import App, BOT, Eq, Exists, Rel, TOP, Var, conj, disj, fic
from .models import ModelClass

GEOMETRIC = frozenset({"top", "bot", "eq", "rel", "and", "or", "exists"})
HORN = frozenset({"top", "eq", "rel", "and"})

CONNECTIVE_SETS = {"geometric": GEOMETRIC, "horn": HORN}


class FormulaSearch:
    """Semantic-class enumeration for one model class."""

    def __init__(self, mc: ModelClass, connectives="geometric"):
        self.mc = mc
        self.ops = CONNECTIVE_SETS[connectives]
        self._classes = {}  # (k, depth) -> ordered dict family -> formula (raw, over x0..)

    def _family(self, k, phi):
        f = fic([f"x{i}" for i in range(k)], phi)
        return self.mc.extension_family(f)

    def _terms(self, k, depth):
        """Terms over x0..x{k-1} of height at most depth."""
        funs = self.mc.theory.signature.funs
        levels = [[Var(f"x{i}") for i in range(k)]]
        for d in range(1, depth + 1):
            new = []
            pool = [t for lev in levels for t in lev]
            for name, arity in funs:
                for args in itertools.product(pool, repeat=arity):
                    new.append(App(name, args))
            levels.append(new)
        seen = []
        out = []
        for lev in levels:
            for t in lev:
                if t not in seen:
                    seen.append(t)
                    out.append(t)
        return out

    def _atoms_of_height(self, k, d):
        """Atoms of tree height exactly d (term height d-1)."""
        sig = self.mc.theory.signature
        shallow = set()
        if d > 1:
            shallow = {t for t in self._terms(k, d - 2)}
        terms = self._terms(k, d - 1)
        out = []
        if d == 1:
            if "top" in self.ops:
                out.append(TOP)
            if "bot" in self.ops:
                out.append(BOT)
        if "eq" in self.ops:
            for t1 in terms:
                for t2 in terms:
                    if t1 not in shallow or t2 not in shallow:
                        out.append(Eq(t1, t2))
        if "rel" in self.ops:
            for name, arity in sig.rels:
                for args in itertools.product(terms, repeat=arity):
                    if arity == 0 and d > 1:
                        continue
                    if arity > 0 and all(a in shallow for a in args):
                        continue
                    out.append(Rel(name, args))
        return out

    def classes(self, k, depth):
        """Ordered (formula, family) pairs: one representative per semantic
        class reachable at context length k within the depth bound."""
        key = (k, depth)
        if key in self._classes:
            return self._classes[key]
        table = {}  # family -> (raw formula, depth found)

        def add(phi, d, family=None):
            fam = self._family(k, phi) if family is None else family
            if fam not in table:
                table[fam] = (phi, d)

        for d in range(1, depth + 1):
            for atom in self._atoms_of_height(k, d):
                add(atom, d)
            if d >= 2:
                if "exists" in self.ops:
                    for phi, _fam in self.classes(k + 1, d - 1):
                        add(Exists(f"x{k}", phi.formula), d)
                earlier = [(fam, phi) for fam, (phi, dd) in table.items() if dd < d]
                if "and" in self.ops:
                    for fam1, phi1 in earlier:
                        for fam2, phi2 in earlier:
                            fam = tuple(a & b for a, b in zip(fam1, fam2))
                            if fam not in table:
                                add(conj([phi1, phi2]), d, fam)
                if "or" in self.ops:
                    for fam1, phi1 in earlier:
                        for fam2, phi2 in earlier:
                            fam = tuple(a | b for a, b in zip(fam1, fam2))
                            if fam not in table:
                                add(disj([phi1, phi2]), d, fam)
        result = [
            (fic([f"x{i}" for i in range(k)], phi), fam) for fam, (phi, _d) in table.items()
        ]
        self._classes[key] = result
        return result


def functional_families(search: FormulaSearch, j, k, depth, src_family, dst_family):
    """Semantic classes at context length j+k that are fiberwise functional
    graphs from the source family to the target family."""
    out = []
    for f, fam in search.classes(j + k, depth):
        if _is_functional(fam, src_family, dst_family, j, k):
            out.append((f, fam))
    return out


def _is_functional(graph_family, src_family, dst_family, j, k):
    for graph, src, dst in zip(graph_family, src_family, dst_family):
        seen = {}
        for t in graph:
            s, d = t[:j], t[j:]
            if s not in src or d not in dst:
                return False
            if s in seen and seen[s] != d:
                return False
            seen[s] = d
        for s in src:
            if s not in seen:
                return False
    return True
