"""Signatures, terms, geometric formulas, sequents, theories, interpretations.

Formulas are positive-existential with finitary disjunction: top, bot,
equality, relational atoms, n-ary conjunction and disjunction, and
existential quantification.  Negation, implication and universal
quantification are deliberately absent.  The empty disjunction is bot and
the empty conjunction is top; the smart constructors `conj` and `disj`
maintain that normal form.

Formulas-in-context are stored alpha-canonically: context variables are
renamed to x0, x1, ... by position and bound variables continue the
numbering in pre-order traversal.  Structural equality of canonical values
therefore decides alpha-equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InterpretationError, SignatureError


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple = ()

    def __repr__(self):
        return f"App({self.fn}, {self.args!r})"


def term_vars(t):
    if isinstance(t, Var):
        return {t.name}
    out = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def map_term(t, env):
    """Replace every variable of t using env (must cover all of them)."""
    if isinstance(t, Var):
        return env[t.name]
    return App(t.fn, tuple(map_term(a, env) for a in t.args))


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class And:
    parts: tuple  # length >= 2, no nested And at top level


@dataclass(frozen=True)
class Or:
    parts: tuple  # length >= 2, no nested Or at top level


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


TOP = Top()
BOT = Bot()


def conj(parts):
    """n-ary conjunction; () is top, singletons unwrap, nesting flattens."""
    flat = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(parts):
    """n-ary disjunction; the empty disjunction is bot."""
    flat = []
    for p in parts:
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return BOT
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def free_vars(phi):
    if isinstance(phi, (Top, Bot)):
        return set()
    if isinstance(phi, Eq):
        return term_vars(phi.left) | term_vars(phi.right)
    if isinstance(phi, Rel):
        out = set()
        for t in phi.args:
            out |= term_vars(t)
        return out
    if isinstance(phi, (And, Or)):
        out = set()
        for p in phi.parts:
            out |= free_vars(p)
        return out
    if isinstance(phi, Exists):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def _rename(phi, env, counter):
    """Canonical renaming walk; counter is a one-element list of next index."""
    if isinstance(phi, (Top, Bot)):
        return phi
    if isinstance(phi, Eq):
        return Eq(map_term(phi.left, env), map_term(phi.right, env))
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(map_term(t, env) for t in phi.args))
    if isinstance(phi, And):
        return And(tuple(_rename(p, env, counter) for p in phi.parts))
    if isinstance(phi, Or):
        return Or(tuple(_rename(p, env, counter) for p in phi.parts))
    if isinstance(phi, Exists):
        fresh = f"x{counter[0]}"
        counter[0] += 1
        inner = dict(env)
        inner[phi.var] = Var(fresh)
        return Exists(fresh, _rename(phi.body, inner, counter))
    raise TypeError(f"not a formula: {phi!r}")


@dataclass(frozen=True)
class FormulaInContext:
    """An ordered context of distinct variables and a formula over it.

    The constructor alpha-canonicalizes, so equal values mean
    alpha-equivalent inputs with the same context length and order.
    """

    context: tuple
    formula: object

    def __post_init__(self):
        ctx = tuple(self.context)
        if len(set(ctx)) != len(ctx):
            raise SignatureError(f"context variables not distinct: {ctx}")
        fv = free_vars(self.formula)
        if not fv <= set(ctx):
            raise SignatureError(f"free variables {sorted(fv - set(ctx))} not in context {ctx}")
        k = len(ctx)
        env = {v: Var(f"x{i}") for i, v in enumerate(ctx)}
        counter = [k]
        phi = _rename(self.formula, env, counter)
        object.__setattr__(self, "context", tuple(f"x{i}" for i in range(k)))
        object.__setattr__(self, "formula", phi)
        # hashed once: formulas key the per-class memo tables, and the
        # generated hash would walk the whole formula tree on every lookup
        object.__setattr__(self, "_hash", hash((self.context, phi)))

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.context)

    def __str__(self):
        return f"[{','.join(self.context)} | {formula_to_str(self.formula)}]"


def fic(context, formula):
    return FormulaInContext(tuple(context), formula)


def substitute(phi, assignment):
    """Capture-avoiding substitution; assignment must cover all free variables."""
    missing = free_vars(phi) - set(assignment)
    if missing:
        raise SignatureError(f"unassigned free variables: {sorted(missing)}")
    taken = set()
    for t in assignment.values():
        taken |= term_vars(t)
    return _subst(phi, dict(assignment), taken)


def _fresh_name(taken):
    i = 0
    while f"x{i}" in taken:
        i += 1
    return f"x{i}"


def _subst(phi, env, taken):
    if isinstance(phi, (Top, Bot)):
        return phi
    if isinstance(phi, Eq):
        return Eq(map_term(phi.left, env), map_term(phi.right, env))
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(map_term(t, env) for t in phi.args))
    if isinstance(phi, And):
        return And(tuple(_subst(p, env, taken) for p in phi.parts))
    if isinstance(phi, Or):
        return Or(tuple(_subst(p, env, taken) for p in phi.parts))
    if isinstance(phi, Exists):
        v = phi.var
        if v in taken or v in env:
            v2 = _fresh_name(taken | set(env) | free_vars(phi.body))
            inner = dict(env)
            inner[phi.var] = Var(v2)
            # every other free variable of the body keeps its env image,
            # which is defined because substitute checked coverage upward
            for w in free_vars(phi.body) - {phi.var}:
                inner.setdefault(w, Var(w))
            body = _subst(phi.body, inner, taken | {v2})
            return Exists(v2, body)
        inner = dict(env)
        inner[v] = Var(v)
        return Exists(v, _subst(phi.body, inner, taken))
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# sequents, signatures, theories


@dataclass(frozen=True)
class Sequent:
    """antecedent |- [context] succedent, stored alpha-canonically."""

    context: tuple
    lhs: object
    rhs: object

    def __post_init__(self):
        left = FormulaInContext(self.context, self.lhs)
        right = FormulaInContext(self.context, self.rhs)
        object.__setattr__(self, "context", left.context)
        object.__setattr__(self, "lhs", left.formula)
        object.__setattr__(self, "rhs", right.formula)

    def __str__(self):
        ctx = ",".join(self.context)
        return f"{formula_to_str(self.lhs)} |- [{ctx}] {formula_to_str(self.rhs)}"


def sequent(context, lhs, rhs):
    return Sequent(tuple(context), lhs, rhs)


@dataclass(frozen=True)
class Signature:
    """Relation and function symbols with arities; single implicit sort."""

    rels: tuple = ()  # ordered (name, arity) pairs
    funs: tuple = ()

    def __post_init__(self):
        names = [n for n, _ in self.rels] + [n for n, _ in self.funs]
        if len(set(names)) != len(names):
            raise SignatureError("duplicate symbol declaration")
        for n, a in self.rels + self.funs:
            if a < 0:
                raise SignatureError(f"negative arity for {n}")
        # indexed once: formula checks look arities up for every atom;
        # equality and hashing stay on the declared pairs
        object.__setattr__(self, "_rel_arity", dict(self.rels))
        object.__setattr__(self, "_fun_arity", dict(self.funs))

    @staticmethod
    def make(rels=(), funs=()):
        if isinstance(rels, dict):
            rels = tuple(sorted(rels.items()))
        if isinstance(funs, dict):
            funs = tuple(sorted(funs.items()))
        return Signature(tuple(rels), tuple(funs))

    def rel_arity(self, name):
        try:
            return self._rel_arity[name]
        except KeyError:
            raise SignatureError(f"unknown relation symbol {name}") from None

    def fun_arity(self, name):
        try:
            return self._fun_arity[name]
        except KeyError:
            raise SignatureError(f"unknown function symbol {name}") from None

    def has_rel(self, name):
        return name in self._rel_arity

    def has_fun(self, name):
        return name in self._fun_arity


EMPTY_SIGNATURE = Signature()


@dataclass(frozen=True)
class Theory:
    signature: Signature = EMPTY_SIGNATURE
    axioms: tuple = ()
    name: str = ""

    def __post_init__(self):
        for ax in self.axioms:
            check_formula(self.signature, ax.lhs)
            check_formula(self.signature, ax.rhs)

    def __str__(self):
        return self.name or f"theory({len(self.axioms)} axioms)"


def check_term(sig, t):
    if isinstance(t, Var):
        return
    arity = sig.fun_arity(t.fn)
    if arity != len(t.args):
        raise SignatureError(f"{t.fn} expects {arity} arguments, got {len(t.args)}")
    for a in t.args:
        check_term(sig, a)


def check_formula(sig, phi):
    """Arity and symbol check against a signature; raises SignatureError."""
    if isinstance(phi, (Top, Bot)):
        return
    if isinstance(phi, Eq):
        check_term(sig, phi.left)
        check_term(sig, phi.right)
        return
    if isinstance(phi, Rel):
        arity = sig.rel_arity(phi.name)
        if arity != len(phi.args):
            raise SignatureError(f"{phi.name} expects {arity} arguments, got {len(phi.args)}")
        for t in phi.args:
            check_term(sig, t)
        return
    if isinstance(phi, (And, Or)):
        for p in phi.parts:
            check_formula(sig, p)
        return
    if isinstance(phi, Exists):
        check_formula(sig, phi.body)
        return
    raise TypeError(f"not a formula: {phi!r}")


EQUALITY_THEORY = Theory(EMPTY_SIGNATURE, (), "T_eq")

INCONSISTENT_THEORY = Theory(EMPTY_SIGNATURE, (Sequent((), TOP, BOT),), "T_bot")


# ---------------------------------------------------------------------------
# interpretations


@dataclass(frozen=True)
class Interpretation:
    """A translation of one theory into another.

    Each source relation symbol R/n maps to a target formula-in-context of
    length n, and each source function symbol f/n to a graph
    formula-in-context of length n+1 (arguments first, value last).
    Functionality and axiom preservation are semantic conditions checked
    against a model class (see models.check_interpretation).
    """

    source: Theory
    target: Theory
    rel_map: tuple = ()  # ordered (name, FormulaInContext) pairs
    fun_map: tuple = ()

    def __post_init__(self):
        rels = dict(self.rel_map)
        funs = dict(self.fun_map)
        for name, arity in self.source.signature.rels:
            img = rels.get(name)
            if img is None or len(img) != arity:
                raise InterpretationErrorFor(name, arity, img)
            check_formula(self.target.signature, img.formula)
        for name, arity in self.source.signature.funs:
            img = funs.get(name)
            if img is None or len(img) != arity + 1:
                raise InterpretationErrorFor(name, arity + 1, img)
            check_formula(self.target.signature, img.formula)

    def rel_image(self, name):
        return dict(self.rel_map)[name]

    def fun_image(self, name):
        return dict(self.fun_map)[name]

    def translate(self, phi):
        return translate_formula(self, phi)

    def translate_sequent(self, seq):
        return Sequent(seq.context, self.translate(seq.lhs), self.translate(seq.rhs))


def InterpretationErrorFor(name, want, img):
    got = "missing" if img is None else f"context length {len(img)}"
    return InterpretationError(f"image of {name} must have context length {want}, {got}")


def identity_interpretation(theory):
    rels = tuple(
        (n, fic([f"x{i}" for i in range(a)], Rel(n, tuple(Var(f"x{i}") for i in range(a)))))
        for n, a in theory.signature.rels
    )
    funs = tuple(
        (
            n,
            fic(
                [f"x{i}" for i in range(a + 1)],
                Eq(App(n, tuple(Var(f"x{i}") for i in range(a))), Var(f"x{a}")),
            ),
        )
        for n, a in theory.signature.funs
    )
    return Interpretation(theory, theory, rels, funs)


def initial_interpretation(theory):
    """The unique interpretation of the empty theory into any theory."""
    return Interpretation(EQUALITY_THEORY, theory, (), ())


def _fresh_var(taken):
    i = 0
    while f"z{i}" in taken:
        i += 1
    taken.add(f"z{i}")
    return f"z{i}"


def _term_graph(interp, t, value_var, taken):
    """A formula over the target stating value_var equals the value of t."""
    if isinstance(t, Var):
        return Eq(Var(t.name), Var(value_var))
    parts = []
    arg_vars = []
    for a in t.args:
        if isinstance(a, Var):
            arg_vars.append(a.name)
        else:
            v = _fresh_var(taken)
            arg_vars.append(v)
            parts.append((v, a))
    img = interp.fun_image(t.fn)
    names = list(arg_vars) + [value_var]
    body = substitute(img.formula, {c: Var(names[i]) for i, c in enumerate(img.context)})
    for v, a in reversed(parts):
        body = Exists(v, conj([_term_graph(interp, a, v, taken), body]))
    return body


def translate_formula(interp, phi):
    """Translate a source formula along the interpretation.

    Nested terms unfold into existentially quantified graph conditions, so
    the result is again geometric over the target signature.
    """
    if isinstance(phi, (Top, Bot)):
        return phi
    if isinstance(phi, And):
        return conj([translate_formula(interp, p) for p in phi.parts])
    if isinstance(phi, Or):
        return disj([translate_formula(interp, p) for p in phi.parts])
    if isinstance(phi, Exists):
        return Exists(phi.var, translate_formula(interp, phi.body))
    taken = set(free_vars(phi))
    if isinstance(phi, Eq):
        if isinstance(phi.left, Var) and isinstance(phi.right, Var):
            return Eq(phi.left, phi.right)
        v = _fresh_var(taken)
        left = _term_graph(interp, phi.left, v, taken)
        right = _term_graph(interp, phi.right, v, taken)
        return Exists(v, conj([left, right]))
    if isinstance(phi, Rel):
        img = interp.rel_image(phi.name)
        parts = []
        names = []
        for t in phi.args:
            if isinstance(t, Var):
                names.append(t.name)
            else:
                v = _fresh_var(taken)
                names.append(v)
                parts.append((v, t))
        body = substitute(img.formula, {c: Var(names[i]) for i, c in enumerate(img.context)})
        for v, t in reversed(parts):
            body = Exists(v, conj([_term_graph(interp, t, v, taken), body]))
        return body
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# printing


def term_to_str(t):
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.fn
    return f"{t.fn}({', '.join(term_to_str(a) for a in t.args)})"


def formula_to_str(phi, prec=0):
    """Printer matching the parser grammar: & binds tighter than \\/ and
    exists extends maximally to the right."""
    if isinstance(phi, Top):
        return "top"
    if isinstance(phi, Bot):
        return "bot"
    if isinstance(phi, Eq):
        return f"{term_to_str(phi.left)} = {term_to_str(phi.right)}"
    if isinstance(phi, Rel):
        if not phi.args:
            return phi.name
        return f"{phi.name}({', '.join(term_to_str(t) for t in phi.args)})"
    if isinstance(phi, And):
        s = " & ".join(formula_to_str(p, 2) for p in phi.parts)
        return f"({s})" if prec > 1 else s
    if isinstance(phi, Or):
        s = " \\/ ".join(formula_to_str(p, 1) for p in phi.parts)
        return f"({s})" if prec > 0 else s
    if isinstance(phi, Exists):
        s = f"exists {phi.var}. {formula_to_str(phi.body, 0)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a formula: {phi!r}")


def theory_to_str(theory):
    lines = []
    for n, a in theory.signature.rels:
        lines.append(f"rel {n}/{a}")
    for n, a in theory.signature.funs:
        lines.append(f"fun {n}/{a}")
    for ax in theory.axioms:
        lines.append(f"axiom {ax}")
    return "\n".join(lines) + ("\n" if lines else "")
