"""Line-oriented parser for the theory text format.

Grammar (one directive per line, `#` starts a comment):

    rel NAME/ARITY
    fun NAME/ARITY
    axiom PHI |- [x,y,...] PSI

Formulas:

    top | bot | t1 = t2 | R(t,...) | PHI & PSI | PHI \\/ PSI
    | exists x. PHI | ( PHI )

`&` binds tighter than `\\/`; `exists` extends as far right as possible.
Declared 0-ary function symbols parse as constants, any other bare name is
a variable.  Declarations must precede use.
"""

from __future__ import annotations

import re

from .errors import ParseError, SignatureError
from .logic import (
    App,
    BOT,
    Eq,
    FormulaInContext,
    Rel,
    Sequent,
    Signature,
    Theory,
    TOP,
    Var,
    conj,
    disj,
    Exists,
    free_vars,
)

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#.*)
      | (?P<turnstile>\|-)
      | (?P<or>\\/)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<int>\d+)
      | (?P<sym>[()\[\],=&./])
    """,
    re.VERBOSE,
)


def _tokenize(line, lineno):
    pos = 0
    out = []
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if not m:
            raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            out.append((kind, m.group(), lineno, pos + 1))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.i = 0
        self.lineno = lineno

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, None, self.lineno, self.tokens[-1][3] + 1 if self.tokens else 1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, line, col = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, got {text!r}", line, col)
        return text

    def at(self, value):
        return self.peek()[1] == value

    def done(self):
        return self.i >= len(self.tokens)


_KEYWORDS = {"rel", "fun", "axiom", "top", "bot", "exists"}


class _FormulaParser:
    def __init__(self, sig):
        self.sig = sig

    def formula(self, cur):
        parts = [self.conjunct(cur)]
        while cur.at("\\/"):
            cur.next()
            parts.append(self.conjunct(cur))
        return disj(parts)

    def conjunct(self, cur):
        parts = [self.atom(cur)]
        while cur.at("&"):
            cur.next()
            parts.append(self.atom(cur))
        return conj(parts)

    def atom(self, cur):
        kind, text, line, col = cur.peek()
        if text == "(":
            cur.next()
            phi = self.formula(cur)
            cur.expect(")")
            return phi
        if text == "top":
            cur.next()
            return TOP
        if text == "bot":
            cur.next()
            return BOT
        if text == "exists":
            cur.next()
            vkind, vname, vline, vcol = cur.next()
            if vkind != "name" or vname in _KEYWORDS:
                raise ParseError(f"expected variable after exists, got {vname!r}", vline, vcol)
            cur.expect(".")
            body = self.formula(cur)
            return Exists(vname, body)
        # a term-led atom: R(...), t = t', or a nullary relation symbol
        t, was_rel = self.term_or_rel(cur)
        if was_rel is not None:
            return was_rel
        if cur.at("="):
            cur.next()
            t2 = self.term(cur)
            return Eq(t, t2)
        kind, text, line, col = cur.peek()
        raise ParseError(f"expected '=' after term, got {text!r}", line, col)

    def term_or_rel(self, cur):
        """Parse a term, or a full relational atom when the head name is a
        declared relation symbol."""
        kind, text, line, col = cur.next()
        if kind != "name" or text in _KEYWORDS:
            raise ParseError(f"expected term, got {text!r}", line, col)
        if self.sig.has_rel(text):
            arity = self.sig.rel_arity(text)
            args = ()
            if cur.at("("):
                args = self.term_list(cur)
            if len(args) != arity:
                raise ParseError(f"{text} expects {arity} arguments, got {len(args)}", line, col)
            return None, Rel(text, args)
        if self.sig.has_fun(text):
            arity = self.sig.fun_arity(text)
            args = ()
            if cur.at("("):
                args = self.term_list(cur)
            if len(args) != arity:
                raise ParseError(f"{text} expects {arity} arguments, got {len(args)}", line, col)
            return App(text, args), None
        if cur.at("("):
            raise ParseError(f"undeclared symbol {text!r}", line, col)
        return Var(text), None

    def term(self, cur):
        t, rel = self.term_or_rel(cur)
        if rel is not None:
            raise ParseError(f"relation symbol {rel.name} used as a term", *cur.peek()[2:])
        return t

    def term_list(self, cur):
        cur.expect("(")
        args = []
        if not cur.at(")"):
            args.append(self.term(cur))
            while cur.at(","):
                cur.next()
                args.append(self.term(cur))
        cur.expect(")")
        return tuple(args)


def parse_theory(text, name=""):
    """Parse a theory file; all axiom formulas come out alpha-canonical."""
    rels = []
    funs = []
    seen = set()
    axioms = []
    sig = Signature.make()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        kind, head, line, col = cur.next()
        if head == "rel" or head == "fun":
            nkind, nname, nline, ncol = cur.next()
            if nkind != "name" or nname in _KEYWORDS:
                raise ParseError(f"expected symbol name, got {nname!r}", nline, ncol)
            cur.expect("/")
            akind, atext, aline, acol = cur.next()
            if akind != "int":
                raise ParseError(f"expected arity, got {atext!r}", aline, acol)
            if nname in seen:
                raise ParseError(f"duplicate symbol declaration {nname!r}", nline, ncol)
            seen.add(nname)
            (rels if head == "rel" else funs).append((nname, int(atext)))
            sig = Signature(tuple(rels), tuple(funs))
            if not cur.done():
                raise ParseError(f"trailing input {cur.peek()[1]!r}", *cur.peek()[2:])
        elif head == "axiom":
            fp = _FormulaParser(sig)
            lhs = fp.formula(cur)
            kind, text2, line2, col2 = cur.next()
            if text2 != "|-":
                raise ParseError(f"expected '|-', got {text2!r}", line2, col2)
            cur.expect("[")
            ctx = []
            if not cur.at("]"):
                while True:
                    vkind, vname, vline, vcol = cur.next()
                    if vkind != "name" or vname in _KEYWORDS:
                        raise ParseError(f"expected context variable, got {vname!r}", vline, vcol)
                    if vname in ctx:
                        raise ParseError(f"repeated context variable {vname!r}", vline, vcol)
                    ctx.append(vname)
                    if cur.at(","):
                        cur.next()
                        continue
                    break
            cur.expect("]")
            rhs = fp.formula(cur)
            if not cur.done():
                raise ParseError(f"trailing input {cur.peek()[1]!r}", *cur.peek()[2:])
            for phi, side in ((lhs, "antecedent"), (rhs, "succedent")):
                loose = free_vars(phi) - set(ctx)
                if loose:
                    raise ParseError(
                        f"unbound variable {sorted(loose)[0]!r} in {side}", line, col
                    )
            try:
                axioms.append(Sequent(tuple(ctx), lhs, rhs))
            except SignatureError as e:
                raise ParseError(str(e), line, col)
        else:
            raise ParseError(f"expected rel, fun or axiom, got {head!r}", line, col)
    return Theory(Signature(tuple(rels), tuple(funs)), tuple(axioms), name)


def parse_formula_in_context(text, sig):
    """Parse `[x,y,...] PHI` against a given signature."""
    tokens = _tokenize(text, 1)
    cur = _Cursor(tokens, 1)
    cur.expect("[")
    ctx = []
    if not cur.at("]"):
        while True:
            vkind, vname, vline, vcol = cur.next()
            if vkind != "name" or vname in _KEYWORDS:
                raise ParseError(f"expected context variable, got {vname!r}", vline, vcol)
            ctx.append(vname)
            if cur.at(","):
                cur.next()
                continue
            break
    cur.expect("]")
    phi = _FormulaParser(sig).formula(cur)
    if not cur.done():
        raise ParseError(f"trailing input {cur.peek()[1]!r}", *cur.peek()[2:])
    loose = free_vars(phi) - set(ctx)
    if loose:
        raise ParseError(f"unbound variable {sorted(loose)[0]!r}")
    return FormulaInContext(tuple(ctx), phi)

