"""Formula core: canonicalization, substitution, parsing, printing."""

import random

import pytest

from modform.errors import ParseError, SignatureError
from modform.logic import (
    And,
    App,
    BOT,
    Eq,
    Exists,
    FormulaInContext,
    Interpretation,
    Or,
    Rel,
    Signature,
    TOP,
    Var,
    conj,
    disj,
    fic,
    formula_to_str,
    free_vars,
    identity_interpretation,
    substitute,
    theory_to_str,
)
from modform.parser import parse_theory


def test_canonical_renaming():
    f = fic(["y"], Exists("z", Eq(Var("y"), Var("z"))))
    assert f.context == ("x0",)
    assert f.formula == Exists("x1", Eq(Var("x0"), Var("x1")))


def test_canonical_fixpoint():
    f = fic(["x0"], TOP)
    assert FormulaInContext(f.context, f.formula) == f


def test_canonical_idempotent_and_alpha_invariant():
    rng = random.Random(7)
    base = fic(
        ["u", "v"],
        Exists("w", And((Rel("E", (Var("u"), Var("w"))), Exists("t", Eq(Var("t"), Var("v")))))),
    )
    for _ in range(40):
        names = [f"n{rng.randrange(1000)}" for _ in range(4)]
        if len(set(names)) < 4:
            continue
        u, v, w, t = names
        variant = fic(
            [u, v],
            Exists(w, And((Rel("E", (Var(u), Var(w))), Exists(t, Eq(Var(t), Var(v)))))),
        )
        assert variant == base
        assert FormulaInContext(variant.context, variant.formula) == variant


def test_alpha_variants_of_nested_exists():
    a = fic([], Exists("y", Exists("z", Rel("E", (Var("y"), Var("z"))))))
    b = fic([], Exists("p", Exists("q", Rel("E", (Var("p"), Var("q"))))))
    assert a == b


def test_context_must_cover_free_variables():
    with pytest.raises(SignatureError):
        fic(["x"], Eq(Var("x"), Var("y")))
    with pytest.raises(SignatureError):
        fic(["x", "x"], TOP)


def test_substitute_simple():
    phi = Eq(Var("x"), Var("y"))
    out = substitute(phi, {"x": App("c", ()), "y": App("c", ())})
    assert out == Eq(App("c", ()), App("c", ()))


def test_substitute_top_no_free():
    assert substitute(TOP, {}) == TOP


def test_substitute_capture_avoiding():
    # (exists y. E(x,y))[x := y] must not capture the substituted y
    phi = Exists("y", Rel("E", (Var("x"), Var("y"))))
    out = substitute(phi, {"x": Var("y")})
    assert free_vars(out) == {"y"}
    assert isinstance(out, Exists)
    assert out.var != "y"


def test_substitute_requires_coverage():
    with pytest.raises(SignatureError):
        substitute(Eq(Var("x"), Var("y")), {"x": Var("z")})


def test_substitute_commutes_with_canonical():
    phi = Exists("w", And((Eq(Var("w"), Var("a")), Eq(Var("b"), Var("b")))))
    sub = {"a": Var("b"), "b": Var("b")}
    left = fic(["b"], substitute(phi, sub))
    right_formula = substitute(fic(["a", "b"], phi).formula, {"x0": Var("x1"), "x1": Var("x1")})
    right = fic(["x1"], right_formula)
    assert left == right


def test_empty_disjunction_is_bot():
    assert disj([]) == BOT
    assert conj([]) == TOP
    assert disj([TOP]) == TOP
    assert conj([And((TOP, BOT)), TOP]) == And((TOP, BOT, TOP))


def test_parse_simple_axiom():
    t = parse_theory("rel P/1\naxiom P(x) |- [x] bot")
    assert t.signature.rels == (("P", 1),)
    (ax,) = t.axioms
    assert ax.context == ("x0",)
    assert ax.lhs == Rel("P", (Var("x0"),))
    assert ax.rhs == BOT


def test_parse_empty_theory():
    t = parse_theory("")
    assert t.signature.rels == () and t.signature.funs == ()
    assert t.axioms == ()


def test_parse_print_round_trip():
    text = "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"
    t = parse_theory(text)
    assert theory_to_str(parse_theory(theory_to_str(t))) == theory_to_str(t)


def test_parse_print_round_trip_rich():
    text = (
        "rel P/1\nrel E/2\nfun f/1\nfun c/0\n"
        "axiom P(x) \\/ E(x,x) |- [x] exists y. E(x,y) & P(y)\n"
        "axiom f(c) = c |- [] top\n"
    )
    t = parse_theory(text)
    assert theory_to_str(parse_theory(theory_to_str(t))) == theory_to_str(t)


def test_parse_precedence():
    t = parse_theory("rel P/1\nrel Q/1\naxiom P(x) & Q(x) \\/ P(x) |- [x] top")
    (ax,) = t.axioms
    assert isinstance(ax.lhs, Or)
    assert isinstance(ax.lhs.parts[0], And)


def test_parse_exists_max_munch():
    t = parse_theory("rel P/1\naxiom top |- [x] exists y. P(y) & P(x)")
    (ax,) = t.axioms
    assert isinstance(ax.rhs, Exists)
    assert isinstance(ax.rhs.body, And)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_theory("rel P/1\naxiom P(x,y) |- [x] top")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_theory("rel P/1\naxiom P(y) |- [x] top")
    assert "unbound" in str(e.value)

    with pytest.raises(ParseError) as e:
        parse_theory("rel P/1\nrel P/2")
    assert "duplicate" in str(e.value)

    with pytest.raises(ParseError):
        parse_theory("axiom top |- [x] ???")


def test_constants_vs_variables():
    t = parse_theory("fun c/0\nrel P/1\naxiom P(c) |- [] P(c)")
    (ax,) = t.axioms
    assert ax.lhs == Rel("P", (App("c", ()),))
    t2 = parse_theory("rel P/1\naxiom P(c) |- [c] P(c)")
    assert t2.axioms[0].lhs == Rel("P", (Var("x0"),))


def test_signature_validation():
    with pytest.raises(SignatureError):
        Signature((("P", 1), ("P", 2)), ())
    with pytest.raises(SignatureError):
        Signature((("P", -1),), ())


def test_signature_lookups():
    sig = Signature((("E", 2), ("P", 1)), (("c", 0), ("f", 1)))
    assert [sig.rel_arity(n) for n in ("E", "P")] == [2, 1]
    assert [sig.fun_arity(n) for n in ("c", "f")] == [0, 1]
    assert sig.has_rel("E") and not sig.has_rel("f")
    assert sig.has_fun("f") and not sig.has_fun("E")
    with pytest.raises(SignatureError, match="unknown relation symbol f"):
        sig.rel_arity("f")
    with pytest.raises(SignatureError, match="unknown function symbol P"):
        sig.fun_arity("P")
    # equality, hashing and the printed form stay on the declared pairs
    same = Signature.make({"P": 1, "E": 2}, {"f": 1, "c": 0})
    assert same == sig and hash(same) == hash(sig) == hash((sig.rels, sig.funs))
    assert repr(sig) == f"Signature(rels={sig.rels!r}, funs={sig.funs!r})"
    assert Signature((("P", 1),)) != Signature((("P", 2),))


def test_interpretation_shape_validation():
    src = parse_theory("rel P/2")
    tgt = parse_theory("rel E/2")
    with pytest.raises(Exception):
        Interpretation(src, tgt, (("P", fic(["x"], TOP)),), ())


def test_translate_relation_and_terms():
    src = parse_theory("fun f/1\nrel P/1")
    tgt = parse_theory("rel G/2\nrel Q/1")
    F = Interpretation(
        src,
        tgt,
        (("P", fic(["x"], Rel("Q", (Var("x"),)))),),
        (("f", fic(["x", "y"], Rel("G", (Var("x"), Var("y"))))),),
    )
    out = F.translate(Rel("P", (App("f", (Var("x"),)),)))
    got = fic(["x"], out)
    # P(f(x)) becomes: exists v. (G(x,v) & Q(v))
    want = fic(["x"], Exists("v", And((Rel("G", (Var("x"), Var("v"))), Rel("Q", (Var("v"),))))))
    assert got == want


def test_translate_equation_of_terms():
    src = parse_theory("fun f/1")
    tgt = parse_theory("rel G/2")
    F = Interpretation(src, tgt, (), (("f", fic(["x", "y"], Rel("G", (Var("x"), Var("y"))))),))
    out = fic(["x", "y"], F.translate(Eq(App("f", (Var("x"),)), App("f", (Var("y"),)))))
    want = fic(
        ["x", "y"],
        Exists(
            "v",
            And((Rel("G", (Var("x"), Var("v"))), Rel("G", (Var("y"), Var("v"))))),
        ),
    )
    assert out == want


def test_identity_interpretation_translates_to_itself():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    F = identity_interpretation(t)
    phi = Exists("z", Rel("E", (Var("x"), Var("z"))))
    assert fic(["x"], F.translate(phi)) == fic(["x"], phi)


def test_formula_printer_parens():
    phi = Or((And((TOP, BOT)), Exists("x", TOP)))
    assert formula_to_str(phi) == "top & bot \\/ (exists x. top)"
