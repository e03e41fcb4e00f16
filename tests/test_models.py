"""Indexed structures: enumeration, evaluation, isomorphisms, star lemma.

Expected values come from independent oracles implemented here: a
brute-force partition counter, a separate formula evaluator, and a
permutation filter, none of which share code with the module under test.
"""

import itertools
import random

import pytest

from modform.errors import HeadroomError, InterpretationError, LimitExceeded
from modform.logic import (
    And,
    App,
    BOT,
    EQUALITY_THEORY,
    Eq,
    Exists,
    INCONSISTENT_THEORY,
    Interpretation,
    Or,
    Rel,
    Signature,
    TOP,
    Theory,
    Var,
    conj,
    fic,
    sequent,
)
from modform.models import (
    IndexSet,
    IndexedStructure,
    _search_models,
    build_model_class,
    enumerate_isomorphisms,
    enumerate_structures,
    eval_formula,
    is_model,
    model_class,
    reduct,
    star_headroom,
    star_lemma,
)
from modform.parser import parse_theory


# ---------------------------------------------------------------------------
# oracles


def oracle_partitions(elements):
    """All set partitions by brute force over labelings."""
    elements = list(elements)
    if not elements:
        return [frozenset()]
    seen = set()
    for labels in itertools.product(range(len(elements)), repeat=len(elements)):
        blocks = {}
        for e, lab in zip(elements, labels):
            blocks.setdefault(lab, []).append(e)
        seen.add(frozenset(frozenset(b) for b in blocks.values()))
    return sorted(seen, key=lambda p: sorted(sorted(b) for b in p))


def oracle_structure_count(n_rels_arities, S_size):
    total = 0
    base = list(range(S_size))
    for r in range(S_size + 1):
        for subset in itertools.combinations(base, r):
            for part in oracle_partitions(subset):
                cnt = 1
                for arity in n_rels_arities:
                    cnt *= 2 ** (len(part) ** arity)
                total += cnt
    return total


def oracle_satisfies(M, phi, env):
    """An independent recursive evaluator."""
    if isinstance(phi, type(TOP)):
        return True
    if isinstance(phi, type(BOT)):
        return False
    if isinstance(phi, Eq):
        return oracle_term(M, phi.left, env) == oracle_term(M, phi.right, env)
    if isinstance(phi, Rel):
        return tuple(oracle_term(M, t, env) for t in phi.args) in M.rel(phi.name)
    if isinstance(phi, And):
        for p in phi.parts:
            if not oracle_satisfies(M, p, env):
                return False
        return True
    if isinstance(phi, Or):
        for p in phi.parts:
            if oracle_satisfies(M, p, env):
                return True
        return False
    if isinstance(phi, Exists):
        return any(oracle_satisfies(M, phi.body, {**env, phi.var: key}) for key in M.keys)
    raise TypeError(phi)


def oracle_term(M, t, env):
    if isinstance(t, Var):
        return env[t.name]
    return M.fun(t.fn)[tuple(oracle_term(M, a, env) for a in t.args)]


def oracle_ext(M, f):
    out = set()
    for assign in itertools.product(M.keys, repeat=len(f.context)):
        if oracle_satisfies(M, f.formula, dict(zip(f.context, assign))):
            out.add(assign)
    return out


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_empty_signature_counts():
    from modform.logic import EMPTY_SIGNATURE

    assert len(enumerate_structures(EMPTY_SIGNATURE, IndexSet(2))) == oracle_structure_count([], 2) == 5
    assert len(enumerate_structures(EMPTY_SIGNATURE, IndexSet(1))) == oracle_structure_count([], 1) == 2
    assert len(enumerate_structures(EMPTY_SIGNATURE, IndexSet(3))) == oracle_structure_count([], 3)


def test_enumerate_unary_relation():
    sig = parse_theory("rel P/1").signature
    structs = enumerate_structures(sig, IndexSet(1))
    assert len(structs) == oracle_structure_count([1], 1) == 3
    dumps = [M.dumps() for M in structs]
    assert len(set(dumps)) == 3  # duplicate-free


def test_enumeration_deterministic_and_complete():
    sig = parse_theory("rel P/1").signature
    a = [M.dumps() for M in enumerate_structures(sig, IndexSet(2))]
    b = [M.dumps() for M in enumerate_structures(sig, IndexSet(2))]
    assert a == b
    assert len(a) == oracle_structure_count([1], 2)


def test_enumeration_limit():
    sig = parse_theory("rel R/2").signature
    with pytest.raises(LimitExceeded):
        enumerate_structures(sig, IndexSet(3), limit=10)


def test_constants_forbid_empty_carrier():
    sig = parse_theory("fun c/0").signature
    structs = enumerate_structures(sig, IndexSet(1))
    assert all(M.domain for M in structs)


# ---------------------------------------------------------------------------
# evaluation


def E_structure():
    return IndexedStructure([0, 1], [(0,), (1,)], {"E": {(0, 1), (1, 0)}})


def test_eval_top_bot():
    M = E_structure()
    assert eval_formula(M, fic(["x"], TOP)) == {(0,), (1,)}
    assert eval_formula(M, fic([], BOT)) == set()
    assert eval_formula(M, fic([], TOP)) == {()}


def test_eval_exists_matches_oracle():
    M = E_structure()
    f = fic(["x"], Exists("y", Rel("E", (Var("x"), Var("y")))))
    assert eval_formula(M, f) == oracle_ext(M, f) == {(0,), (1,)}


def test_eval_random_formulas_match_oracle():
    M = IndexedStructure([0, 1, 2], [(0, 2), (1,)], {"E": {(0, 1)}})
    formulas = [
        fic(["x", "y"], Or((Eq(Var("x"), Var("y")), Rel("E", (Var("x"), Var("y")))))),
        fic(["x"], Exists("y", And((Rel("E", (Var("x"), Var("y"))), TOP)))),
        fic([], Exists("x", Exists("y", Rel("E", (Var("x"), Var("y")))))),
        fic(["x"], Exists("y", Eq(Var("x"), Var("y")))),
    ]
    for f in formulas:
        assert eval_formula(M, f) == oracle_ext(M, f)


def test_eval_with_function_symbols():
    M = IndexedStructure([0, 1], [(0,), (1,)], {}, {"f": {(0,): 1, (1,): 0}})
    f = fic(["x"], Eq(App("f", (App("f", (Var("x"),)),)), Var("x")))
    assert eval_formula(M, f) == {(0,), (1,)}


# ---------------------------------------------------------------------------
# satisfaction


def test_empty_structure_vacuous():
    M = IndexedStructure([], [])
    t = parse_theory("rel P/1\naxiom top |- [x] P(x)")
    assert is_model(M, t)


def test_nonempty_fails_forced_predicate():
    t = parse_theory("rel P/1\naxiom top |- [x] P(x)")
    M = IndexedStructure([0], [(0,)], {"P": set()})
    assert not is_model(M, t)
    M2 = IndexedStructure([0], [(0,)], {"P": {(0,)}})
    assert is_model(M2, t)


def test_symmetry_axiom_detects_asymmetric():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    M = IndexedStructure([0, 1], [(0,), (1,)], {"E": {(0, 1)}})
    assert not is_model(M, t)
    assert is_model(E_structure(), t)


def test_inconsistent_theory_empty_context():
    # the extension of top over the terminal is {()}, even on the empty carrier
    M = IndexedStructure([], [])
    assert not is_model(M, INCONSISTENT_THEORY)


# ---------------------------------------------------------------------------
# isomorphisms


def oracle_isos(M, N):
    out = []
    if len(M.keys) != len(N.keys):
        return out
    for perm in itertools.permutations(N.keys):
        sigma = dict(zip(M.keys, perm))
        ok = True
        for name in set(M.rels) | set(N.rels):
            if {tuple(sigma[k] for k in t) for t in M.rel(name)} != set(N.rel(name)):
                ok = False
        for name in set(M.funs) | set(N.funs):
            for args, val in M.fun(name).items():
                if N.fun(name)[tuple(sigma[k] for k in args)] != sigma[val]:
                    ok = False
        if ok:
            out.append(sigma)
    return out


def test_isos_empty_structures():
    M = IndexedStructure([], [])
    isos = enumerate_isomorphisms(M, M)
    assert len(isos) == 1 and isos[0].mapping == {}


def test_isos_two_blocks():
    M = IndexedStructure([0, 1], [(0,), (1,)])
    assert len(enumerate_isomorphisms(M, M)) == len(oracle_isos(M, M)) == 2


def test_isos_singletons():
    M = IndexedStructure([0], [(0,)])
    N = IndexedStructure([0, 1], [(0, 1)])
    assert len(enumerate_isomorphisms(M, N)) == 1


def test_isos_preserve_and_reflect():
    t = parse_theory("rel E/2")
    M = E_structure()
    N = IndexedStructure([0, 1], [(0,), (1,)], {"E": {(0, 0)}})
    assert enumerate_isomorphisms(M, N) == []


# ---------------------------------------------------------------------------
# model classes


def test_equality_theory_class_counts():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    assert len(mc.models) == 5
    # 1 empty + 9 between the three one-block models + 2 automorphisms of the
    # two-block model
    assert len(mc.isos) == 12


def test_inconsistent_theory_has_no_models():
    mc = build_model_class(INCONSISTENT_THEORY, IndexSet(2))
    assert mc.models == []


def test_forced_predicate_theory_at_one_index():
    t = parse_theory("rel P/1\naxiom top |- [x] P(x)")
    mc = build_model_class(t, IndexSet(1))
    assert len(mc.models) == 2


def test_class_closure_invariants():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    for i in range(len(mc.models)):
        assert mc.identity_of[i] is not None
    for j in range(len(mc.isos)):
        assert mc.iso_dom[mc.inverse_of[j]] == mc.iso_cod[j]
    # one composite for each arrow f composable with g
    for g, row in enumerate(mc.composites):
        assert len(row) == sum(1 for f in range(len(mc.isos)) if mc.iso_dom[g] == mc.iso_cod[f])


def test_pruned_search_equals_naive_filter():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = build_model_class(t, IndexSet(2))
    naive = [M for M in enumerate_structures(t.signature, IndexSet(2)) if is_model(M, t)]
    assert [M._key for M in mc.models] == [M._key for M in naive]


def random_theory(rng):
    """Up to three relations of arity <= 2 and a few random Horn or
    existential axioms, sometimes with a defining axiom pair or one half of
    it, so the search's definition shortcut is exercised too."""
    rels = [(f"R{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 3))]

    def atom(ctx):
        if rng.random() < 0.2:
            return Eq(Var(rng.choice(ctx)), Var(rng.choice(ctx)))
        name, arity = rng.choice(rels)
        return Rel(name, tuple(Var(rng.choice(ctx)) for _ in range(arity)))

    axioms = []
    for _ in range(rng.randint(1, 3)):
        ctx = ["x", "y"][: rng.randint(1, 2)]
        lhs = conj([atom(ctx) for _ in range(rng.randint(1, 2))])
        if rng.random() < 0.5:
            rhs = atom(ctx)
        else:
            rhs = Exists("z", atom(ctx + ["z"]))
        axioms.append(sequent(ctx, lhs, rhs))
    (last, arity), first = rels[-1], rels[0][0]
    if len(rels) > 1 and arity > 0 and rng.random() < 0.6:
        # a defining pair, or only one half of it, which defines nothing
        ctx = [f"x{i}" for i in range(arity)]
        head = Rel(last, tuple(Var(v) for v in ctx))
        body = Rel(first, tuple(Var(rng.choice(ctx)) for _ in range(rels[0][1])))
        pair = [sequent(ctx, head, body), sequent(ctx, body, head)]
        axioms += rng.sample(pair, rng.randint(1, 2))
    return Theory(Signature.make(rels=tuple(rels)), tuple(axioms))


@pytest.mark.parametrize("seed", range(40))
def test_pruned_search_equals_naive_filter_on_random_theories(seed):
    t = random_theory(random.Random(seed))
    for n in (1, 2):
        S = IndexSet(n)
        pruned = list(_search_models(t, S, None, [0]))
        naive = [M for M in enumerate_structures(t.signature, S) if is_model(M, t)]
        assert [M._key for M in pruned] == [M._key for M in naive], (seed, n)


def test_axioms_are_entailed():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    for ax in t.axioms:
        assert mc.entails(ax)


def test_entails_examples():
    mc = model_class(EQUALITY_THEORY, IndexSet(2))
    assert mc.entails(sequent(["x"], TOP, TOP))
    assert not mc.entails(sequent(["x"], TOP, BOT))
    assert mc.entails(sequent(["x", "y"], Eq(Var("x"), Var("y")), TOP))


# ---------------------------------------------------------------------------
# reducts


def test_reduct_identity():
    from modform.logic import identity_interpretation

    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    M = E_structure()
    assert reduct(M, identity_interpretation(t)) == M


def test_reduct_formula_image():
    src = parse_theory("rel P/1")
    tgt = parse_theory("rel E/2")
    F = Interpretation(
        src, tgt, (("P", fic(["x"], Exists("y", Rel("E", (Var("x"), Var("y")))))),), ()
    )
    out = reduct(E_structure(), F)
    assert out.rel("P") == {(0,), (1,)}
    assert out.domain == (0, 1) and out.blocks == ((0,), (1,))


def test_reduct_to_empty_signature():
    from modform.logic import initial_interpretation

    t = parse_theory("rel E/2")
    out = reduct(E_structure(), initial_interpretation(t))
    assert out.rels == {} and out.domain == (0, 1)


def test_reduct_rejects_non_functional():
    src = parse_theory("fun f/0")
    tgt = parse_theory("rel E/2")
    F = Interpretation(src, tgt, (), (("f", fic(["y"], TOP)),))
    with pytest.raises(InterpretationError):
        reduct(E_structure(), F)  # every block qualifies, not single-valued


# ---------------------------------------------------------------------------
# star lemma


def test_star_moves_single_index():
    S = IndexSet(2)
    M0 = IndexedStructure([0], [(0,)])
    N, f = star_lemma(M0, (0,), (1,), S)
    assert N == IndexedStructure([0, 1], [(0, 1)])
    assert f.apply(0) == 0  # the block of 1 in N is keyed by 0
    assert f.apply(M0.block_key(0)) == N.block_key(1)


def test_star_identity_like():
    S = IndexSet(2)
    M = IndexedStructure([0, 1], [(0,), (1,)])
    N, f = star_lemma(M, (0, 1), (0, 1), S)
    assert N == M
    for a in (0, 1):
        assert f.apply(M.block_key(a)) == N.block_key(a)


def test_star_swap():
    S = IndexSet(2)
    M = IndexedStructure([0, 1], [(0,), (1,)])
    N, f = star_lemma(M, (0, 1), (1, 0), S)
    assert N == M
    assert f.mapping == {0: 1, 1: 0}


def test_star_output_is_listed_isomorphism():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    for mi, M in enumerate(mc.models):
        for a in itertools.product(M.domain, repeat=1):
            for b in itertools.permutations(range(2), 1):
                if not star_headroom(M, a, b, mc.S):
                    continue
                ni, fi = mc.star(mi, a, b)
                f = mc.isos[fi]
                assert any(
                    g.mapping == f.mapping for g in enumerate_isomorphisms(M, mc.models[ni])
                )
                for x, y in zip(a, b):
                    assert f.apply(M.block_key(x)) == mc.models[ni].block_key(y)


def test_star_headroom_violations():
    S = IndexSet(2)
    Mempty = IndexedStructure([], [])
    assert not star_headroom(Mempty, (), (), S)
    with pytest.raises(HeadroomError):
        star_lemma(Mempty, (), (), S)
    M01 = IndexedStructure([0, 1], [(0,), (1,)])
    # sending both marks into one block leaves no index for the other block
    assert not star_headroom(M01, (0, 0), (0, 1), S)


def test_star_carrier_is_all_of_S():
    S = IndexSet(3)
    M = IndexedStructure([0, 1], [(0,), (1,)])
    N, f = star_lemma(M, (0,), (2,), S)
    assert N.domain == (0, 1, 2)
    assert f.apply(M.block_key(0)) == N.block_key(2)


# ---------------------------------------------------------------------------
# formula invariance


def test_extensions_transported_by_isomorphisms():
    t = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)")
    mc = model_class(t, IndexSet(2))
    f = fic(["x"], Exists("y", Rel("E", (Var("x"), Var("y")))))
    for j, iso in enumerate(mc.isos):
        src = mc.ext(mc.iso_dom[j], f)
        dst = mc.ext(mc.iso_cod[j], f)
        assert {iso.apply_tuple(tq) for tq in src} == set(dst)


def test_reduct_preserves_translated_satisfaction():
    src = parse_theory("rel P/1\naxiom P(x) |- [x] P(x)")
    tgt = parse_theory("rel E/2")
    F = Interpretation(
        src, tgt, (("P", fic(["x"], Exists("y", Rel("E", (Var("x"), Var("y")))))),), ()
    )
    mc = model_class(tgt, IndexSet(2))
    probe = sequent(["x"], Rel("P", (Var("x"),)), Exists("y", Rel("P", (Var("y"),))))
    translated = F.translate_sequent(probe)
    from modform.models import holds

    for M in mc.models:
        assert holds(M, translated) == holds(reduct(M, F), probe)


def test_json_serialization_is_byte_stable():
    M = IndexedStructure([0, 1], [(0,), (1,)], {"E": {(1, 0), (0, 1)}})
    assert M.dumps() == M.dumps()
    assert '"rels":{"E":[[0,1],[1,0]]}' in M.dumps()
