"""Named verification suites over a theory at a fixed index size.

Each suite returns a dict with at least a `status` key: "pass" when every
instance verified, "gated" when the only shortfalls are index-headroom
truncations (reported, never counted as refutations), "fail" otherwise.
check_sites returns the density and subobject suites (SITE_SUITES) from one
walk; its graders check_density and check_gun_subobjects each grade one site
object.
"""

from __future__ import annotations

import itertools

from .duality import enumerate_stable_arrow_sets
from .errors import InvariantError
from .groupoid import OpennessPlan, build_model_groupoid, pair_defects
from .logic import TOP, Eq, Sequent, Var, fic
from .models import ModelClass, star_headroom, star_lemma, star_surjection
from .search import FormulaSearch
from .sheaves import (
    conjunction_with_exists,
    definable_sheaf,
    density_certificate,
    lift_shortfall,
    moerdijk_sheaf,
    stable_opens_of_site,
    symmetric_lift,
)
from .topology import (
    BasicOpenI,
    BasicOpenM,
    arrow_space,
    basic_open_points,
    closure_lattice,
    mask,
    model_space,
    sobriety_report,
)


def _status(failures, gates):
    if failures:
        return "fail"
    if gates:
        return "gated"
    return "pass"


# ---------------------------------------------------------------------------
# groupoid algebra and continuity


def check_groupoid_axioms(mc: ModelClass):
    g = build_model_groupoid(mc)
    violations = g.check_algebra()
    continuity = g.check_continuity()
    bad_continuity = [name for name, ok in continuity.items() if not ok]
    return {
        "status": _status(violations + bad_continuity, []),
        "objects": g.objects.size,
        "arrows": g.arrows.size,
        "violations": violations,
        "continuity": continuity,
    }


def check_preimage_identities(mc: ModelClass):
    """i⁻¹<a->b> = <b->a>, e⁻¹<a->b> = <[x,y|x=y], (a, b)> and m⁻¹<a->b> =
    ∪_c <c->b> x <a->c> on the composable pairs, for all a, b in S at once,
    from the masks held[f] with bit a·n+b set when f ∈ mc.preserving(a, b),
    as a fresh arrow_space(mc) reads them.

    A composable pair (h, f) is on the left of the m identity when held[h∘f]
    has bit (a, b), and on the right when h ∈ <c->b> and f ∈ <a->c> for some
    c, that is when held[h] ∘ held[f] has it.  So the sides are equal exactly
    when no composable pair differs at bit (a, b), bit a·n+b of pair_defects'
    m_bad, whatever the stored composites, well typed or not: neither side
    reads their endpoints.  Likewise for i (i_bad), and e reads held[e(x)].
    structure_map_preimages builds both sides of one (a, b), the reference.
    Rows that do not cover the composable pairs raise InvariantError."""
    g = build_model_groupoid(mc)
    if not g.covers:
        raise InvariantError(_uncovered_row(g))
    n, held = mc.S.size, arrow_space(mc).held
    i_bad, m_bad = pair_defects(g, held, n)
    diagonal = fic(["x", "y"], Eq(Var("x"), Var("y")))
    results = []
    for a, b in itertools.product(mc.S.elements(), repeat=2):
        k = a * n + b
        e_expect = basic_open_points(mc, BasicOpenM(diagonal, (a, b)))
        e_ok = all((held[g.e[x]] >> k & 1) == (x in e_expect) for x in range(g.objects.size))
        results.append(((a, b), {"i": not i_bad >> k & 1, "e": e_ok, "m": not m_bad >> k & 1}))
    failures = [(ab, oks) for ab, oks in results if not all(oks.values())]
    return {"status": _status(failures, []), "pairs": len(results), "failures": failures}


def _uncovered_row(g):
    """Why g's rows do not cover the composable pairs: the first row not as
    long as its fiber."""
    want = [len(g.into.get(x, ())) for x in g.d]
    for h, (row, fiber) in enumerate(zip(g.composites, want)):
        if len(row) != fiber:
            side = "short" if len(row) < fiber else "long"
            return f"composite row {h} is {side}: {len(row)} entries for {fiber} composable pairs"
    return f"{len(g.composites)} composite rows for {len(want)} arrows"


def check_sobriety(mc: ModelClass):
    rep = sobriety_report(mc)
    ok = rep["bijection"] and rep["round_trip"]
    status = "pass" if ok else ("gated" if not rep["t0"] else "fail")
    return {
        "status": status,
        "t0": rep["t0"],
        "filters": rep["filters"],
        "models": rep["models"],
        "round_trip": rep["round_trip"],
        "truncation_artifact": not rep["t0"],
    }


# ---------------------------------------------------------------------------
# star lemma


def _star_verdict(mc, N, iso):
    """Why the image N and isomorphism iso of a star construction fail,
    marked elements aside; None when they pass."""
    if N not in mc.model_index:
        return "image not in the model class"
    try:
        mc.find_iso(iso)
    except InvariantError:
        return "isomorphism not in the class"
    if N.domain != tuple(mc.S.elements()):
        return "carrier is not all of S"
    return None


def check_star(mc: ModelClass, max_len=2):
    """Runs the construction for every model, every parameter tuple up to
    the length bound, every distinct target tuple with headroom.

    The image and its isomorphism read a and b only through the surjection
    star_surjection(M, a, b, S), so each model builds and checks them once
    per distinct surjection; the marked elements are checked per instance."""
    S = mc.S
    checked = 0
    gated = 0
    failures = []
    for mi, M in enumerate(mc.models):
        decided = {}  # surjection -> (N, iso, verdict)
        for k in range(max_len + 1):
            for a in itertools.product(M.domain, repeat=k):
                for b in itertools.permutations(S.elements(), k):
                    p = star_surjection(M, a, b, S)
                    if p is None:
                        gated += 1
                        continue
                    checked += 1
                    if p not in decided:
                        N, iso = star_lemma(M, a, b, S)
                        decided[p] = N, iso, _star_verdict(mc, N, iso)
                    N, iso, verdict = decided[p]
                    if verdict is not None:
                        failures.append((mi, a, b, verdict))
                        continue
                    for x, y in zip(a, b):
                        if iso.apply(M.block_key(x)) != N.block_key(y):
                            failures.append((mi, a, b, "marked element mismatch"))
                            break
    return {
        "status": _status(failures, []),
        "checked": checked,
        "headroom_skipped": gated,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# openness of the domain map


def _basic_open_m_choices(mc, search, ctx_max, depth):
    out = []
    for k in range(ctx_max + 1):
        for f, _fam in search.classes(k, depth):
            for params in itertools.product(mc.S.elements(), repeat=k):
                out.append(BasicOpenM(f, params))
    return out


def _openness_sweep(mc: ModelClass, depth, ctx_max):
    """The bounded basic open arrow sets of the openness sweep: the domain
    opens and the (codomain open, pairs) cases.  The sweep visits each
    domain open with each case, by domain open, then codomain open, then
    preservation pair set.

    The opens are distinct and so are the pair sets, so each instance
    occurs once."""
    doms = _basic_open_m_choices(mc, FormulaSearch(mc), ctx_max, depth)
    elems = list(mc.S.elements())
    all_pairs = [(a, b) for a in elems for b in elems]
    pair_sets = [
        combo for n in range(len(all_pairs) + 1) for combo in itertools.combinations(all_pairs, n)
    ]
    return doms, [(cod, pairs) for cod in doms for pairs in pair_sets]


def check_openness(mc: ModelClass, depth=2, ctx_max=2):
    """Image of every bounded basic open of the arrow space under d equals
    its certificate union, gated on star headroom.

    open_image_d reads the domain open only through its points, and only
    after the plan of its (pairs, codomain open) case, which does not read
    it at all.  So the sweep runs case by case: it builds one OpennessPlan,
    decides it once for each distinct domain point set, and drops it, so
    one plan is alive at a time.  The statuses are kept per domain point
    set for the length of one call.  Every instance still counts, and each
    failing instance is listed, in sweep order.
    """
    doms, cases = _openness_sweep(mc, depth, ctx_max)
    points = [basic_open_points(mc, dom) for dom in doms]
    decided = {p: [] for p in points}  # domain points -> status per case, in case order
    for cod, pairs in cases:
        plan = OpennessPlan(mc, pairs, cod)
        for p, statuses in decided.items():
            statuses.append(plan.decide(p)["status"])
    verified = 0
    gated = 0
    failures = []
    for dom, p in zip(doms, points):
        statuses = decided[p]
        verified += statuses.count("verified")
        gated += statuses.count("gated")
        failures.extend(
            str(BasicOpenI(dom, pairs, cod))
            for (cod, pairs), status in zip(cases, statuses, strict=True)
            if status == "failed"
        )
    return {
        "status": _status(failures, gated),
        "verified": verified,
        "gated": gated,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# stabilization of basic opens


def check_stabilization(mc: ModelClass, depth=2, ctx_max=1, y_max=1):
    """Orbit-closure stabilization of every bounded basic open equals the
    definable set with the extra context existentially closed."""
    search = FormulaSearch(mc)
    verified = 0
    gated = []
    failures = []
    for k in range(ctx_max + 1):
        for phi, _ in search.classes(k, depth):
            sheaf = definable_sheaf(mc, phi)
            for m in range(y_max + 1):
                for psi, _ in search.classes(k + m, depth):
                    for a in itertools.permutations(mc.S.elements(), m):
                        basic = sheaf.basic_open(psi, a)
                        stab = sheaf.stabilize(basic)
                        closed = conjunction_with_exists(
                            phi, [f"x{k + i}" for i in range(m)], psi.formula
                        )
                        target = sheaf.where(lambda x: mc.ext(x, closed))
                        if stab == target:
                            verified += 1
                            continue
                        if not stab <= target:
                            failures.append((str(phi), str(psi), a, "stabilization escapes"))
                            continue
                        explained = True
                        for i in sorted(target - stab):
                            mi, t = sheaf.points[i]
                            M = mc.models[mi]
                            witnesses = [
                                w[k:]
                                for w in mc.ext(mi, fic([f"x{i}" for i in range(k + m)], psi.formula))
                                if w[:k] == t
                            ]
                            # a block key is the least element of its block
                            if any(star_headroom(M, w, a, mc.S) for w in witnesses):
                                explained = False
                        (gated if explained else failures).append(
                            (str(phi), str(psi), a, "headroom" if explained else "unexplained")
                        )
    return {
        "status": _status(failures, gated),
        "verified": verified,
        "gated": len(gated),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# definables are site objects


def check_guns(mc: ModelClass, depth=2, ctx_max=1):
    """The section lift over every bounded basic open is an isomorphism
    (bijective, equivariant, bicontinuous); misses must be headroom."""
    search = FormulaSearch(mc)
    verified = 0
    gated = []
    failures = []
    for k in range(ctx_max + 1):
        for phi, _ in search.classes(k, depth):
            for a in itertools.permutations(mc.S.elements(), k):
                expected, N_s, _, hat = symmetric_lift(mc, phi, a)
                if N_s != expected:
                    failures.append((str(phi), a, "stabilizer differs from the symmetric array"))
                    continue
                if hat.is_isomorphism():
                    verified += 1
                    continue
                _, explained = lift_shortfall(mc, hat, a)
                (gated if explained else failures).append(
                    (str(phi), a, "headroom" if explained else "not an isomorphism")
                )
    return {
        "status": _status(failures, gated),
        "verified": verified,
        "gated": len(gated),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# site objects: density of definables and subobject lattices


def check_density(mc: ModelClass, site):
    """The density tallies of one site object: how many of its elements
    receive a covering certificate from a definable sheaf, how many gate on
    headroom, and the elements that do neither, as (the four least arrows
    of N, element)."""
    verified = 0
    gated = 0
    failures = []
    for ci in range(len(site.classes)):
        status = density_certificate(mc, site, ci)["status"]
        if status == "verified":
            verified += 1
        elif status == "gated":
            gated += 1
        else:
            failures.append((sorted(site.N)[:4], ci))
    return verified, gated, failures


def check_gun_subobjects(site):
    """Whether the frame of stable opens of U matches the subsheaf lattice
    of a site object by the domain-restriction bijection."""
    return stable_opens_of_site(site)["isomorphic"]


SITE_SUITES = ("density", "subobjects")


def check_sites(mc: ModelClass, n_limit=10_000, suites=SITE_SUITES):
    """The density and subobject suites, or those of them named in
    `suites`, over every site object d^-1(U)/N of a non-empty stable arrow
    set N.

    Each site object is built once, graded by check_density and
    check_gun_subobjects as asked, and dropped before the next is built."""
    g = build_model_groupoid(mc)
    density, subobjects = "density" in suites, "subobjects" in suites
    sites = 0
    verified = 0
    gated = 0
    density_failures = []
    subobject_failures = []
    for N in enumerate_stable_arrow_sets(g, n_limit):
        if not N:
            continue
        site = moerdijk_sheaf(mc, N)
        sites += 1
        if density:
            v, gt, bad = check_density(mc, site)
            verified += v
            gated += gt
            density_failures += bad
        if subobjects and not check_gun_subobjects(site):
            subobject_failures.append(sorted(N)[:4])
    out = {}
    if density:
        out["density"] = {
            "status": _status(density_failures, gated),
            "sites": sites,
            "verified": verified,
            "gated": gated,
            "failures": density_failures,
        }
    if subobjects:
        out["subobjects"] = {
            "status": _status(subobject_failures, []),
            "sites": sites,
            "failures": subobject_failures,
        }
    return out


# ---------------------------------------------------------------------------
# basis property of the logical topology


def check_basis_property(mc: ModelClass, depth=3, ctx_max=2, limit=300_000):
    """The open lattice generated by atomic opens, by bounded Horn basic
    opens, and by bounded geometric basic opens all agree; and every
    geometric basic open is open in the atomic lattice."""
    space = model_space(mc)
    atomic_lattice = space.opens(limit)
    lattices = {}
    for name in ("horn", "geometric"):
        choices = _basic_open_m_choices(mc, FormulaSearch(mc, name), ctx_max, depth)
        lattices[name] = closure_lattice((mask(basic_open_points(mc, b)) for b in choices), limit)
    all_open = all(space.is_open(o) for o in lattices["geometric"])
    same = lattices["horn"] == lattices["geometric"] == atomic_lattice
    return {
        "status": "pass" if (same and all_open) else "fail",
        "atomic": len(atomic_lattice),
        "horn": len(lattices["horn"]),
        "geometric": len(lattices["geometric"]),
        "geometric_opens_in_atomic": all_open,
        "depth": depth,
        "ctx_max": ctx_max,
    }


# ---------------------------------------------------------------------------
# fullness on subobjects and conservativity


def check_fullness_on_subobjects(mc: ModelClass, depth=3, ctx_max=1):
    """Every stable open subset of a bounded definable sheaf is itself
    definable at the depth bound; misses are inconclusive, not failures."""
    search = FormulaSearch(mc)
    verified = 0
    inconclusive = []
    for k in range(ctx_max + 1):
        for phi, fam in search.classes(k, depth):
            sheaf = definable_sheaf(mc, phi)
            definable_sets = set()
            for psi, psifam in search.classes(k, depth):
                meet = tuple(a & b for a, b in zip(fam, psifam))
                definable_sets.add(sheaf.where(meet.__getitem__))
            for V in sheaf.stable_opens():
                if V in definable_sets:
                    verified += 1
                else:
                    inconclusive.append((str(phi), sorted(V)))
    # unions of stable sets stabilize unions
    union_ok = True
    probe = definable_sheaf(mc, fic(["x0"], TOP))
    pts = range(len(probe.points))
    for a in pts:
        for b in pts:
            lhs = probe.stabilize({a}) | probe.stabilize({b})
            if probe.stabilize({a, b}) != lhs:
                union_ok = False
    return {
        "status": "pass" if (not inconclusive and union_ok) else ("gated" if union_ok else "fail"),
        "verified": verified,
        "inconclusive_at_depth": inconclusive,
        "stabilize_commutes_with_unions": union_ok,
    }


def check_conservativity(mc: ModelClass, depth=3, ctx_max=1):
    """Containment of definable sheaves coincides with entailment."""
    search = FormulaSearch(mc)
    failures = []
    checked = 0
    for k in range(ctx_max + 1):
        ctx = tuple(f"x{i}" for i in range(k))
        for phi, famp in search.classes(k, depth):
            for psi, famq in search.classes(k, depth):
                contained = all(a <= b for a, b in zip(famp, famq))
                entailed = mc.entails(Sequent(ctx, phi.formula, psi.formula))
                checked += 1
                if contained != entailed:
                    failures.append((str(phi), str(psi)))
    return {"status": _status(failures, []), "checked": checked, "failures": failures}


# ---------------------------------------------------------------------------
# isomorphism invariance of evaluation


def check_iso_invariance(mc: ModelClass, depth=2, ctx_max=2):
    """Isomorphisms carry extensions to extensions, exactly."""
    search = FormulaSearch(mc)
    failures = []
    for k in range(ctx_max + 1):
        for phi, fam in search.classes(k, depth):
            for j, iso in enumerate(mc.isos):
                src = fam[mc.iso_dom[j]]
                dst = fam[mc.iso_cod[j]]
                image = {iso.apply_tuple(t) for t in src}
                if image != set(dst):
                    failures.append((str(phi), j))
    return {"status": _status(failures, []), "failures": failures}
