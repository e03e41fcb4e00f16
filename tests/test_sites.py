"""Site objects and the suites that walk them.

A site object quotients d^-1(U) by the N-relation, and builds each class as
a coset of N; the classes must be those of the relation itself.  The site
suites walk the site objects once: `check_sites` builds each site object
d^-1(U)/N once and grades it for density and for its subobject lattice.  It
must return what the two separate walks it replaced return."""

import pytest

from modform import checks, sheaves
from modform.checks import check_sites
from modform.duality import enumerate_stable_arrow_sets
from modform.groupoid import build_model_groupoid
from modform.logic import EQUALITY_THEORY
from modform.models import IndexSet, fibers, model_class
from modform.parser import parse_theory
from modform.sheaves import density_certificate, moerdijk_sheaf, stable_opens_of_site

THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P/1": parse_theory("rel P/1\n"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"),
}


def reference_classes(g, N):
    """The classes of the N-relation on the arrows with domain in d(N),
    straight from its definition: f ~ h when c(f) = c(h) and h^-1∘f is in
    N.  Each arrow maps to the set of arrows it is related to."""
    U = {g.d[m] for m in N}
    over = [f for f in range(g.arrows.size) if g.d[f] in U]
    into = fibers(g.c, over)
    return {
        f: frozenset(h for h in into[g.c[f]] if g.compose(g.i[h], f) in N) for f in over
    }


@pytest.mark.parametrize("name,n", [("T_eq", 2), ("T_eq", 3), ("P/1", 2), ("symE", 2)])
def test_site_classes_are_the_relation_classes(name, n):
    mc = model_class(THEORIES[name], IndexSet(n))
    g = build_model_groupoid(mc)
    for N in enumerate_stable_arrow_sets(g):
        if not N:
            continue
        site = moerdijk_sheaf(mc, N)
        related = reference_classes(g, N)
        assert site.U == frozenset(g.d[m] for m in N)
        assert set(site.class_of) == set(related)
        for f, cl in related.items():
            assert site.classes[site.class_of[f]] == cl
        assert site.classes == sorted(set(related.values()), key=min)
        for ci, cl in enumerate(site.classes):
            assert site.reps[ci] == min(cl)


def _status(failures, gates):
    if failures:
        return "fail"
    if gates:
        return "gated"
    return "pass"


def reference_density(mc, n_limit):
    """The density suite as its own walk over the sites."""
    g = build_model_groupoid(mc)
    verified = 0
    gated = []
    failures = []
    sites = 0
    for N in enumerate_stable_arrow_sets(g, n_limit):
        if not N:
            continue
        site = moerdijk_sheaf(mc, N)
        sites += 1
        for ci in range(len(site.classes)):
            cert = density_certificate(mc, site, ci)
            if cert["status"] == "verified":
                verified += 1
            elif cert["status"] == "gated":
                gated.append((sorted(N)[:4], ci))
            else:
                failures.append((sorted(N)[:4], ci))
    return {
        "status": _status(failures, gated),
        "sites": sites,
        "verified": verified,
        "gated": len(gated),
        "failures": failures,
    }


def reference_subobjects(mc, n_limit):
    """The subobject suite as its own walk over the sites."""
    g = build_model_groupoid(mc)
    failures = []
    count = 0
    for N in enumerate_stable_arrow_sets(g, n_limit):
        if not N:
            continue
        site = moerdijk_sheaf(mc, N)
        res = stable_opens_of_site(site)
        count += 1
        if not res["isomorphic"]:
            failures.append(sorted(N)[:4])
    return {"status": _status(failures, []), "sites": count, "failures": failures}


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_check_sites_matches_two_walks(name):
    mc = model_class(THEORIES[name], IndexSet(2))
    want = {
        "density": reference_density(mc, 10_000),
        "subobjects": reference_subobjects(mc, 10_000),
    }
    assert check_sites(mc, 10_000) == want


def test_check_sites_builds_each_site_once(monkeypatch):
    mc = model_class(THEORIES["symE"], IndexSet(2))
    built = []
    real = sheaves.moerdijk_sheaf

    def counted(mc, N):
        built.append(frozenset(N))
        return real(mc, N)

    monkeypatch.setattr(checks, "moerdijk_sheaf", counted)
    res = check_sites(mc, 10_000)
    assert len(built) == len(set(built)) == res["density"]["sites"] == 347
