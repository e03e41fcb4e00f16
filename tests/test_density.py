"""Density certificates read each symmetric lift from the class's lift
table, and share one search among the elements of a site over one domain
model; they must agree with the per-element lift they replaced."""

import pytest

from modform import checks, models, sheaves
from modform.cli import main
from modform.duality import enumerate_stable_arrow_sets
from modform.errors import InvariantError, SiteError
from modform.groupoid import build_model_groupoid
from modform.models import IndexSet, model_class
from modform.parser import parse_theory
from modform.sheaves import (
    SheafMorphism,
    _subset_order,
    definable_sheaf,
    density_certificate,
    lift_section,
    lift_shortfall,
    moerdijk_sheaf,
)
from modform.topology import basic_open_arrows, basic_open_points, symmetric_varray

THEORIES = {
    "T_eq": "",
    "P1": "rel P/1\n",
    "symE": "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n",
}


def reference_density_certificate(mc, site, class_idx):
    """The per-element certificate: lifts every fitting symmetric array
    afresh for each element."""
    g = site.groupoid
    rep = min(site.classes[class_idx])
    model_idx = g.d[rep]
    M = mc.models[model_idx]
    attempts = []
    fitted = 0
    for subset in _subset_order(M.domain):
        varr = symmetric_varray(M, subset)
        arrows = basic_open_arrows(mc, varr)
        if not arrows <= site.N:
            continue
        fitted += 1
        chi = varr.dom.formula
        params = varr.dom.params
        D = definable_sheaf(mc, chi)
        Uopen = basic_open_points(mc, varr.dom)
        section = {}
        for x in Uopen:
            Mx = mc.models[x]
            section[x] = D.point_index[(x, tuple(Mx.block_key(p) for p in params))]
        N_s, inner_site, hat = lift_section(D, Uopen, section)
        if N_s != arrows:
            raise SiteError("computed stabilizer differs from the symmetric array")
        if hat.is_isomorphism():
            inv = {q: p for p, q in enumerate(hat.point_map)}
            embed = []
            for ci in range(len(inner_site.classes)):
                f = min(inner_site.classes[ci])
                embed.append(site.class_of[f])
            morphism = SheafMorphism(
                D, site.sheaf, tuple(embed[inv[p]] for p in range(len(D.points)))
            )
            if morphism.check():
                raise SiteError("density morphism fails checks")
            pre_class = inner_site.class_of[rep]
            preimage = hat.point_map[pre_class]
            if morphism.point_map[preimage] != class_idx:
                raise SiteError("density certificate misses its element")
            return {
                "status": "verified",
                "formula": chi,
                "params": params,
                "morphism": morphism,
                "preimage": preimage,
            }
        missing, gate_ok = lift_shortfall(mc, hat, params)
        attempts.append({"params": params, "missing": missing, "headroom_explains": gate_ok})
    if fitted == 0:
        raise SiteError("no symmetric neighborhood fits inside N")
    if all(a["headroom_explains"] for a in attempts):
        return {"status": "gated", "attempts": attempts}
    return {"status": "failed", "attempts": attempts}


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_density_matches_per_element_lift(name):
    mc = model_class(parse_theory(THEORIES[name]), IndexSet(2))
    g = build_model_groupoid(mc)
    elements = 0
    for N in enumerate_stable_arrow_sets(g, 10_000):
        if not N:
            continue
        site = moerdijk_sheaf(mc, N)
        for ci in range(len(site.classes)):
            want = reference_density_certificate(mc, site, ci)
            got = density_certificate(mc, site, ci)
            elements += 1
            assert got["status"] == want["status"]
            assert got["element"] == ci
            if want["status"] == "verified":
                for key in ("formula", "params", "preimage"):
                    assert got[key] == want[key]
                assert got["morphism"].point_map == want["morphism"].point_map
                assert got["definable"] is definable_sheaf(mc, want["formula"])
            else:
                assert got["attempts"] == want["attempts"]
        # the elements over one domain model share one search
        assert len(site.covers) == len({g.d[min(cl)] for cl in site.classes})
    assert elements > 0


def test_density_lifts_each_model_and_subset_once(tmp_path, monkeypatch, capsys):
    # a fresh class, so that no earlier lift is already in its table
    monkeypatch.setattr(models, "_class_cache", {})
    calls = []
    real = sheaves.lift_section

    def counted(sheaf, U, section):
        calls.append(sheaf.formula)
        return real(sheaf, U, section)

    monkeypatch.setattr(sheaves, "lift_section", counted)
    path = tmp_path / "symE.thy"
    path.write_text(THEORIES["symE"])
    assert main(["check", "density", str(path), "--index-size", "2", "--format", "json"]) == 2
    capsys.readouterr()
    # one lift per (model, subset) that fits a site; 4,651 with one per element
    assert 0 < len(calls) <= 39


def test_guns_and_density_share_one_lift(monkeypatch):
    monkeypatch.setattr(models, "_class_cache", {})
    calls = []
    real = sheaves.symmetric_lift

    def counted(mc, phi, params):
        calls.append((phi, params))
        return real(mc, phi, params)

    for owner in (checks, sheaves):
        monkeypatch.setattr(owner, "symmetric_lift", counted)
    mc = model_class(parse_theory(THEORIES["T_eq"]), IndexSet(2))
    assert checks.check_guns(mc)["status"] == "pass"
    guns = len(calls)
    g = build_model_groupoid(mc)
    site = moerdijk_sheaf(mc, frozenset(range(g.arrows.size)))
    assert density_certificate(mc, site, 0)["status"] == "verified"
    assert guns > 0 and len(calls) == guns + 1


def test_point_outside_its_sheaf_is_an_invariant_error(monkeypatch):
    mc = model_class(parse_theory(THEORIES["T_eq"]), IndexSet(2))
    M = mc.models[-1]
    varr = symmetric_varray(M, tuple(sorted(M.domain)))
    D = definable_sheaf(mc, varr.dom.formula)
    monkeypatch.setattr(D, "point_index", {})
    with pytest.raises(InvariantError):
        sheaves.symmetric_lift(mc, varr.dom.formula, varr.dom.params)
