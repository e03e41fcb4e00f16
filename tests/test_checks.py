"""The named verification suites on both reference theories."""

import pytest

from modform.checks import (
    check_basis_property,
    check_conservativity,
    check_fullness_on_subobjects,
    check_iso_invariance,
    check_sites,
    check_sobriety,
)
from modform.logic import EQUALITY_THEORY
from modform.models import IndexSet, model_class
from modform.parser import parse_theory

SYM_E = "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)"


def classes():
    return [
        model_class(EQUALITY_THEORY, IndexSet(2)),
        model_class(parse_theory(SYM_E), IndexSet(2)),
    ]


@pytest.mark.parametrize("mc", classes(), ids=["T_eq", "symE"])
def test_basis_property_three_lattices_agree(mc):
    res = check_basis_property(mc, depth=3)
    assert res["status"] == "pass"
    assert res["atomic"] == res["horn"] == res["geometric"]


@pytest.mark.parametrize("mc", classes(), ids=["T_eq", "symE"])
def test_fullness_on_subobjects(mc):
    res = check_fullness_on_subobjects(mc, depth=3, ctx_max=1)
    assert res["status"] == "pass"
    assert res["stabilize_commutes_with_unions"]
    assert res["inconclusive_at_depth"] == []


@pytest.mark.parametrize("mc", classes(), ids=["T_eq", "symE"])
def test_conservativity(mc):
    res = check_conservativity(mc, depth=3, ctx_max=1)
    assert res["status"] == "pass"
    assert res["checked"] > 0


@pytest.mark.parametrize("mc", classes(), ids=["T_eq", "symE"])
def test_iso_invariance(mc):
    assert check_iso_invariance(mc, depth=2, ctx_max=2)["status"] == "pass"


def test_gun_subobjects_symmetric():
    mc = model_class(parse_theory(SYM_E), IndexSet(2))
    res = check_sites(mc, n_limit=1000)["subobjects"]
    assert res["status"] == "pass"
    assert res["sites"] > 0


def test_sobriety_symmetric():
    mc = model_class(parse_theory(SYM_E), IndexSet(2))
    res = check_sobriety(mc)
    assert res["status"] == "pass"
    assert res["filters"] == res["models"] == 15
