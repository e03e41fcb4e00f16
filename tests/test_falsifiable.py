"""Every suite can fail: each test corrupts the object one suite checks
and requires "fail", with the broken instances named as the slow
reference names them.

The preimages suite reads all n² identities off the preservation-pair
masks; on each corruption its failures must be those of
structure_map_preimages, taken one (a, b) at a time."""

import pytest

from modform.checks import check_preimage_identities
from modform.groupoid import build_model_groupoid
from modform.logic import EQUALITY_THEORY
from modform.models import IndexSet, build_model_class
from modform.parser import parse_theory

from test_groupoid import per_pair_preimages

THEORIES = {"T_eq": EQUALITY_THEORY, "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n")}


def drop_a_preserving_arrow(mc, g):
    # an identity leaves <0->1>: i, e and m all read it
    pres = mc.preserving(0, 1)
    mc._preserving[(0, 1)] = pres - {min(set(g.e) & pres)}


def swap_two_composites(mc, g):
    # g∘f1 and g∘f2 for f1, f2 with one domain and different pair masks
    held = g.arrows.held
    h, f1, f2 = next(
        (h, f1, f2)
        for h in range(g.arrows.size)
        for f1 in g.into.get(g.d[h], ())
        for f2 in g.into.get(g.d[h], ())
        if f1 < f2 and g.d[f1] == g.d[f2] and held[g.compose(h, f1)] != held[g.compose(h, f2)]
    )
    row = list(g.composites[h])
    row[g.place[f1]], row[g.place[f2]] = row[g.place[f2]], row[g.place[f1]]
    g.composites = g.composites[:h] + [tuple(row)] + g.composites[h + 1 :]


def move_an_identity(mc, g):
    # e(x) sent to another arrow from x to x: an automorphism that moves a block
    x, a = next(
        (x, a) for x in range(g.objects.size) for a in g.out_of[x] if g.c[a] == x and a != g.e[x]
    )
    g.e = g.e[:x] + (a,) + g.e[x + 1 :]


@pytest.mark.parametrize("name", THEORIES)
def test_preimages_fails_on_each_corruption_as_the_per_pair_scan(name):
    failed = set()
    for corrupt in (drop_a_preserving_arrow, swap_two_composites, move_an_identity):
        mc = build_model_class(THEORIES[name], IndexSet(2))
        g = build_model_groupoid(mc)
        corrupt(mc, g)
        got = check_preimage_identities(mc)
        assert got["status"] == "fail", corrupt.__name__
        assert got == per_pair_preimages(mc), corrupt.__name__
        failed |= {law for _, oks in got["failures"] for law, ok in oks.items() if not ok}
    assert failed == {"i", "e", "m"}
