"""The star construction and its suite.

`star_lemma(M, a, b, S)` reads `a` and `b` only through the surjection
`star_surjection(M, a, b, S)`, so `check_star` builds and checks each
image once per distinct surjection of a model and checks only the marked
elements per instance.  It must return what the per-instance sweep it
replaced returns, failures included."""

import itertools

import pytest

from modform import checks, models
from modform.checks import check_star
from modform.errors import HeadroomError, InvariantError, SignatureError
from modform.logic import EQUALITY_THEORY
from modform.models import (
    IndexSet,
    IndexedStructure,
    StructIso,
    model_class,
    star_headroom,
    star_image,
    star_lemma,
    star_surjection,
)
from modform.parser import parse_theory

THEORIES = {
    "T_eq": EQUALITY_THEORY,
    "P/1": parse_theory("rel P/1\n"),
    "symE": parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n"),
}


def reference_star(mc, max_len=2):
    """The star suite as one star_lemma call and one check per instance."""
    S = mc.S
    checked = 0
    gated = 0
    failures = []
    for mi, M in enumerate(mc.models):
        for k in range(max_len + 1):
            for a in itertools.product(M.domain, repeat=k):
                for b in itertools.permutations(S.elements(), k):
                    if not star_headroom(M, a, b, S):
                        gated += 1
                        continue
                    N, iso = star_lemma(M, a, b, S)
                    checked += 1
                    if N not in mc.model_index:
                        failures.append((mi, a, b, "image not in the model class"))
                        continue
                    try:
                        mc.find_iso(iso)
                    except InvariantError:
                        failures.append((mi, a, b, "isomorphism not in the class"))
                        continue
                    if N.domain != tuple(S.elements()):
                        failures.append((mi, a, b, "carrier is not all of S"))
                        continue
                    for x, y in zip(a, b):
                        if iso.apply(M.block_key(x)) != N.block_key(y):
                            failures.append((mi, a, b, "marked element mismatch"))
                            break
    return {
        "status": "fail" if failures else "pass",
        "checked": checked,
        "headroom_skipped": gated,
        "failures": failures,
    }


def instances(mc, max_len=2):
    for M in mc.models:
        for k in range(max_len + 1):
            for a in itertools.product(M.domain, repeat=k):
                for b in itertools.permutations(mc.S.elements(), k):
                    yield M, a, b


@pytest.mark.parametrize(
    "name,n", [("T_eq", 2), ("P/1", 2), ("symE", 2), ("symE", 3)]
)
def test_check_star_matches_the_per_instance_sweep(name, n):
    mc = model_class(THEORIES[name], IndexSet(n))
    res = check_star(mc)
    assert res == reference_star(mc)
    assert res["status"] == "pass" and res["checked"] > 0


def test_check_star_builds_each_image_once_per_surjection(monkeypatch):
    mc = model_class(THEORIES["symE"], IndexSet(3))
    calls = []
    real = models.star_lemma

    def counted(M, a, b, S):
        calls.append((M, star_surjection(M, a, b, S)))
        return real(M, a, b, S)

    monkeypatch.setattr(checks, "star_lemma", counted)
    res = check_star(mc)
    distinct = {(M, star_surjection(M, a, b, mc.S)) for M, a, b in instances(mc)} - {
        (M, None) for M in mc.models
    }
    assert len(calls) == len(set(calls)) == len(distinct) == 686
    assert res["checked"] == 5598


def _swap(keys):
    """The exchange of two block keys."""
    k0, k1 = keys
    return {k0: k1, k1: k0}


def test_check_star_reports_the_failures_of_the_sweep(monkeypatch):
    """Corrupt the image of four surjections, one per failure kind, and
    require the failures of the per-instance sweep, in its order."""
    mc = model_class(THEORIES["symE"], IndexSet(3))
    S = mc.S
    real = models.star_image
    found = {}
    for M, a, b in instances(mc):
        p = star_surjection(M, a, b, S)
        if p is None or (M, p) in found.values():
            continue
        N, _ = real(M, p)
        if "class" not in found and len(N.keys) == 2 and not N.rels["E"]:
            found["class"] = (M, p)
        elif "iso" not in found and len(N.keys) == 2:
            sw = _swap(N.keys)
            if {tuple(map(sw.get, t)) for t in N.rels["E"]} != N.rels["E"]:
                found["iso"] = (M, p)
        elif "marked" not in found and len(N.keys) == 3 and len(a) == 2:
            found["marked"] = (M, p)
        elif "carrier" not in found and M.domain != tuple(S.elements()):
            found["carrier"] = (M, p)
    assert len(found) == 4
    kind_of = {mp: kind for kind, mp in found.items()}

    def wrong_image(M, p):
        N, iso = real(M, p)
        kind = kind_of.get((M, p))
        if kind == "class":
            # an asymmetric edge: the image is no model of symE
            k0, k1 = N.keys
            bad = IndexedStructure(N.domain, N.blocks, {"E": {(k0, k1)}})
            return bad, StructIso(M, bad, iso.mapping)
        if kind == "iso":
            # the image, reached along a block bijection that moves E
            return N, StructIso(M, N, {k: _swap(N.keys)[v] for k, v in iso.mapping.items()})
        if kind == "marked":
            # the same image reached along the fill of two other blocks
            sw = _swap(sorted({k for _, k in p})[:2])
            return real(M, tuple((s, sw.get(k, k)) for s, k in p))
        if kind == "carrier":
            return M, StructIso(M, M, {k: k for k in M.keys})
        return N, iso

    monkeypatch.setattr(models, "star_image", wrong_image)
    res = check_star(mc)
    want = reference_star(mc)
    assert res == want
    assert {reason for *_, reason in res["failures"]} == {
        "image not in the model class",
        "isomorphism not in the class",
        "carrier is not all of S",
        "marked element mismatch",
    }


def test_star_lemma_is_the_image_of_its_surjection():
    mc = model_class(THEORIES["symE"], IndexSet(2))
    seen = 0
    for M, a, b in instances(mc):
        p = star_surjection(M, a, b, mc.S)
        if p is None:
            assert not star_headroom(M, a, b, mc.S)
            with pytest.raises(HeadroomError):
                star_lemma(M, a, b, mc.S)
            continue
        assert [s for s, _ in p] == list(mc.S.elements())
        assert star_lemma(M, a, b, mc.S) == star_image(M, p)
        seen += 1
    assert seen > 0


def test_star_rejects_targets_outside_the_index_set():
    M = IndexedStructure([0, 1], [(0,), (1,)])
    with pytest.raises(SignatureError):
        star_lemma(M, (0,), (5,), IndexSet(2))
