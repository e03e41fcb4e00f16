"""The full round trip: theories to groupoids over sets and back.

Mod sends a theory to its model groupoid over the groupoid of indexed
sets; Form sends a groupoid over sets to the category of stable-open
relations on the pulled-back generic object.  At bounds the counit
components are isomorphisms, both triangle identities hold on the nose,
and the intrinsic semantic-groupoid conditions single out the image.
"""

from modform import (
    IndexSet,
    check_sem_conditions,
    check_triangle_identities,
    coherent_check,
    counit,
    form_functor,
    mod_functor,
    parse_theory,
    unit,
)
from modform.logic import EQUALITY_THEORY

S = IndexSet(2)

print("== counit: syntax against semantics, empty theory ==")
# Form(Mod T): the relation category of the model groupoid, at k_max = 1
rc = form_functor(mod_functor(EQUALITY_THEORY, S), k_max=1)
res = counit(rc, depth=3)
print(f"status: {res['status']}")
for k, (n_syntax, n_form) in sorted(res["object_counts"].items()):
    print(f"  context length {k}: {n_syntax} formula classes ~ {n_form} stable opens")
for jk, (a, b) in sorted(res["arrow_counts"].items()):
    print(f"  arrows {jk}: {a} ~ {b}")

print()
print("== the same for a symmetric relation (depth matters) ==")
symE = parse_theory("rel E/2\naxiom E(x,y) |- [x,y] E(y,x)", name="symE")
rc_symE = form_functor(mod_functor(symE, S), 1)
for depth in (3, 4):
    r = counit(rc_symE, depth)
    print(f"  depth {depth}: {r['status']}, objects {dict(r['object_counts'])}")

print()
print("== unit and the triangle identities ==")
un = unit(rc)
tri = check_triangle_identities(un)
print(f"bottom triangle (Mod side): {tri['bottom']}")
print(f"top triangle (Form side): {tri['top']}")
print(f"unit morphism violations: {un['morphism_violations'] or 'none'}")
print(f"unit sits over the groupoid of sets: {un['over_S']}")

print()
print("== the intrinsic characterization ==")
sem = check_sem_conditions(mod_functor(symE, S))
print(f"strongly full: {sem['strongly_full']}")
print(f"neighborhood condition over {sem['n_count']} closed arrow sets: {sem['condition_ii']}")
print(f"open groupoid at this index size: {sem['open']}  (gated when false)")

print()
print("== coherent frame conditions ==")
coh = coherent_check(mod_functor(EQUALITY_THEORY, S), 1)
for entry in coh["i"]:
    print(
        f"  frame at power {entry['k']}: {entry['frame_size']} elements, "
        f"all compact: {entry['all_compact']} (finite-frame degeneracy)"
    )
print(f"projection pullbacks preserve compactness: {all(e['match'] for e in coh['ii'])}")
