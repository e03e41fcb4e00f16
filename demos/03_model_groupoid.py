"""The topological groupoid of models and isomorphisms.

Structure maps are finite functions, so every groupoid law is an exact
check.  The interesting finite-scale phenomenon is openness of the domain
map: its certificate construction needs fresh indices, and instances that
run out are gated rather than declared refuted.
"""

from modform import (
    BasicOpenI,
    BasicOpenM,
    IndexSet,
    build_model_groupoid,
    certificate_open,
    fic,
    minimal_varray,
    model_class,
    open_image_d,
    structure_map_preimages,
    trivial_open_m,
)
from modform.logic import EQUALITY_THEORY, Eq, TOP, Var

S = IndexSet(2)
mc = model_class(EQUALITY_THEORY, S)
g = build_model_groupoid(mc)
print(f"groupoid of the empty theory: {g.objects.size} objects, {g.arrows.size} arrows")
print("algebra violations:", g.check_algebra())
print("continuity of d, c, e, i, m:", g.check_continuity())

print()
print("== the three structure-map preimage identities ==")
for a in range(2):
    for b in range(2):
        r = structure_map_preimages(mc, a, b)
        print(f"  <{a}->{b}>: i {r['i']['ok']}, e {r['e']['ok']}, m {r['m']['ok']}")

print()
print("== openness of the domain map ==")
v = BasicOpenI(trivial_open_m(), ((0, 1),), trivial_open_m())
res = open_image_d(mc, v)
print(f"d{v} = {sorted(res['image'])}  [{res['status']}]")
for ks, pts in res["certificate"][:3]:
    print("  certificate open:", certificate_open(v, ks), sorted(pts))

print()
print("== a headroom gate ==")
glue = BasicOpenI(
    trivial_open_m(),
    ((0, 0), (0, 1)),
    BasicOpenM(fic(["x", "y"], Eq(Var("x"), Var("y"))), (0, 1)),
)
res = open_image_d(mc, glue)
print(f"gluing both indices: status {res['status']}")
print(f"  image {sorted(res['image'])} vs certificate union {sorted(res['union'])}")
print("  the missing model would need a third index to absorb the glued pair")

print()
print("d and c open as maps at |S| = 2:", g.is_open(), " (a truncation artifact)")
bad = [j for j in range(g.arrows.size)
       if open_image_d(mc, minimal_varray(mc, j))["status"] == "gated"]
print(f"arrows whose neighborhood image is gated: {bad}")
