"""The logical topology on the set of models.

Basic opens record finite positive information: which indices are defined,
which are identified, which relational facts hold.  At desk scale the whole
open lattice is a finite object we can print.  Its completely prime filters
are the up-sets of the minimal neighbourhoods, so sobriety is checked point
by point, without listing the lattice.
"""

from modform import (
    BasicOpenM,
    IndexSet,
    basic_open_points,
    cp_filters,
    fic,
    filter_to_model,
    model_class,
    model_space,
    sobriety_report,
)
from modform.logic import EQUALITY_THEORY, Eq, TOP, Var

S = IndexSet(2)
mc = model_class(EQUALITY_THEORY, S)
print("models of the empty theory at |S| = 2:")
for i, M in enumerate(mc.models):
    print(f"  {i}: {M.dumps()}")

print()
print("== basic opens ==")
defined0 = BasicOpenM(fic(["x"], TOP), (0,))
print(f"{defined0}  ->  models {sorted(basic_open_points(mc, defined0))}")
glued = BasicOpenM(fic(["x", "y"], Eq(Var("x"), Var("y"))), (0, 1))
print(f"{glued}  ->  models {sorted(basic_open_points(mc, glued))}")

print()
print("== the open lattice ==")
space = model_space(mc)
for o in space.opens():
    print("  ", sorted(o))

print()
print("== completely prime filters ==")
filters = cp_filters(space)
print(f"{len(filters)} filters for {len(mc.models)} models")
for least in filters:
    M = filter_to_model(mc, least)
    idx = mc.find_model(M)
    same = space.minimal_nbhd(idx) == least
    print(f"  min open {sorted(least)} rebuilds model {idx}, round trip {same}")

print()
rep = sobriety_report(mc)
print(
    f"sobriety: T0 = {rep['t0']}, bijection = {rep['bijection']}, "
    f"round trips = {rep['round_trip']}"
)
