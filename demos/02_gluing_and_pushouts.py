#!/usr/bin/env python3
# Gluing polarising lattices: perpendicular sums, orthogonal pushouts along a
# common negative class (which can fail!), and finite-index overlattices from
# anti-isometric discriminant subgroups.

from tcslat import exactalg as xa
from tcslat import glue
from tcslat import lattice as lat

# --- a pushout that exists: two copies of a rank-2 block lattice along <-4>
N = lat.Lattice([[2, 4], [4, 2]])
spec = glue.PushoutSpec(N, N, lat.diag_lattice(-4), [[1, -1]], [[1, -1]])
res = glue.orthogonal_pushout(spec)
print("pushout of [[2,4],[4,2]] with itself along <-4>:")
print("  gram =", xa.mat(res.w.gram))
print("  signature =", lat.signature(res.w), " det =", res.w.det())

# --- a pushout that does not exist: the quartic-with-a-line lattice along <-36>
N2 = lat.Lattice([[4, 1], [1, -2]])
spec2 = glue.PushoutSpec(N2, N2, lat.diag_lattice(-36), [[-1, 4]], [[-1, 4]])
fail = glue.orthogonal_pushout(spec2)
print("\npushout of [[4,1],[1,-2]] with itself along <-36>:")
print(" ", fail, "-> not an integral lattice")

# --- overlattices of <4> + <4>: exactly one nontrivial gluing (index 2)
specs = glue.enumerate_overlattices(lat.diag_lattice(4), lat.diag_lattice(4), 4)
print("\noverlattices of <4> + <4> with both factors primitive:")
for s in specs:
    print(f"  index {s.index}, glue generators {[(list(map(str, p)), list(map(str, m))) for p, m in s.glue_gens]}")

# --- the rank-2 block with discriminant (Z/4)^2 glues to itself six ways
N3 = lat.Lattice([[4, 4], [4, 0]])
specs3 = glue.enumerate_overlattices(N3, N3, 16)
print(f"\noverlattices of the (Z/4)^2 block with itself: {len(specs3)} found,")
print("  indices:", sorted(s.index for s in specs3))
print("  (every subgroup type of (Z/4)^2 occurs as a glue group, up to index 16)")
