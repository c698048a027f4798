#!/usr/bin/env python3
# Tour of the exact lattice toolkit: normal forms, discriminant groups,
# complements and vector search inside the rank-22 ambient lattice.

from tcslat import exactalg as xa
from tcslat import lattice as lat
from tcslat.embed import k3_lattice

# --- Smith normal form with full transform bookkeeping
A = xa.mat([[2, 4], [6, 8]])
res = xa.snf(A)
print("A =", A)
print("diagonal of U A V:", res.diagonal)          # (2, 4): d1 | d2
print("|det U| =", abs(xa.det(res.U)), " |det V| =", abs(xa.det(res.V)))

# --- the ambient lattice: even, unimodular, signature (3, 19)
L = k3_lattice()
print("\nambient rank:", L.rank, " det:", L.det(), " signature:", lat.signature(L))

# --- discriminant groups carry a Q/2Z quadratic form on their generators
N = lat.diag_lattice(4)
dg = lat.discriminant_group(N)
print("\n<4>: group Z/%d, q(generator) = %s (mod 2)" % (dg.invariant_factors[0], dg.q_values[0]))

# --- a primitive sublattice and its complement share a discriminant group
S = lat.saturation(lat.Sublattice(L, [[1, 2] + [0] * 20, [0, 0, 1, -3] + [0] * 18]))
T = lat.orthogonal_complement(S)
print("\nprimitive rank-2 sublattice: disc", lat.discriminant_group(S.lattice()).invariant_factors)
print("its rank-20 complement:      disc", lat.discriminant_group(T.lattice()).invariant_factors)

# --- norm residues certify non-representability; bounded search finds vectors
T6 = lat.direct_sum(lat.A2(-1), lat.U(3), lat.U(3))
print("\nnorm residues of A2(-1) + 2U(3) mod 3:", sorted(lat.norm_residues(T6, 3)))
print("primitive norm-4 vector:", list(lat.find_primitive_vector(T6, 4, 3)))
print("primitive norm-2 vector within bound 4:", lat.find_primitive_vector(T6, 2, 4))

# --- positive definite forms are decided exactly by ellipsoid enumeration
Q = lat.Lattice([[16, 24], [24, 57]])
for m in (1, 4, 8, 16):
    print(f"16y^2 + 48yz + 57z^2 = {m}:", lat.definite_form_represents(Q, m))
