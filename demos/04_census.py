#!/usr/bin/env python3
# The rank-1 census: all 153 unordered pairs of the seventeen rank-1 blocks,
# tabulated by b = b3(Z+) + b3(Z-) and the divisibility of p1.  Matching
# certificates for individual pairs, including an obstructed one.

from tcslat import blocks, match, tcs

rank1 = blocks.rank1_catalog()
report = match.geography_general(rank1)
print(report.to_tsv())
print()
print(report.summary_lines())

# 46 values of b, 82 almost-diffeomorphism types; every 2-connected row is a
# connected sum of an S^3-bundle over S^4 with copies of S^3 x S^4.
print("\nspot row b = 48:", report.row_for(48))

# a complete certificate for one pair, with its matching triple
cert = match.build_certificate(rank1["7.1_22^1"], rank1["7.1_18^1"], match.PerpendicularPrimitive())
match.propose_triple(cert)
print("\ncertificate for 7.1_22^1 x 7.1_18^1:")
print(cert.dump())
inv = tcs.compute_invariants(cert.to_config(name="demo-pair"))
print(f"\nb3 = {inv.b3}, div p1 = {inv.div_p1} "
      f"-> realization {inv.classification.realization}")

# the rank-16 block refuses five rank-1 partners outright (a mod-3 obstruction)
cat = blocks.full_catalog()
bad = match.build_certificate(cat["Ex7.7"], cat["7.1_2^1"], match.PerpendicularPrimitive())
print("\nEx7.7 x 7.1_2^1:", bad)
