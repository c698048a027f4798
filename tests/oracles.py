"""Oracles shared by the tests: independent recomputations that the library
itself never calls."""

from itertools import combinations
from math import gcd

from tcslat import exactalg as xa


def invariant_factors_via_minors(A):
    """Invariant factors of the integer matrix A from gcds of its k x k minors,
    with no Smith form: d_k = gcd of all k-minors, and the k-th invariant
    factor is d_k / d_{k-1}.  Exponential in size, fine for small matrices."""
    rows, cols = len(A), len(A[0])
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                g = gcd(g, abs(xa.det([[A[i][j] for j in csel] for i in rsel])))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out
