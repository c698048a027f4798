"""Oracles shared by the tests: independent recomputations that the library
itself never calls."""

from itertools import combinations
from math import gcd

from tcslat import exactalg as xa
from tcslat import lattice as lat


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


def orthogonal_part_via_complement(S, other):
    """S n other^perp by the rank-n route: the saturated orthogonal complement
    of other, intersected with S."""
    return lat.intersect(S, lat.orthogonal_complement(other))


def in_span_by_rank(v, sub):
    """v in the Q-span of sub, by the Smith rank (not the HNF that `match._in_span`
    rests on): stacking v's cleared row on the basis adds no rank.  Never for a
    rank-0 sub, as `match.verify_triple` reads it."""
    stacked = [*sub.basis, *xa.clear_denominators([v])[1]]
    return sub.rank > 0 and xa.snf(stacked, left=False, right=False).rank == sub.rank


def membership_via_complements(triple, emb_plus, emb_minus):
    """The membership reasons of `match.verify_triple`, with T+ and T- built as
    orthogonal complements and each membership decided by rank."""
    Tp, Tm = lat.orthogonal_complement(emb_plus), lat.orthogonal_complement(emb_minus)
    checks = (
        ("k_plus in span(N+)", triple.k_plus, emb_plus),
        ("k_plus in span(T-)", triple.k_plus, Tm),
        ("k_minus in span(N-)", triple.k_minus, emb_minus),
        ("k_minus in span(T+)", triple.k_minus, Tp),
        ("k_0 in span(T+)", triple.k_0, Tp),
        ("k_0 in span(T-)", triple.k_0, Tm),
    )
    return [f"membership fails: {label}" for label, v, sub in checks if not in_span_by_rank(v, sub)]
