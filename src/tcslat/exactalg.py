"""Exact integer and rational linear algebra on arbitrary-precision entries.

Matrices are numpy arrays with dtype=object holding Python ints (or Fractions
for the rational helpers), so all arithmetic is exact.  Vectors are rows
throughout the package; a lattice element x pairs as x . G . x^T.
"""

from fractions import Fraction
from math import lcm
from operator import index

import numpy as np


def mat(rows):
    """Build an exact integer matrix from an iterable of rows."""
    a = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if a.ndim != 2:
        raise ValueError("matrix rows must all have the same length")
    return a


def vec(entries):
    return np.array([int(x) for x in entries], dtype=object)


def eye(n):
    a = np.zeros((n, n), dtype=object)
    for i in range(n):
        a[i, i] = 1
    return a


def zeros(r, c):
    return np.zeros((r, c), dtype=object)


def to_lists(a):
    return [[int(x) for x in row] for row in a]


class SnfResult:
    """U, D, V with U @ A @ V = D, |det U| = |det V| = 1, d1 | d2 | ..., di >= 0,
    and Vinv = V^-1, tracked alongside V."""

    __slots__ = ("U", "D", "V", "Vinv")

    def __init__(self, U, D, V, Vinv):
        self.U = U
        self.D = D
        self.V = V
        self.Vinv = Vinv

    @property
    def diagonal(self):
        return [int(self.D[i, i]) for i in range(min(self.D.shape))]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    def invariant_factors(self):
        """Nontrivial invariant factors (> 1) of coker(A), i.e. torsion of Z^cols / rowspace(A)."""
        return [d for d in self.diagonal if d > 1]

    def torsion_generators(self):
        """Generators of the torsion of coker(A) with their orders (> 1): rowspace(A)
        is spanned by the d_i Vinv[i], so the rows Vinv[i] with d_i > 1 generate it."""
        return [(self.Vinv[i], d) for i, d in enumerate(self.diagonal) if d > 1]


def _pivot_smallest(A, s):
    """Position of the smallest-abs nonzero entry of A[s:, s:], ties by lowest (row, col)."""
    rows, cols = A.shape
    best = None
    for i in range(s, rows):
        for j in range(s, cols):
            v = A[i, j]
            if v != 0 and (best is None or abs(v) < abs(A[best[0], best[1]])):
                best = (i, j)
    return best


def snf(A):
    """Smith normal form of a nonempty integer matrix."""
    A = np.array(A, dtype=object)
    if A.size == 0:
        raise ValueError("snf: empty matrix")
    rows, cols = A.shape
    D = A.copy()
    U = eye(rows)
    V = eye(cols)
    Vinv = eye(cols)  # each column operation on V is undone by a row operation here
    for s in range(min(rows, cols)):
        while True:
            pos = _pivot_smallest(D, s)
            if pos is None:
                break
            i, j = pos
            if i != s:
                D[[s, i]] = D[[i, s]]
                U[[s, i]] = U[[i, s]]
            if j != s:
                D[:, [s, j]] = D[:, [j, s]]
                V[:, [s, j]] = V[:, [j, s]]
                Vinv[[s, j]] = Vinv[[j, s]]
            dirty = False
            for i in range(s + 1, rows):
                if D[i, s] != 0:
                    q = D[i, s] // D[s, s]
                    if q != 0:
                        D[i] = D[i] - q * D[s]
                        U[i] = U[i] - q * U[s]
                    if D[i, s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if D[s, j] != 0:
                    q = D[s, j] // D[s, s]
                    if q != 0:
                        D[:, j] = D[:, j] - q * D[:, s]
                        V[:, j] = V[:, j] - q * V[:, s]
                        Vinv[s] = Vinv[s] + q * Vinv[j]
                    if D[s, j] != 0:
                        dirty = True
            if dirty:
                continue
            # edging is zero; force divisibility of the remaining block
            stubborn = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if D[i, j] % D[s, s] != 0:
                        stubborn = i
                        break
                if stubborn is not None:
                    break
            if stubborn is None:
                break
            D[s] = D[s] + D[stubborn]
            U[s] = U[s] + U[stubborn]
        if D[s, s] < 0:
            D[s] = -D[s]
            U[s] = -U[s]
    return SnfResult(U, D, V, Vinv)


def hnf(A, prune=False):
    """Row Hermite normal form: pivots positive, entries above a pivot in [0, pivot).

    The row space over Z is preserved.  With prune=True zero rows are dropped.
    """
    H = np.array(A, dtype=object)
    if H.size == 0:
        raise ValueError("hnf: empty matrix")
    rows, cols = H.shape
    r = 0
    for j in range(cols):
        # pick the smallest-abs nonzero entry in column j at or below row r
        piv = None
        for i in range(r, rows):
            if H[i, j] != 0 and (piv is None or abs(H[i, j]) < abs(H[piv, j])):
                piv = i
        if piv is None:
            continue
        while True:
            if piv != r:
                H[[r, piv]] = H[[piv, r]]
            done = True
            for i in range(r + 1, rows):
                if H[i, j] != 0:
                    q = H[i, j] // H[r, j]
                    if q != 0:
                        H[i] = H[i] - q * H[r]
                    if H[i, j] != 0:
                        done = False
            if done:
                break
            piv = None
            for i in range(r, rows):
                if H[i, j] != 0 and (piv is None or abs(H[i, j]) < abs(H[piv, j])):
                    piv = i
        if H[r, j] < 0:
            H[r] = -H[r]
        for i in range(r):
            q = H[i, j] // H[r, j]
            if q != 0:
                H[i] = H[i] - q * H[r]
        r += 1
        if r == rows:
            break
    if prune:
        keep = [i for i in range(rows) if any(x != 0 for x in H[i])]
        H = H[keep] if keep else zeros(0, cols)
    return H


def kernel_basis(A):
    """Basis (rows) of the saturated integer kernel {x : x . A = 0}."""
    A = np.array(A, dtype=object)
    if A.size == 0:
        raise ValueError("kernel_basis: empty matrix")
    res = snf(A)
    rows = A.shape[0]
    free = [i for i in range(rows) if i >= min(A.shape) or res.D[i, i] == 0]
    if not free:
        return zeros(0, rows)
    return hnf(res.U[free], prune=False)


def solve_integer(A, b):
    """Some integer x with x . A = b, or None; absence is definitive."""
    A = np.array(A, dtype=object)
    b = np.array([int(t) for t in b], dtype=object)
    if A.shape[1] != b.shape[0]:
        raise ValueError("solve_integer: dimension mismatch")
    res = snf(A)
    c = b @ res.V
    rows, cols = A.shape
    y = zeros(1, rows)[0]
    for j in range(cols):
        d = res.D[j, j] if j < min(rows, cols) else 0
        if d == 0:
            if c[j] != 0:
                return None
        else:
            if c[j] % d != 0:
                return None
            y[j] = c[j] // d
    return y @ res.U


def rational_inverse(A):
    """Exact inverse of a nonsingular integer or rational matrix (Fraction entries).

    Row i is scaled by the lcm m_i of its denominators; fraction-free
    Gauss-Jordan elimination then takes [m_i A_i | m_i e_i] to [d I | d A^-1]."""
    A = np.array(A, dtype=object)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError("rational_inverse: not square")
    M = []
    for i, row in enumerate(A):
        row = [Fraction(x) for x in row]
        m = lcm(*(x.denominator for x in row))
        M.append([x.numerator * (m // x.denominator) for x in row] + [m * (i == j) for j in range(n)])
    _bareiss(M, jordan=True)
    d = M[-1][n - 1]  # a zero here means a pivot-free column in the left block
    if d == 0:
        raise ValueError("rational_inverse: singular matrix")
    return np.array([[Fraction(x, d) for x in row[n:]] for row in M], dtype=object)


def unimodular_inverse(A):
    """Exact integer inverse of a unimodular integer matrix: U A V = I gives A^-1 = V U."""
    A = np.array(A, dtype=object)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("unimodular_inverse: not square")
    res = snf(A)
    if any(d != 1 for d in res.diagonal):
        raise ValueError("unimodular_inverse: matrix is not unimodular")
    return res.V @ res.U


def _bareiss(M, jordan=False):
    """Fraction-free Gaussian elimination (Bareiss 1968), in place on a list of
    integer rows.  With jordan=True the entries above each pivot are cleared
    too, so a nonsingular square leading block ends as d * I.

    Returns (rank, d) where d is the last pivot times the sign of the row swaps;
    for a square nonsingular M that is det(M).  Every intermediate entry is a
    minor of M (above the pivots, by Cramer's rule), so each division is exact."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    sign, prev, r = 1, 1, 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        top = M[r]
        p = top[c]
        for i in range(0 if jordan else r + 1, rows):
            if i != r:
                a = M[i][c]
                M[i] = [(p * x - a * y) // prev for x, y in zip(M[i], top)]
        prev = p
        r += 1
        if r == rows:
            break
    return r, sign * prev


def det(A):
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("det: not square")
    r, d = _bareiss(_integer_rows(A))
    return d if r == n else 0


def rank(A):
    return _bareiss(_integer_rows(A))[0]


def _integer_rows(A):
    return [[index(x) for x in row] for row in A]


def congruence_steps(G):
    """Rational congruence diagonalisation of a symmetric integer matrix: a
    symmetric LDL^T elimination that splits off a hyperbolic pair when every
    remaining diagonal entry is zero.

    M starts as G and is replaced by its Schur complement after every step.
    Yields one (pivots, value, row) per split-off block, in order:

    - ((i,), d, row): i is the first remaining index with M[i, i] > 0, else
      the first with M[i, i] != 0, and d = M[i, i]; row maps the remaining
      indices a with M[i, a] != 0 to M[i, a].
    - ((i, j), s, (row_i, row_j)): no diagonal entry is left; i is the first
      remaining index, j the first with s = M[i, j] != 0, and the block
      [[0, s], [s, 0]] splits off.
    - ((i,), 0, {}): i pairs to zero with everything left (G is degenerate).
    """
    M = [[Fraction(int(x)) for x in row] for row in G]
    idx = list(range(len(M)))
    while idx:
        piv = next((i for i in idx if M[i][i] > 0), None)
        if piv is None:
            piv = next((i for i in idx if M[i][i] != 0), None)
        if piv is not None:
            idx.remove(piv)
            d = M[piv][piv]
            row = {a: M[piv][a] for a in idx if M[piv][a]}
            yield (piv,), d, row
            for a, ma in row.items():
                c = ma / d
                Ma = M[a]
                for b, mb in row.items():
                    Ma[b] -= c * mb
            continue
        i = idx.pop(0)
        j = next((j for j in idx if M[i][j]), None)
        if j is None:
            yield (i,), Fraction(0), {}
            continue
        idx.remove(j)
        s = M[i][j]
        ri = {a: M[i][a] for a in idx if M[i][a]}
        rj = {a: M[j][a] for a in idx if M[j][a]}
        yield (i, j), s, (ri, rj)
        # project the rest orthogonally to the pair: v -> v - (<v,j> i + <v,i> j) / s
        touched = set(ri) | set(rj)
        for a in touched:
            Ma = M[a]
            for b in touched:
                Ma[b] -= (ri.get(a, 0) * rj.get(b, 0) + rj.get(a, 0) * ri.get(b, 0)) / s


def invariant_factors_via_minors(A):
    """Independent oracle: invariant factors from gcds of k x k minors.

    d_k = gcd of all k-minors; the k-th invariant factor is d_k / d_{k-1}.
    Exponential in size, fine for the small matrices it is used on.
    """
    from itertools import combinations
    from math import gcd

    A = np.array(A, dtype=object)
    rows, cols = A.shape
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = A[np.ix_(rsel, csel)]
                g = gcd(g, abs(int(det(sub))))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out
