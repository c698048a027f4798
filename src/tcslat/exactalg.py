"""Exact integer and rational linear algebra on arbitrary-precision entries.

A matrix is a list of rows, each a list of Python ints (or Fractions for the
rational helpers), so all arithmetic is exact; a vector is a plain list.
Vectors are rows throughout the package; a lattice element x pairs as
x . G . x^T.  Every kernel works on its own copy of its arguments; the Rows of
a matrix checked once by `frozen` are copied without checking them again.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import index, mul


class Row(tuple):
    """An immutable row of ints that lattices and records share, made only by `frozen` and `hnf`."""
    __slots__ = ()


def frozen(rows):
    """A rectangular integer matrix as a tuple of Rows: Rows are kept, other rows checked entry by entry."""
    a = tuple([row if type(row) is Row else Row(map(index, row)) for row in rows])
    if len(set(map(len, a))) > 1:
        raise ValueError("matrix rows must all have the same length")
    return a


def mat(rows):
    """A mutable copy of a rectangular integer matrix as lists of ints, checked as by `frozen`."""
    a = [list(row) if type(row) is Row else [index(x) for x in row] for row in rows]
    if len(set(map(len, a))) > 1:
        raise ValueError("matrix rows must all have the same length")
    return a


def eye(n):
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def matmul(A, B):
    """A . B: row i of the product combines the rows of B with the entries
    of row i of A as coefficients, skipping the zero ones."""
    zero = [0 * y for y in B[0]] if B else []
    out = []
    for a in A:
        acc = None
        for c, b in zip(a, B):
            if c:
                acc = [c * y for y in b] if acc is None else [x + c * y for x, y in zip(acc, b)]
        out.append(zero[:] if acc is None else acc)
    return out


def pairings(B, G, C=None):
    """B . G . C^T (C defaults to B): the pairings under G of the rows of B
    with the rows of C."""
    return matmul(matmul(B, G), transpose(B if C is None else C))


def pair(x, G, y):
    """x . G . y^T for vectors x and y."""
    return sum(a * sum(map(mul, row, y)) for a, row in zip(x, G) if a)


def clear_denominators(rows):
    """(D, M) with D the lcm of the denominators of all entries (ints or
    Fractions) and M = D * rows as integer rows; one D for the whole matrix."""
    try:
        D = lcm(*(x.denominator for row in rows for x in row))
    except AttributeError:  # such as a float, which has no denominator
        raise TypeError("entries must be ints or Fractions") from None
    return D, [[x.numerator * (D // x.denominator) for x in row] for row in rows]


class SnfResult:
    """U, D, V with U @ A @ V = D, |det U| = |det V| = 1, d1 | d2 | ..., di >= 0,
    and Vinv = V^-1, tracked alongside V; a field that `snf` did not track is None."""

    __slots__ = ("U", "D", "V", "Vinv")

    def __init__(self, U, D, V, Vinv):
        self.U = U
        self.D = D
        self.V = V
        self.Vinv = Vinv

    @property
    def diagonal(self):
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0])))]

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    def invariant_factors(self):
        """Nontrivial invariant factors (> 1) of coker(A), i.e. torsion of Z^cols / rowspace(A)."""
        return [d for d in self.diagonal if d > 1]

    def torsion_generators(self):
        """Generators of the torsion of coker(A) with their orders (> 1): rowspace(A)
        is spanned by the d_i Vinv[i], so the rows Vinv[i] with d_i > 1 generate it (needs Vinv)."""
        return [(self.Vinv[i], d) for i, d in enumerate(self.diagonal) if d > 1]

    def torsion_cosets(self):
        """For each d_i > 1, the rational row x = U[i] / d_i, which has x . A = Vinv[i]
        (row i of U . A . V = D): for a Gram matrix A, the coset vector in lattice
        coordinates of the torsion generator Vinv[i] (needs U)."""
        return [[Fraction(x, d) for x in self.U[i]] for i, d in enumerate(self.diagonal) if d > 1]


def _pivot_smallest(A, s):
    """Position of the smallest-abs nonzero entry of A[s:, s:], ties by lowest (row, col); stops at a unit."""
    best = None
    small = 0
    for i in range(s, len(A)):
        row = A[i]
        for j in range(s, len(row)):
            v = row[j]
            if v != 0 and (best is None or abs(v) < small):
                best = (i, j)
                small = abs(v)
                if small == 1:
                    return best
    return best


def snf(A, left=True, right=True):
    """Smith normal form of a nonempty integer matrix.  U is tracked only if `left`, V and
    Vinv only if `right`; no pivot depends on the flags, so neither do D and what is tracked."""
    D = mat(A)
    if not D or not D[0]:
        raise ValueError("snf: empty matrix")
    rows, cols = len(D), len(D[0])
    U = eye(rows) if left else None
    V = eye(cols) if right else None
    Vinv = eye(cols) if right else None  # each column operation on V is undone by a row operation here
    row_mats = (D, U) if left else (D,)  # every row operation acts on these
    for s in range(min(rows, cols)):
        while True:
            pos = _pivot_smallest(D, s)
            if pos is None:
                break
            i, j = pos
            if i != s:
                for M in row_mats:
                    M[s], M[i] = M[i], M[s]
            if j != s:
                for row in D + V if right else D:
                    row[s], row[j] = row[j], row[s]
                if right:
                    Vinv[s], Vinv[j] = Vinv[j], Vinv[s]
            top = D[s]
            p = top[s]
            dirty = False
            for i in range(s + 1, rows):
                row = D[i]
                if row[s] != 0:
                    q = row[s] // p
                    if q != 0:
                        for M in row_mats:
                            M[i] = [x - q * y for x, y in zip(M[i], M[s])]
                        row = D[i]
                    if row[s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if top[j] != 0:
                    q = top[j] // p
                    if q != 0:
                        for row in D + V if right else D:
                            row[j] -= q * row[s]
                        if right:
                            Vinv[s] = [x + q * y for x, y in zip(Vinv[s], Vinv[j])]
                    if top[j] != 0:
                        dirty = True
            if dirty:
                continue
            if abs(p) == 1:
                break  # a unit divides every entry of the remaining block
            # edging is zero; force divisibility of the remaining block
            stubborn = next((i for i in range(s + 1, rows)
                             if any(x % p != 0 for x in D[i][s + 1:])), None)
            if stubborn is None:
                break
            for M in row_mats:
                M[s] = [x + y for x, y in zip(M[s], M[stubborn])]
        if D[s][s] < 0:
            for M in row_mats:
                M[s] = [-x for x in M[s]]
    return SnfResult(U, D, V, Vinv)


def hnf(A):
    """Row Hermite normal form of A with its zero rows dropped: a tuple of
    nonzero Rows spanning the same module over Z, pivots positive and
    strictly moving right, entries above a pivot in [0, pivot)."""
    return _hnf(mat(A))


def _hnf(H):
    """`hnf` of a list of rows of ints, which it reorders and replaces but never changes in place."""
    if not H or not H[0]:
        raise ValueError("hnf: empty matrix")
    rows, cols = len(H), len(H[0])
    r = 0
    for j in range(cols):
        while True:
            # the smallest-abs nonzero entry in column j at or below row r
            piv = None
            for i in range(r, rows):
                if H[i][j] != 0 and (piv is None or abs(H[i][j]) < abs(H[piv][j])):
                    piv = i
            if piv is None:
                break
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
            top = H[r]
            done = True
            for i in range(r + 1, rows):
                if H[i][j] != 0:
                    q = H[i][j] // top[j]
                    if q != 0:
                        H[i] = [x - q * y for x, y in zip(H[i], top)]
                    if H[i][j] != 0:
                        done = False
            if done:
                break
        if piv is None:
            continue
        if H[r][j] < 0:
            H[r] = [-x for x in H[r]]
        top = H[r]
        for i in range(r):
            q = H[i][j] // top[j]
            if q != 0:
                H[i] = [x - q * y for x, y in zip(H[i], top)]
        r += 1
        if r == rows:
            break
    return tuple(map(Row, H[:r]))  # every column is zero below row r


def kernel_basis(A):
    """Basis (rows, in HNF) of the saturated integer kernel {x : x . A = 0}."""
    res = snf(A, right=False)
    cols = len(res.D[0])
    free = [i for i in range(len(res.U)) if i >= cols or res.D[i][i] == 0]
    if not free:
        return ()
    return _hnf([res.U[i] for i in free])


def solve_integer(A, b):
    """Some integer x with x . A = b, or None; absence is definitive."""
    b = [index(t) for t in b]
    res = snf(A)
    rows, cols = len(res.U), len(res.V)
    if cols != len(b):
        raise ValueError("solve_integer: dimension mismatch")
    c = matmul([b], res.V)[0]
    y = [0] * rows
    for j in range(cols):
        d = res.D[j][j] if j < min(rows, cols) else 0
        if d == 0:
            if c[j] != 0:
                return None
        else:
            if c[j] % d != 0:
                return None
            y[j] = c[j] // d
    return matmul([y], res.U)[0]


def rational_inverse(A):
    """Exact inverse of a nonsingular integer or rational matrix (Fraction entries).

    Row i is scaled by the lcm m_i of its denominators; fraction-free
    Gauss-Jordan elimination then takes [m_i A_i | m_i e_i] to [d I | d A^-1]."""
    n = len(A)
    if not n or any(len(row) != n for row in A):
        raise ValueError("rational_inverse: not square")
    M = []
    for i, row in enumerate(A):
        m, (ints,) = clear_denominators([row])
        M.append(ints + [m * (i == j) for j in range(n)])
    _bareiss(M, jordan=True)
    d = M[-1][n - 1]  # a zero here means a pivot-free column in the left block
    if d == 0:
        raise ValueError("rational_inverse: singular matrix")
    return [[Fraction(x, d) for x in row[n:]] for row in M]


def unimodular_inverse(A):
    """Exact integer inverse of a unimodular integer matrix: U A V = I gives A^-1 = V U."""
    if any(len(row) != len(A) for row in A):
        raise ValueError("unimodular_inverse: not square")
    res = snf(A)
    if any(d != 1 for d in res.diagonal):
        raise ValueError("unimodular_inverse: matrix is not unimodular")
    return matmul(res.V, res.U)


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
    r, d = _bareiss(mat(A))
    return d if r == n else 0


def rank(A):
    M = mat(A)
    return len(_hnf(M)) if M and M[0] else 0  # the nonzero rows of the HNF; `_hnf` rejects an empty M


def signature(G):
    """(positives, negatives) of a symmetric integer matrix by Sylvester's law
    of inertia, with integer congruence steps only; ValueError when G is
    degenerate.

    The remaining block is kept sparse, as rows of nonzero entries.  Each
    step pivots on a remaining diagonal entry d != 0 of least |d| and replaces
    every e_a with m_a = M[p, a] != 0 by s_a e_a - t_a e_p, where g_a =
    gcd(d, m_a), s_a = |d| / g_a and t_a = sign(d) m_a / g_a, so that e_a
    pairs to zero with e_p.  The block left is S M S - d t t^T (S = diag(s),
    s_b = 1 off the support of row p): only the rows and columns of the
    support change, and the congruence scales each vector by a nonzero
    integer.  After a step that scales, the block is divided by its content,
    which bounds the growth of its entries.  When no diagonal entry is left,
    e_p <- e_p + e_j for some M[p, j] != 0 makes the diagonal entry
    2 M[p, j]; a zero row means G is degenerate."""
    if any(len(row) != len(G) for row in G):
        raise ValueError("signature: not square")
    M = {a: {b: x for b, x in enumerate(row) if x} for a, row in enumerate(frozen(G))}
    pos = neg = 0
    while M:
        p = None
        for i, row in M.items():
            x = row.get(i)
            if x and (p is None or abs(x) < abs(d)):
                p, d = i, x
                if abs(d) == 1:
                    break
        if p is None:
            p, top = next(iter(M.items()))
            if not top:
                raise ValueError("signature: degenerate matrix")
            j = next(iter(top))
            row = dict(top)
            for b, x in M[j].items():
                row[b] = row.get(b, 0) + x
            for b in top.keys() | M[j].keys():
                if b != p:
                    if row[b]:
                        M[b][p] = row[b]
                    else:
                        del row[b], M[b][p]
            d = row[p] = 2 * top[j]
            M[p] = row
        top = M.pop(p)
        del top[p]
        for a in top:
            del M[a][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        s, t = {}, {}  # s_a where it is not 1; t_a on the support
        for a, m in top.items():
            g = gcd(d, m)
            if g != abs(d):
                s[a] = abs(d) // g
            t[a] = m // g if d > 0 else -m // g
        if s:
            for b, sb in s.items():
                for a, x in M[b].items():
                    if a not in t:
                        M[a][b] = sb * x
            for a in t:
                sa = s.get(a, 1)
                M[a] = {b: sa * s.get(b, 1) * x for b, x in M[a].items()}
        for a, ta in t.items():
            row = M[a]
            dt = d * ta
            for b, tb in t.items():
                x = row.get(b, 0) - dt * tb
                if x:
                    row[b] = x
                else:
                    del row[b]
        if s:
            content = 0
            for row in M.values():
                content = gcd(content, *row.values())
                if content == 1:
                    break
            if content > 1:
                M = {a: {b: x // content for b, x in row.items()} for a, row in M.items()}
    return pos, neg


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

    Its callers need the rational pivots and rows, not just their signs:
    `lattice.positive_norm_vector` and `lattice._definite_decomposition`.
    A signature alone comes from `signature`, which stays in the integers.
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

