"""Integer lattices, sublattices, discriminant groups and vector search.

A Lattice is a symmetric integer Gram matrix; a Sublattice is a basis matrix
(rows are generators in ambient coordinates) inside an ambient Lattice; both
hold checked immutable rows (`exactalg.frozen`), which no kernel checks again.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, isqrt, prod

from . import exactalg as xa


class DegenerateLattice(ValueError):
    pass


class EnumerationBudgetExceeded(RuntimeError):
    pass


class Lattice:
    """Nondegenerate-or-not integer lattice given by a symmetric Gram matrix; det, signature and ell kept once
    computed, each by an integer kernel (Bareiss det, integer congruence signature, Smith diagonal)."""

    def __init__(self, gram):
        g = xa.frozen(gram)
        if any(len(row) != len(g) for row in g) or g != tuple(zip(*g)):
            raise ValueError("Gram matrix must be square and symmetric")
        self.gram = g
        self.rank = len(g)

    @cached_property
    def _det(self):
        return xa.det(self.gram)

    def det(self):
        return self._det

    @cached_property
    def _signature(self):
        try:
            return xa.signature(self.gram)
        except ValueError:
            raise DegenerateLattice("degenerate") from None

    @cached_property
    def _ell(self):
        if not self.rank:
            return 0
        smith = xa.snf(self.gram, left=False, right=False)
        if smith.rank < self.rank:  # a zero on the Smith diagonal: det = 0
            raise DegenerateLattice("degenerate")
        return len(smith.invariant_factors())

    def is_nondegenerate(self):
        return self.rank == 0 or self.det() != 0

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pair(self, x, y):
        return xa.pair(x, self.gram, y)

    def norm(self, x):
        return self.pair(x, x)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __repr__(self):
        return f"Lattice(rank={self.rank})"


def direct_sum(*lattices):
    n = sum(l.rank for l in lattices)
    g = []
    for l in lattices:
        # len(g), the rows placed so far, is this block's column offset
        g += [[0] * len(g) + list(row) + [0] * (n - len(g) - l.rank) for row in l.gram]
    return Lattice(g)


def U(k=1):
    """Hyperbolic plane, scaled: Gram [[0, k], [k, 0]]."""
    return Lattice([[0, k], [k, 0]])


def diag_lattice(*entries):
    return Lattice([[e if i == j else 0 for j in range(len(entries))]
                    for i, e in enumerate(entries)])


def A2(sign=1):
    g = [[2 * sign, -sign], [-sign, 2 * sign]]
    return Lattice(g)


# E8 Cartan matrix: chain 1-2-3-4-5-6-7 with node 8 attached to node 5.
_E8_ROWS = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def E8(sign=1):
    """The even unimodular definite rank-8 lattice; sign=-1 negates the form."""
    return Lattice([[sign * x for x in row] for row in _E8_ROWS])


def _is_echelon(rows):
    """True iff no row is zero and the leading columns strictly increase, as in
    every `hnf`, `kernel_basis` and `saturation` basis: such rows are independent."""
    leads = [next((j for j, x in enumerate(row) if x), -1) for row in rows]
    return leads[0] >= 0 and all(a < b for a, b in zip(leads, leads[1:]))


class Sublattice:
    """Rows of `basis` are generators, in ambient coordinates; independent over Q."""

    def __init__(self, ambient, basis):
        self.ambient = ambient
        b = xa.frozen(basis)
        if b and len(b[0]) != ambient.rank:
            raise ValueError("basis rows must live in the ambient lattice")
        if b and not _is_echelon(b) and xa.rank(b) != len(b):
            raise ValueError("basis rows must be independent over Q")
        self.basis = b

    @property
    def rank(self):
        return len(self.basis)

    def induced_gram(self):
        return xa.frozen(xa.pairings(self.basis, self.ambient.gram))

    def lattice(self):
        """The sublattice as an abstract Lattice with the induced form."""
        return Lattice(self.induced_gram())

    def hnf_basis(self):
        return xa.hnf(self.basis) if self.rank else self.basis

    def same_module(self, other):
        return self.hnf_basis() == other.hnf_basis()

    def __repr__(self):
        return f"Sublattice(rank={self.rank}, ambient_rank={self.ambient.rank})"


class DiscGroup:
    """Finite abelian group N*/N: invariant factors plus, for even lattices,
    the Q/2Z quadratic form and Q/Z bilinear form on the chosen generators."""

    __slots__ = ("invariant_factors", "q_values", "b_values")

    def __init__(self, invariant_factors, q_values=None, b_values=None):
        self.invariant_factors = list(invariant_factors)
        self.q_values = q_values
        self.b_values = b_values

    @property
    def order(self):
        return prod(self.invariant_factors)

    def __eq__(self, other):
        return isinstance(other, DiscGroup) and self.invariant_factors == other.invariant_factors

    def __repr__(self):
        return f"DiscGroup({self.invariant_factors})"


def signature(L):
    """The Sylvester signature as a tuple (positives, negatives), computed
    once per lattice by integer congruence steps (`exactalg.signature`), with
    no Fraction arithmetic; DegenerateLattice when the Gram is degenerate."""
    return L._signature


def positive_norm_vector(L):
    """An integer vector of positive norm, via congruence diagonalization;
    None when the form is negative semidefinite."""
    n = L.rank
    if n == 0:
        return None
    # P[a]: the current basis vector a of the Schur complement, in the original basis
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for pivots, value, row in xa.congruence_steps(L.gram):
        if len(pivots) == 2:
            i, j = pivots
            sgn = 1 if value > 0 else -1
            return xa.clear_denominators([[x + sgn * y for x, y in zip(P[i], P[j])]])[1][0]
        p = P[pivots[0]]
        if value > 0:
            return xa.clear_denominators([p])[1][0]
        for a, m in row.items():
            c = m / value
            P[a] = [x - c * y for x, y in zip(P[a], p)]
    return None


def discriminant_group(L):
    """Invariant factors of coker(G), with q (mod 2Z) and b (mod 1) on generators."""
    if not L.is_nondegenerate():
        raise DegenerateLattice("degenerate")
    if L.rank == 0:
        return DiscGroup([])
    res = xa.snf(L.gram)
    torsion = [i for i, d in enumerate(res.diagonal) if d > 1]
    factors = [res.D[i][i] for i in torsion]
    q_values = None
    b_values = None
    if L.is_even() and torsion:
        # from U . G . V = D, the generator Vinv[i] is the coset of U[i] / d_i,
        # so b_ij = (U[i] . Vinv[j]) / d_i
        UV = xa.matmul([res.U[i] for i in torsion], xa.transpose([res.Vinv[j] for j in torsion]))
        B = [[Fraction(x, d) for x in row] for row, d in zip(UV, factors)]
        q_values = [B[i][i] % 2 for i in range(len(B))]
        b_values = [[x % 1 for x in row] for row in B]
    return DiscGroup(factors, q_values, b_values)


def ell(L):
    """Minimal number of generators of the discriminant group: the number of
    Smith diagonal entries of the Gram matrix greater than 1, computed once per lattice."""
    return L._ell


def orthogonal_complement(S):
    """Saturated sublattice of everything pairing to zero with S (primitive by construction)."""
    amb = S.ambient
    if not amb.is_nondegenerate():
        raise DegenerateLattice("degenerate ambient")
    if S.rank == 0:
        return Sublattice(amb, xa.eye(amb.rank))
    pairing = xa.transpose(xa.matmul(S.basis, amb.gram))  # n x k; complement = left kernel
    return Sublattice(amb, xa.kernel_basis(pairing))


def orthogonal_part(S, other):
    """S n other^perp, basis in HNF: the same module and rows as `intersect(S, orthogonal_complement(other))`,
    read off the integer kernel of the rk S x rk other pairing matrix S . G . other^T mapped through S's
    basis, with no rank-n complement."""
    if S.rank == 0 or other.rank == 0:
        return Sublattice(S.ambient, S.hnf_basis())
    ker = xa.kernel_basis(xa.pairings(S.basis, S.ambient.gram, other.basis))
    return Sublattice(S.ambient, xa.hnf(xa.matmul(ker, S.basis)) if ker else [])


def saturation(S):
    """Smallest primitive sublattice containing S."""
    if S.rank == 0:
        return S
    res = xa.snf(S.basis, left=False)
    return Sublattice(S.ambient, xa.hnf(res.Vinv[: res.rank]))


def is_primitive(S):
    if S.rank == 0:
        return True
    return all(d == 1 for d in xa.snf(S.basis, left=False, right=False).diagonal[: S.rank])


def intersect(S1, S2):
    """Exact intersection module (saturated whenever both inputs are primitive)."""
    if S1.ambient.rank != S2.ambient.rank:
        raise ValueError("sublattices must share the ambient lattice")
    if S1.rank == 0 or S2.rank == 0:
        return Sublattice(S1.ambient, [])
    # kernel of x . stacked = 0 where x = (y | z) encodes y . B1 = z . B2
    ker = xa.kernel_basis([*S1.basis, *([-x for x in row] for row in S2.basis)])
    if not ker:
        return Sublattice(S1.ambient, [])
    rows = xa.matmul([row[: S1.rank] for row in ker], S1.basis)
    return Sublattice(S1.ambient, xa.hnf(rows))


def sum_sublattices(S1, S2):
    """The (possibly non-primitive) sum, basis in HNF."""
    if S1.ambient.rank != S2.ambient.rank:
        raise ValueError("sublattices must share the ambient lattice")
    if S1.rank == 0:
        return S2
    if S2.rank == 0:
        return S1
    return Sublattice(S1.ambient, xa.hnf(S1.basis + S2.basis))


def quotient_torsion(S):
    """Invariant factors > 1 of the torsion of S.ambient / S, as a list."""
    if S.rank == 0:
        return []
    return xa.snf(S.basis, left=False, right=False).invariant_factors()


def coker_map(S, T_dual_target):
    """Invariant factors > 1 of the torsion of coker(S -> T*), T* in the dual
    basis of T_dual_target's basis, as a list."""
    if S.ambient.rank != T_dual_target.ambient.rank:
        raise ValueError("sublattices must share the ambient lattice")
    if S.rank == 0 or T_dual_target.rank == 0:
        return []
    M = xa.pairings(S.basis, S.ambient.gram, T_dual_target.basis)
    return xa.snf(M, left=False, right=False).invariant_factors()


def gram_blocks(gram):
    """Connected components of the Gram matrix as (sorted index tuple) lists."""
    n = len(gram)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and gram[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps


def norm_residues(L, k, budget=10**7):
    """{x . G . x^T mod k} over all x in (Z/k)^rank.  The form of an orthogonal
    sum is the sum of the forms of its summands, so this is the sumset mod k of
    the residues of the connected components of G, each found by enumerating
    its k^size vectors; `budget` bounds the total enumerated (75 for
    A2(-1) + 2U(3) mod 5, against 5^6 for the whole lattice)."""
    if k < 2:
        raise ValueError("modulus must be >= 2")
    comps = gram_blocks(L.gram)
    total = sum(k ** len(comp) for comp in comps)
    if total > budget:
        raise EnumerationBudgetExceeded(f"{total} vectors exceeds budget {budget}")
    out = {0}
    for comp in comps:
        G = [[L.gram[i][j] % k for j in comp] for i in comp]
        idx = range(len(comp))
        part = {sum(x[i] * G[i][j] * x[j] for i in idx for j in idx) % k
                for x in product(range(k), repeat=len(comp))}
        out = {(a + b) % k for a in out for b in part}
    return out


def _coordinate_order(bound, first):
    if first:
        seq = [1, 0, -1]
    else:
        seq = [0, 1, -1]
    for m in range(2, bound + 1):
        seq.extend([m, -m])
    return [c for c in seq if abs(c) <= bound]


def candidate_vectors(n, bound):
    """Deterministic search order: shells of increasing max-abs coordinate;
    within a shell, position-major with the first coordinate cycling
    1, 0, -1, 2, -2, ... and later coordinates 0, 1, -1, 2, -2, ...."""
    for shell in range(1, bound + 1):
        for x in product(*(_coordinate_order(shell, i == 0) for i in range(n))):
            if max(map(abs, x)) == shell:
                yield x


def find_primitive_vector(L, norm, bound):
    """A primitive vector of the requested norm with coordinates in [-bound, bound],
    or None (not a nonexistence proof): the first in `candidate_vectors` order.

    The walk fixes all coordinates but the last depth first, carrying the norm
    a of the fixed ones and their linear form on the later ones, and solves
    a + b c + g c^2 = norm for the last coordinate c (Fincke and Pohst, Math.
    Comp. 44, 1985)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    G, last = L.gram, L.rank - 1
    if last < 0:
        return None  # the empty vector is not primitive
    g = G[last][last]

    def walk(i, x, a, lin, top, div):
        # lin[k]: the coefficient of coordinate i + k in the norm; top, div: max |x_j|, gcd of x
        if i < last:
            Gi = G[i]
            for c in orders[i]:
                found = walk(i + 1, x + [c], a + (lin[0] + Gi[i] * c) * c,
                             [f + 2 * c * gij for f, gij in zip(lin[1:], Gi[i + 1:])],
                             max(top, abs(c)), gcd(div, c))
                if found:
                    return found
            return None
        b, rest = lin[0], norm - a
        if g == 0 and b == 0:
            roots = orders[last] if rest == 0 else ()
        elif g == 0:
            roots = (rest // b,) if rest % b == 0 else ()
        else:
            disc = b * b + 4 * g * rest
            r = isqrt(max(disc, 0))
            roots = {(s - b) // (2 * g) for s in (r, -r) if (s - b) % (2 * g) == 0} if r * r == disc else ()
        for c in sorted((c for c in roots if c in place), key=place.get):
            if (top == shell or abs(c) == shell) and gcd(div, c) == 1:
                return x + [c]
        return None

    for shell in range(1, bound + 1):
        orders = [_coordinate_order(shell, i == 0) for i in range(last + 1)]
        place = {c: k for k, c in enumerate(orders[last])}
        found = walk(0, [], 0, [0] * (last + 1), 0, 0)
        if found:
            return found
    return None


def _definite_decomposition(G):
    """G positive definite -> list of (d_i, row_i) with x G x^T = sum d_i (x_i + u_i . x_{>i})^2."""
    n = len(G)
    ds = []
    us = []
    for k, (pivots, d, row) in enumerate(xa.congruence_steps(G)):
        if pivots != (k,) or d <= 0:
            raise ValueError("not positive definite")
        ds.append(d)
        us.append([row.get(j, 0) / d for j in range(k + 1, n)])
    return ds, us


def _floor_sqrt_fraction(f):
    if f < 0:
        return -1
    return isqrt((f.numerator * f.denominator)) // f.denominator if f.denominator != 1 else isqrt(f.numerator)


def definite_form_represents(L, m):
    """Exact decision: does some integer vector have norm exactly m?  Positive definite only."""
    if signature(L)[1] != 0:
        raise ValueError("indefinite: use find_primitive_vector")
    if m == 0:
        return True
    if m < 0:
        return False
    ds, us = _definite_decomposition(L.gram)
    n = L.rank

    def walk(i, remaining, tail):
        # remaining = m - sum of completed squares; tail holds x_{i+1..n-1}
        if i < 0:
            return remaining == 0
        shift = sum(us[i][j - i - 1] * tail[j - i - 1] for j in range(i + 1, n))
        # d_i (x_i + shift)^2 <= remaining
        bound = Fraction(remaining) / ds[i]
        # |x_i + shift| <= sqrt(bound)
        r = _floor_sqrt_fraction(bound)
        lo = -r - 2
        hi = r + 2
        for xi in range(int(lo - shift) - 1, int(hi - shift) + 2):
            val = ds[i] * (xi + shift) ** 2
            if val <= remaining:
                if walk(i - 1, remaining - val, [xi] + tail):
                    return True
        return False

    return walk(n - 1, Fraction(m), [])
