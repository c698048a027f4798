"""Exact pointwise linear algebra of the stable 3-form on R^7: model forms,
cross products, metric recovery, calibration tests, and the induced structures
on hyperplanes.  Computed on integer numerators over a common denominator and
returned as Fractions; the only irrational quantity (a 9th root) is exact when
the radicand is a rational 9th power, and a tainted float otherwise."""

import functools
import itertools
from fractions import Fraction
from math import exp, lcm, log
from operator import mul, xor

from . import exactalg as xa
from . import lattice as lat


class Form:
    """Alternating k-form: exact rational coefficients on increasing 0-based index tuples."""

    def __init__(self, degree, dimension, coeffs=None):
        self.degree, self.dimension, self.coeffs = degree, dimension, {}
        for idx, c in (coeffs or {}).items():
            self[idx] = c

    def __setitem__(self, idx, value):
        sgn, canon = _canonical(tuple(idx))
        if sgn == 0:
            raise ValueError("repeated index")
        self.coeffs[canon] = Fraction(value) * sgn
        if not self.coeffs[canon]:
            del self.coeffs[canon]

    def __getitem__(self, idx):
        sgn, canon = _canonical(tuple(idx))  # a repeated index gives sign 0
        return sgn * self.coeffs.get(canon, Fraction(0))

    def __add__(self, other):
        return _form(self.degree, self.dimension, *_sum(_numerators(self), _numerators(other)))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        (d, terms), scalar = _numerators(self), Fraction(scalar)
        return _form(self.degree, self.dimension, d * scalar.denominator,
                     {idx: c * scalar.numerator for idx, c in terms.items()})

    def __eq__(self, other):
        if isinstance(other, Form):
            return (self.degree, self.dimension, self.coeffs) == (other.degree, other.dimension, other.coeffs)
        return NotImplemented

    def is_zero(self):
        return not self.coeffs

    def wedge(self, other):
        (d1, a), (d2, b) = _numerators(self), _numerators(other)
        return _form(self.degree + other.degree, self.dimension, d1 * d2, _wedge(a, b))

    def evaluate(self, *vectors):
        """form(v1, ..., vk): the one coefficient of its pullback to their span."""
        if len(vectors) != self.degree:
            raise ValueError("arity mismatch")
        return pullback(self, vectors).coeffs.get(tuple(range(self.degree)), Fraction(0))

    def top_coefficient(self):
        if self.degree != self.dimension:
            raise ValueError("not a top form")
        return self.coeffs.get(tuple(range(self.dimension)), Fraction(0))


@functools.lru_cache(maxsize=1024)
def _canonical(idx):
    """(sign of the sorting permutation, sorted idx); (0, ()) when an index repeats."""
    if len(set(idx)) != len(idx):
        return 0, ()
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return (-1) ** inversions, tuple(sorted(idx))


def _fvec(v, n):
    if len(v) != n:
        raise ValueError("dimension mismatch")
    return v if type(v) is list and all(type(x) is Fraction for x in v) else [Fraction(x) for x in v]


def _clear(vectors, n):
    """(D, integer rows) with vectors = rows / D; entries are ints or Fractions."""
    if any(len(v) != n for v in vectors):
        raise ValueError("dimension mismatch")
    return xa.clear_denominators(vectors)


# internally a form is (D, {idx: integer numerator}): numerator / D, D may be negative
def _numerators(form):
    d = lcm(*(c.denominator for c in form.coeffs.values()))
    return d, {idx: c.numerator * (d // c.denominator) for idx, c in form.coeffs.items()}


def _form(degree, dimension, den, nums):
    out = Form(degree, dimension)
    out.coeffs = {idx: Fraction(c, den) for idx, c in nums.items() if c}
    return out


def _sum(*parts):
    common = lcm(*(den for den, _ in parts))
    total = {}
    for den, nums in parts:
        for idx, c in nums.items():
            total[idx] = total.get(idx, 0) + c * (common // den)
    return common, {idx: c for idx, c in total.items() if c}


def _wedge(a, b):
    """On bit masks: for disjoint sorted I and J, sorting I + J takes popcount(odd(I) & mask(J))
    transpositions, odd(I) having the bits j below an odd number of the indices in I."""
    out, b = {}, [(sum(1 << i for i in idx), c) for idx, c in b.items()]
    for idx, c1 in a.items():
        m1, odd = sum(1 << i for i in idx), functools.reduce(xor, ((1 << i) - 1 for i in idx), 0)
        for m2, c2 in b:
            if not m1 & m2:
                out[m1 | m2] = out.get(m1 | m2, 0) + (-c1 * c2 if (odd & m2).bit_count() & 1 else c1 * c2)
    return {tuple(i for i in range(m.bit_length()) if m >> i & 1): c for m, c in out.items() if c}


def _contract(terms, v):
    out = {}
    for idx, c in terms.items():
        for pos, i in enumerate(idx):
            if v[i]:
                rest = idx[:pos] + idx[pos + 1 :]
                out[rest] = out.get(rest, 0) + (-1) ** pos * c * v[i]
    return {idx: c for idx, c in out.items() if c}


def _pull(terms, rows):
    """Cauchy-Binet: the coefficient on J sums c_I det rows[J][:, I] over the terms I, each
    minor expanded down its first column; row j enters the row mask R at popcount(R & (2^j - 1))."""
    out = {}
    for idx, c in terms.items():
        minors = {0: c}
        for i in reversed(idx):
            nxt = {}
            for R, m in minors.items():
                for j, row in enumerate(rows):
                    if row[i] and not R >> j & 1:
                        t = -row[i] * m if (R & ((1 << j) - 1)).bit_count() & 1 else row[i] * m
                        nxt[R | 1 << j] = nxt.get(R | 1 << j, 0) + t
            minors = {R: m for R, m in nxt.items() if m}
        for J, m in minors.items():
            out[J] = out.get(J, 0) + m
    return {tuple(i for i in range(m.bit_length()) if m >> i & 1): c for m, c in out.items() if c}


def form_from_terms(degree, dimension, terms):
    """terms: iterable of (coefficient, one-based index string or tuple)."""
    f = Form(degree, dimension)
    for c, idx in terms:
        f[tuple(int(i) - 1 for i in idx)] += Fraction(c)
    return f


# built once: phi0() and psi0() hand out copies; the defaults read them
_PHI0 = form_from_terms(3, 7, [(1, "123"), (1, "145"), (1, "167"), (1, "246"),
                               (-1, "257"), (-1, "347"), (-1, "356")])
_PSI0 = form_from_terms(4, 7, [(-1, "1247"), (-1, "1256"), (-1, "1346"), (1, "1357"),
                               (1, "2345"), (1, "2367"), (1, "4567")])


def phi0():
    """The model 3-form: the seven signed terms exactly as standard."""
    return Form(3, 7, _PHI0.coeffs)


def psi0():
    """Its 4-form dual, again term by term."""
    return Form(4, 7, _PSI0.coeffs)


class Metric:
    def __init__(self, matrix):
        self.matrix = [[Fraction(x) for x in row] for row in matrix]
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("metric must be square")
        if any(self.matrix[i][j] != self.matrix[j][i] for i in range(n) for j in range(i)):
            raise ValueError("metric must be symmetric")
        self.dimension = n

    # filled on first use: a metric never paired or solved has matrix and dimension only
    @functools.cached_property
    def _is_identity(self):
        return self.matrix == xa.eye(self.dimension)

    @functools.cached_property
    def _inverse(self):
        return xa.clear_denominators(xa.rational_inverse(self.matrix))

    def pair(self, u, v):
        den, (a, b) = _clear([u, v], self.dimension)
        return Fraction(sum(map(mul, a, b)) if self._is_identity else xa.pair(a, self.matrix, b), den * den)

    def signature(self):
        _, scaled = xa.clear_denominators(self.matrix)  # stays symmetric
        return lat.signature(lat.Lattice(scaled))

    def solve(self, rhs):
        """The unique w with matrix . w = rhs (column convention irrelevant: symmetric)."""
        if self._is_identity:
            return _fvec(rhs, self.dimension)
        (d, inverse), (den, (r,)) = self._inverse, _clear([rhs], self.dimension)
        return [Fraction(x, d * den) for x in xa.matmul([r], inverse)[0]]


def identity_metric(n=7):
    return Metric(xa.eye(n))


_identity = functools.lru_cache(maxsize=None)(identity_metric)  # the g=None default, kept from callers


def _raise_numerators(terms, rows):
    """The integer vector (terms(r1, ..., rk, e_i))_i: the integer rows contracted in order."""
    for v in rows:
        terms = _contract(terms, v)
    return [terms.get((i,), 0) for i in range(len(rows[0]))]


def _raise_index(form, vectors, g, scale=1):
    """The w with g(w, .) = scale * form(v1, ..., vk, .): the vectors contracted in order."""
    (d, terms), (den, rows) = _numerators(form), _clear(vectors, form.dimension)
    rhs = [Fraction(scale * c, d * den ** len(rows)) for c in _raise_numerators(terms, rows)]
    return (g if g is not None else _identity(form.dimension)).solve(rhs)


def cross(u, v, phi=None, g=None):
    """The unique w with g(w, .) = phi(u, v, .)."""
    return _raise_index(phi if phi is not None else _PHI0, (u, v), g)


def chi(v, w, x, psi=None, g=None):
    """The vector-valued alternating 3-form: g(u, chi/2) = psi(u, v, w, x)."""
    # psi(v, w, x, u) = -psi(u, v, w, x): moving u to the front is 3 transpositions
    return _raise_index(psi if psi is not None else _PSI0, (v, w, x), g, -2)


VOL_TOLERANCE = 1e-12


class MetricFromForm:
    def __init__(self, g, vol, positive, exact):
        self.g, self.vol, self.positive, self.exact = g, vol, positive, exact  # exact False: float vol


class DegenerateForm:
    def __repr__(self):
        return "DegenerateForm()"


def _rational_ninth_root(q):
    """The exact rational r with r^9 = q, or None (Newton's method from above)."""
    roots = []
    for n in (abs(q.numerator), q.denominator):
        r = 1 << -(-n.bit_length() // 9)
        while r**9 > n:
            r = (8 * r + n // r**8) // 9
        if r**9 != n:
            return None
        roots.append(r)
    return Fraction(roots[0] if q > 0 else -roots[0], roots[1])


def metric_from_3form(phi):
    """B(v, w) = (1/6) (v -| phi) ^ (w -| phi) ^ phi, then vol^9 = det and
    g = B / vol.  DegenerateForm when the induced map vanishes identically."""
    n = phi.dimension
    if 3 * phi.degree - 2 != n:
        raise ValueError("not a top form")
    d, terms = _numerators(phi)
    # top(gamma ^ phi) = sum of gamma_J sign(J K) phi_K, J the complement of a term K
    dual = {K: tuple(i for i in range(n) if i not in K) for K in terms}
    dual = {J: _canonical(J + K)[0] * terms[K] for K, J in dual.items()}
    tops, contractions = [[0] * n for _ in range(n)], [_contract(terms, e) for e in xa.eye(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        gamma = _wedge(contractions[i], contractions[j])
        tops[i][j] = tops[j][i] = sum(c * dual.get(J, 0) for J, c in gamma.items())
    B = [[Fraction(t, 6 * d**3) for t in row] for row in tops]
    det = Fraction(xa.det(tops), (6 * d**3) ** n)
    if det == 0:
        return DegenerateForm()
    vol = _rational_ninth_root(det)
    if vol is not None:
        g = Metric([[x / vol for x in row] for row in B])
    else:
        # through logarithms, since det B can lie beyond the float range
        log_det = log(abs(det.numerator)) - log(det.denominator)
        vol = exp(log_det / 9) if det > 0 else -exp(log_det / 9)
        assert abs(9 * log(abs(vol)) - log_det) <= VOL_TOLERANCE * max(1.0, abs(log_det))
        g = Metric([[Fraction(float(x) / vol).limit_denominator(10**15) for x in row] for row in B])
    return MetricFromForm(g, vol, g.signature() == (n, 0), not isinstance(vol, float))


def gram_determinant(vectors, g=None):
    """Of the symmetric Gram matrix, from k(k+1)/2 pairings."""
    if not vectors:
        raise ValueError("need at least one vector")
    g, k = g if g is not None else _identity(len(vectors[0])), len(vectors)
    gram = [[None] * k for _ in range(k)]
    for i, j in itertools.combinations_with_replacement(range(k), 2):
        gram[i][j] = gram[j][i] = g.pair(vectors[i], vectors[j])
    den, ints = xa.clear_denominators(gram)
    return Fraction(xa.det(ints), den**k)


def _calibrated(form, vectors, g):
    """Calibrated (for one orientation): form(vectors)^2 equals the nonzero Gram determinant."""
    gd = gram_determinant(vectors, g)
    if gd == 0:
        raise ValueError("degenerate span")
    return form.evaluate(*vectors) ** 2 == gd


def is_associative(u, v, w, phi=None, g=None):
    """True iff the span is calibrated by the 3-form (for one orientation)."""
    return _calibrated(phi if phi is not None else _PHI0, [u, v, w], g)


def is_coassociative(u, v, w, x, psi=None, g=None):
    """True iff the span is calibrated by the 4-form (for one orientation)."""
    return _calibrated(psi if psi is not None else _PSI0, [u, v, w, x], g)


def standard_su3_forms():
    """(omega0, Re Omega0, Im Omega0) on the hyperplane coordinates 2..7,
    expressed as forms on R^7 with z1 = x2 + ix3, z2 = x4 + ix5, z3 = x6 + ix7."""
    omega = form_from_terms(2, 7, [(1, "23"), (1, "45"), (1, "67")])
    re_om = form_from_terms(3, 7, [(1, "246"), (-1, "257"), (-1, "347"), (-1, "356")])
    im_om = form_from_terms(3, 7, [(1, "247"), (1, "256"), (1, "346"), (-1, "357")])
    return omega, re_om, im_om


def is_special_lagrangian(vectors, phase=(1, 0)):
    """True iff omega0 and Im(e^{i theta} Omega0) both restrict to zero on the
    real 3-plane; phase = (cos, sin) as exact rationals on the unit circle."""
    if len(vectors) != 3:
        raise ValueError("need a real 3-plane")
    if gram_determinant(vectors) == 0:
        raise ValueError("degenerate span")
    c, s = Fraction(phase[0]), Fraction(phase[1])
    if c * c + s * s != 1:
        raise ValueError("phase must be a rational point on the unit circle")
    omega, re_om, im_om = standard_su3_forms()
    # Im(e^{i theta} Omega) = cos . Im Omega + sin . Re Omega
    return all(pullback(f, vectors).is_zero() for f in (omega, c * im_om + s * re_om))


class SU3Structure:
    """The forms live on the full space but annihilate u: omega, Re Omega and
    Im Omega are the projections of u -| phi, phi and -(u -| psi) onto u-perp."""

    def __init__(self, omega, re_omega, im_omega, basis):
        # basis: rows spanning the hyperplane u-perp
        self.omega, self.re_omega, self.im_omega, self.basis = omega, re_omega, im_omega, basis


def pullback(form, matrix):
    """(M* form)(x, ...) = form(x . M, ...) for a k x n matrix M, a form on R^k:
    the rows of M are the images of its basis vectors in R^n."""
    (d, terms), (den, rows) = _numerators(form), _clear(matrix, form.dimension)
    return _form(form.degree, len(rows), d * den**form.degree, _pull(terms, rows))


def su3_from_unit_vector(phi, u, g=None, psi=None):
    """Split off the SU(3)-structure on u-perp: omega from u -| phi, Re Omega
    from phi, Im Omega from -(u -| psi), all projected to u-perp; verifies the
    compatibility pair and the reconstruction identities exactly."""
    g, psi = g if g is not None else _identity(phi.dimension), psi if psi is not None else _PSI0
    if g.pair(u, u) != 1:
        raise ValueError("u must be a unit vector")
    n, p, q = phi.dimension, phi.degree, psi.degree
    du, (U,) = _clear([u], n)
    dg, (gu,) = (du, (U,)) if g._is_identity else _clear([xa.matmul([u], g.matrix)[0]], n)
    # g(u, .) = gu / dg; proj / (du dg) maps x to its projection x - g(u, x) u onto u-perp
    proj = [[du * dg * (k == i) - c * x for k, x in enumerate(U)] for i, c in enumerate(gu)]
    (d, phi_n), (e, psi_n), dp = _numerators(phi), _numerators(psi), du * dg
    omega = (d * du * dp ** (p - 1), _pull(_contract(phi_n, U), proj))
    re_om = (d * dp**p, _pull(phi_n, proj))
    im_om = (-e * du * dp ** (q - 1), _pull(_contract(psi_n, U), proj))
    # compatibility: Omega ^ omega = 0 and the normalization (1/4) Re Omega ^ Im Omega = omega^3 / 6
    if _wedge(re_om[1], omega[1]) or _wedge(im_om[1], omega[1]):
        raise AssertionError("structure fails Omega ^ omega = 0")
    omega2 = _wedge(omega[1], omega[1])
    if _sum((4 * re_om[0] * im_om[0], _wedge(re_om[1], im_om[1])),
            (-6 * omega[0] ** 3, _wedge(omega2, omega[1])))[1]:
        raise AssertionError("structure fails the volume normalization")
    # reconstruction of the two model forms from the split data
    dt = {(i,): c for i, c in enumerate(gu) if c}
    if _sum((dg * omega[0], _wedge(dt, omega[1])), re_om, (-d, phi_n))[1]:
        raise AssertionError("3-form reconstruction fails")
    if _sum((2 * omega[0] ** 2, omega2), (-dg * im_om[0], _wedge(dt, im_om[1])), (-e, psi_n))[1]:
        raise AssertionError("4-form reconstruction fails")
    basis = xa.kernel_basis([[c] for c in gu])  # exact basis of u-perp
    return SU3Structure(_form(p - 1, n, *omega), _form(p, n, *re_om), _form(q - 1, n, *im_om), basis)


def verify_identity_suite(samples=100, seed=0):
    """Evaluate the cross-product norm identity, the double-cross identity,
    the calibration decomposition identity on all basis triples and `samples`
    seeded rational triples, and the wedge relations of the standard triple of
    2-forms on R^4.  Aborts with a counterexample on any failure.

    A triple is cleared once to integer rows U, V, W over one denominator D. Each identity
    (identity metric), multiplied through by its denominators, is decided on the integer
    numerators that `cross`, `chi` and `Form.evaluate` divide at their boundary; D cancels."""
    import random

    (dp, phi), (ds, psi), rng = _numerators(phi0()), _numerators(psi0()), random.Random(seed)

    def check_triple(U, V, W, tag):
        # cross(u, v) = X / (dp D^2), chi(u, v, w) = -2 H / (ds D^3), phi(u, v, w) = ev / (dp D^3)
        gram = [[sum(map(mul, a, b)) for b in (U, V, W)] for a in (U, V, W)]
        (uu, uv, uw), (_, vv, vw) = gram[:2]
        X = _raise_numerators(phi, (U, V))
        if sum(map(mul, X, X)) != dp * dp * (uu * vv - uv * uv):
            raise AssertionError(f"cross-norm identity fails on {tag}")
        A1, A2 = _raise_numerators(phi, (U, _raise_numerators(phi, (V, W)))), _raise_numerators(phi, (X, W))
        if any(x + y != dp * dp * (2 * uw * b - uv * c - vw * a) for x, y, a, b, c in zip(A1, A2, U, V, W)):
            raise AssertionError(f"double-cross identity fails on {tag}")
        ev, H = _pull(phi, (U, V, W)).get((0, 1, 2), 0), _raise_numerators(psi, (U, V, W))
        if ds * ds * ev * ev + dp * dp * sum(map(mul, H, H)) != dp * dp * ds * ds * xa.det(gram):
            raise AssertionError(f"calibration decomposition fails on {tag}")

    basis = xa.eye(7)
    for i, j, k in itertools.product(range(7), repeat=3):
        check_triple(basis[i], basis[j], basis[k], f"basis ({i},{j},{k})")
    for s in range(samples):
        # u, v, w: seven entries p / q each, drawn in that order; D = lcm of the 21 q
        drawn = [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(21)]
        D = lcm(*(q for _, q in drawn))
        check_triple(*([p * (D // q) for p, q in drawn[r : r + 7]] for r in (0, 7, 14)), f"sample {s}")

    # the standard triple of 2-forms on R^4 and its wedge relations
    wI = form_from_terms(2, 4, [(1, "12"), (1, "34")])
    wJ = form_from_terms(2, 4, [(1, "13"), (-1, "24")])
    wK = form_from_terms(2, 4, [(1, "14"), (1, "23")])
    squares = [w.wedge(w).top_coefficient() for w in (wI, wJ, wK)]
    if not (squares[0] == squares[1] == squares[2] == 2):
        raise AssertionError("squares of the standard 2-form triple disagree")
    for a, b in ((wI, wJ), (wJ, wK), (wK, wI)):
        if not a.wedge(b).is_zero():
            raise AssertionError("mixed wedge of the standard 2-form triple is nonzero")
    return {"triples_checked": len(basis) ** 3 + max(samples, 0), "hk_square": squares[0]}
