"""Exact pointwise linear algebra of the stable 3-form on R^7: model forms,
cross products, metric recovery, calibration tests, and the induced structures
on hyperplanes.  Everything is computed over Q; the only irrational quantity
(a 9th root) is taken exactly whenever the radicand is a rational 9th power,
and as a tainted float otherwise."""

import functools
import itertools
from fractions import Fraction
from math import exp, log

from . import exactalg as xa
from . import lattice as lat


class Form:
    """Alternating k-form: coefficients on strictly increasing index tuples
    (0-based), exact rationals."""

    def __init__(self, degree, dimension, coeffs=None):
        self.degree = degree
        self.dimension = dimension
        self.coeffs = {}
        for idx, c in (coeffs or {}).items():
            self[idx] = c

    def __setitem__(self, idx, value):
        idx = tuple(idx)
        sgn, canon = _canonical(idx)
        if sgn == 0:
            raise ValueError("repeated index")
        value = Fraction(value) * sgn
        if value:
            self.coeffs[canon] = value
        else:
            self.coeffs.pop(canon, None)

    def __getitem__(self, idx):
        sgn, canon = _canonical(tuple(idx))
        if sgn == 0:
            return Fraction(0)
        return sgn * self.coeffs.get(canon, Fraction(0))

    def _add(self, canon, value):
        """Add value to the coefficient on the sorted index tuple canon,
        dropping the term when it becomes zero."""
        value += self.coeffs.get(canon, 0)
        if value:
            self.coeffs[canon] = value
        else:
            self.coeffs.pop(canon, None)

    def __add__(self, other):
        out = Form(self.degree, self.dimension)
        for idx, c in itertools.chain(self.coeffs.items(), other.coeffs.items()):
            out._add(idx, c)
        return out

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        out = Form(self.degree, self.dimension)
        scalar = Fraction(scalar)
        if scalar:
            for idx, c in self.coeffs.items():
                out.coeffs[idx] = scalar * c
        return out

    def __eq__(self, other):
        return (self.degree, self.dimension, self.coeffs) == (
            other.degree,
            other.dimension,
            other.coeffs,
        )

    def is_zero(self):
        return not self.coeffs

    def wedge(self, other):
        out = Form(self.degree + other.degree, self.dimension)
        for i1, c1 in self.coeffs.items():
            for i2, c2 in other.coeffs.items():
                sgn, canon = _canonical(i1 + i2)
                if sgn:
                    out._add(canon, sgn * c1 * c2)
        return out

    def contract(self, v):
        """Interior product v -| form."""
        v = _fvec(v, self.dimension)
        out = Form(self.degree - 1, self.dimension)
        for idx, c in self.coeffs.items():
            for pos, i in enumerate(idx):
                if v[i]:
                    out._add(idx[:pos] + idx[pos + 1 :], (-1) ** pos * c * v[i])
        return out

    def evaluate(self, *vectors):
        if len(vectors) != self.degree:
            raise ValueError("arity mismatch")
        # successive interior products: a -| then b -| ... gives form(a, b, ...)
        out = self
        for v in vectors:
            out = out.contract(v)
        return out.coeffs.get((), Fraction(0)) if out.degree == 0 else out

    def top_coefficient(self):
        if self.degree != self.dimension:
            raise ValueError("not a top form")
        return self.coeffs.get(tuple(range(self.dimension)), Fraction(0))


def _canonical(idx):
    """(sign, sorted idx), the sign of the sorting permutation being
    (-1)^(number of inversions); (0, ()) when an index repeats."""
    if len(set(idx)) != len(idx):
        return 0, ()
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return (-1) ** inversions, tuple(sorted(idx))


def _fvec(v, n):
    out = [Fraction(x) for x in v]
    if len(out) != n:
        raise ValueError("dimension mismatch")
    return out


def form_from_terms(degree, dimension, terms):
    """terms: iterable of (coefficient, one-based index string or tuple)."""
    f = Form(degree, dimension)
    for c, idx in terms:
        if isinstance(idx, str):
            idx = tuple(int(ch) - 1 for ch in idx)
        else:
            idx = tuple(i - 1 for i in idx)
        f[idx] += Fraction(c)
    return f


def phi0():
    """The model 3-form: the seven signed terms exactly as standard."""
    return form_from_terms(3, 7, [
        (1, "123"), (1, "145"), (1, "167"), (1, "246"),
        (-1, "257"), (-1, "347"), (-1, "356"),
    ])


def psi0():
    """Its 4-form dual, again term by term."""
    return form_from_terms(4, 7, [
        (-1, "1247"), (-1, "1256"), (-1, "1346"), (1, "1357"),
        (1, "2345"), (1, "2367"), (1, "4567"),
    ])


class Metric:
    def __init__(self, matrix):
        self.matrix = [[Fraction(x) for x in row] for row in matrix]
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("metric must be square")
        self.dimension = n

    def pair(self, u, v):
        return xa.pair(_fvec(u, self.dimension), self.matrix, _fvec(v, self.dimension))

    def signature(self):
        # one common denominator keeps the scaled matrix symmetric
        _, scaled = xa.clear_denominators(self.matrix)
        return lat.signature(lat.Lattice(scaled)).as_pair()

    @functools.cached_property
    def _inverse(self):
        # filled by the first solve, not by __init__: a metric that is never
        # solved keeps the attributes matrix and dimension only
        return xa.rational_inverse(self.matrix)

    def solve(self, rhs):
        """The unique w with matrix . w = rhs (column convention irrelevant: symmetric)."""
        return xa.matmul([_fvec(rhs, self.dimension)], self._inverse)[0]


def identity_metric(n=7):
    return Metric(xa.eye(n))


@functools.lru_cache(maxsize=None)
def _identity(n):
    """The identity metric behind every g=None default, one per dimension, so
    that it is inverted once; never handed to a caller."""
    return identity_metric(n)


def _raise_index(form, vectors, g):
    """The w with g(w, .) = form(v1, ..., vk, .): the vectors contracted into
    the (k+1)-form in order, then the remaining index raised through g."""
    g = g if g is not None else _identity(form.dimension)
    for v in vectors:
        form = form.contract(v)
    return g.solve([form.coeffs.get((i,), Fraction(0)) for i in range(form.dimension)])


def cross(u, v, phi=None, g=None):
    """The unique w with g(w, .) = phi(u, v, .)."""
    return _raise_index(phi if phi is not None else phi0(), (u, v), g)


def chi(v, w, x, psi=None, g=None):
    """The vector-valued alternating 3-form: g(u, chi/2) = psi(u, v, w, x)."""
    # psi(v, w, x, u) = -psi(u, v, w, x): moving u to the front is 3 transpositions
    return [-2 * y for y in _raise_index(psi if psi is not None else psi0(), (v, w, x), g)]


VOL_TOLERANCE = 1e-12


class MetricFromForm:
    def __init__(self, g, vol, positive, exact):
        self.g = g
        self.vol = vol
        self.positive = positive
        self.exact = exact  # False: vol taken as a float 9th root, g tainted


class DegenerateForm:
    def __repr__(self):
        return "DegenerateForm()"


def _rational_ninth_root(q):
    """The exact rational r with r^9 = q, or None."""
    if q == 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    rn = _int_ninth_root(abs(num))
    rd = _int_ninth_root(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn if num > 0 else -rn, rd)


def _int_ninth_root(n):
    if n == 0:
        return 0
    lo, hi = 0, 1 << (n.bit_length() // 9 + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid**9
        if v == n:
            return mid
        if v < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def metric_from_3form(phi):
    """B(v, w) = (1/6) (v -| phi) ^ (w -| phi) ^ phi, then vol^9 = det and
    g = B / vol.  DegenerateForm when the induced map vanishes identically."""
    n = phi.dimension
    B = [[Fraction(0)] * n for _ in range(n)]
    contractions = [phi.contract(e) for e in xa.eye(n)]
    for i in range(n):
        for j in range(i, n):
            top = contractions[i].wedge(contractions[j]).wedge(phi)
            B[i][j] = B[j][i] = Fraction(1, 6) * top.top_coefficient()
    det = _rational_det(B)
    if det == 0:
        return DegenerateForm()
    root = _rational_ninth_root(det)
    if root is not None:
        vol = root
        g = Metric([[x / vol for x in row] for row in B])
        exact = True
    else:
        # through logarithms, since det B can lie beyond the float range
        log_det = log(abs(det.numerator)) - log(det.denominator)
        vol = exp(log_det / 9) if det > 0 else -exp(log_det / 9)
        assert abs(9 * log(abs(vol)) - log_det) <= VOL_TOLERANCE * max(1.0, abs(log_det))
        g = Metric([[Fraction(float(x) / vol).limit_denominator(10**15) for x in row] for row in B])
        exact = False
    positive = g.signature() == (n, 0)
    return MetricFromForm(g, vol, positive, exact)


def _rational_det(rows):
    """Exact determinant of a rational n x n matrix B: det(D B) / D^n, with D
    the common denominator of its entries."""
    D, ints = xa.clear_denominators(rows)
    return Fraction(xa.det(ints), D ** len(rows))


def gram_determinant(vectors, g=None):
    g = g if g is not None else _identity(len(vectors[0]))
    return _rational_det([[g.pair(a, b) for b in vectors] for a in vectors])


def _calibrated(form, vectors, g):
    """True iff the span of the vectors is calibrated by the form (for one
    orientation): form(vectors)^2 equals their nonzero Gram determinant."""
    gd = gram_determinant(vectors, g)
    if gd == 0:
        raise ValueError("degenerate span")
    return form.evaluate(*vectors) ** 2 == gd


def is_associative(u, v, w, phi=None, g=None):
    """True iff the span is calibrated by the 3-form (for one orientation)."""
    return _calibrated(phi if phi is not None else phi0(), [u, v, w], g)


def is_coassociative(u, v, w, x, psi=None, g=None):
    """True iff the span is calibrated by the 4-form (for one orientation)."""
    return _calibrated(psi if psi is not None else psi0(), [u, v, w, x], g)


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
    im_rot = (c * im_om) + (s * re_om)
    return pullback(omega, vectors).is_zero() and pullback(im_rot, vectors).is_zero()


class SU3Structure:
    """The forms live on the full space but annihilate u: omega, Re Omega and
    Im Omega are the projections of u -| phi, phi and -(u -| psi) onto u-perp."""

    def __init__(self, omega, re_omega, im_omega, basis):
        self.omega = omega
        self.re_omega = re_omega
        self.im_omega = im_omega
        self.basis = basis  # rows spanning the hyperplane u-perp


def pullback(form, matrix):
    """(M* form)(x, ...) = form(x . M, ...) for a k x n matrix M, a form on R^k:
    the rows of M are the images of its basis vectors in R^n."""
    rows = [_fvec(row, form.dimension) for row in matrix]
    out = Form(form.degree, len(rows))
    for idx in itertools.combinations(range(len(rows)), form.degree):
        out._add(idx, form.evaluate(*(rows[i] for i in idx)))
    return out


def su3_from_unit_vector(phi, u, g=None, psi=None):
    """Split off the SU(3)-structure on u-perp: omega from u -| phi, Re Omega
    from phi, Im Omega from -(u -| psi), all projected to u-perp; verifies the
    compatibility pair and the reconstruction identities exactly."""
    g = g if g is not None else _identity(phi.dimension)
    psi = psi if psi is not None else psi0()
    if g.pair(u, u) != 1:
        raise ValueError("u must be a unit vector")
    n = phi.dimension
    uf = _fvec(u, n)
    gu = xa.matmul([uf], g.matrix)[0]  # the covector g(u, .)
    # orthogonal projection onto u-perp: x -> x - g(u, x) u, as a matrix of images
    proj = [[int(k == i) - c * x for k, x in enumerate(uf)] for i, c in enumerate(gu)]
    omega = pullback(phi.contract(u), proj)
    re_om = pullback(phi, proj)
    im_om = pullback((-1) * psi.contract(u), proj)
    # compatibility: Omega ^ omega = 0 and the volume normalization, which for
    # complex dimension 3 reads (1/4) Re Omega ^ Im Omega = omega^3 / 6
    if not re_om.wedge(omega).is_zero() or not im_om.wedge(omega).is_zero():
        raise AssertionError("structure fails Omega ^ omega = 0")
    lhs = Fraction(1, 4) * re_om.wedge(im_om)
    rhs = Fraction(1, 6) * omega.wedge(omega).wedge(omega)
    if not (lhs - rhs).is_zero():
        raise AssertionError("structure fails the volume normalization")
    # reconstruction of the two model forms from the split data
    dt = Form(1, n, {(i,): c for i, c in enumerate(gu)})
    if not (dt.wedge(omega) + re_om - phi).is_zero():
        raise AssertionError("3-form reconstruction fails")
    recon4 = Fraction(1, 2) * omega.wedge(omega) - dt.wedge(im_om)
    if not (recon4 - psi).is_zero():
        raise AssertionError("4-form reconstruction fails")
    # exact basis of u-perp, for reference and restriction
    _, ints = xa.clear_denominators([[c] for c in gu])
    basis = xa.kernel_basis(ints)
    return SU3Structure(omega, re_om, im_om, basis)


def verify_identity_suite(samples=100, seed=0):
    """Evaluate the cross-product norm identity, the double-cross identity,
    the calibration decomposition identity on all basis triples and `samples`
    seeded rational triples, and the wedge relations of the standard triple of
    2-forms on R^4.  Aborts with a counterexample on any failure."""
    import random

    phi = phi0()
    psi = psi0()
    g = identity_metric(7)
    rng = random.Random(seed)

    def norm2(v):
        return g.pair(v, v)

    def check_triple(u, v, w, tag):
        uxv = cross(u, v, phi, g)
        lhs = norm2(uxv)
        rhs = norm2(u) * norm2(v) - g.pair(u, v) ** 2
        if lhs != rhs:
            raise AssertionError(f"cross-norm identity fails on {tag}")
        cv = cross(v, w, phi, g)
        lhs_b = [a + b for a, b in zip(cross(u, cv, phi, g), cross(uxv, w, phi, g))]
        uw, uv, wv = 2 * g.pair(u, w), g.pair(u, v), g.pair(w, v)
        rhs_b = [uw * b - uv * c - wv * a for a, b, c in zip(_fvec(u, 7), _fvec(v, 7), _fvec(w, 7))]
        if any(a != b for a, b in zip(lhs_b, rhs_b)):
            raise AssertionError(f"double-cross identity fails on {tag}")
        chv = chi(u, v, w, psi, g)
        lhs_c = phi.evaluate(u, v, w) ** 2 + Fraction(1, 4) * norm2(chv)
        rhs_c = gram_determinant([u, v, w], g)
        if lhs_c != rhs_c:
            raise AssertionError(f"calibration decomposition fails on {tag}")

    basis = xa.eye(7)
    count = 0
    for i, j, k in itertools.product(range(7), repeat=3):
        check_triple(basis[i], basis[j], basis[k], f"basis ({i},{j},{k})")
        count += 1
    for s in range(samples):
        u = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)]
        v = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)]
        w = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)]
        check_triple(u, v, w, f"sample {s}")
        count += 1

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
    return {"triples_checked": count, "hk_square": squares[0]}
