import io
import itertools
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcslat import exactalg as xa
from tcslat import g2alg

_PHI0, _PSI0 = g2alg.phi0, g2alg.psi0  # the factories, kept before any test patches them


def e(i, n=7):
    return [1 if k == i - 1 else 0 for k in range(n)]


def test_model_form_coefficients():
    phi = g2alg.phi0()
    assert phi[(0, 1, 2)] == 1
    assert phi[(1, 4, 6)] == -1  # the (2,5,7) term
    assert phi[(0, 3, 4)] == 1
    assert len(phi.coeffs) == 7
    psi = g2alg.psi0()
    assert psi[(3, 4, 5, 6)] == 1
    assert psi[(0, 1, 3, 6)] == -1
    assert len(psi.coeffs) == 7


def test_cross_examples():
    assert list(g2alg.cross(e(1), e(2))) == [0, 0, 1, 0, 0, 0, 0]
    assert list(g2alg.cross(e(2), e(5))) == [0, 0, 0, 0, 0, 0, -1]
    assert list(g2alg.cross(e(1), e(1))) == [0] * 7


def test_cross_is_bilinear_alternating_orthogonal():
    import random

    rng = random.Random(2)
    g = g2alg.identity_metric()
    for _ in range(20):
        u = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(7)]
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(7)]
        w = g2alg.cross(u, v)
        assert g.pair(w, u) == 0
        assert g.pair(w, v) == 0
        neg = g2alg.cross(v, u)
        assert all(a == -b for a, b in zip(w, neg))


def test_chi_examples():
    assert list(g2alg.chi(e(5), e(6), e(7))) == [0, 0, 0, 2, 0, 0, 0]
    assert list(g2alg.chi(e(1), e(2), e(3))) == [0] * 7
    assert list(g2alg.chi(e(1), e(1), e(2))) == [0] * 7


def test_metric_from_phi0_is_identity():
    res = g2alg.metric_from_3form(g2alg.phi0())
    assert isinstance(res, g2alg.MetricFromForm)
    assert res.exact
    assert res.vol == 1
    assert res.positive
    ident = g2alg.identity_metric()
    assert all(
        res.g.matrix[i][j] == ident.matrix[i][j] for i in range(7) for j in range(7)
    )


def test_metric_scaling_law():
    res = g2alg.metric_from_3form(8 * g2alg.phi0())
    assert res.exact
    assert res.vol == 128  # 8^(7/3)
    for i in range(7):
        assert res.g.matrix[i][i] == 4
    # general rational scaling c^3: g = c^2 id
    res27 = g2alg.metric_from_3form(27 * g2alg.phi0())
    assert res27.exact
    assert all(res27.g.matrix[i][i] == 9 for i in range(7))


def test_metric_from_flipped_form_has_split_signature():
    phi = g2alg.phi0()
    flipped = g2alg.Form(3, 7)
    for idx, c in phi.coeffs.items():
        flipped.coeffs[idx] = -c if idx == (1, 3, 5) else c  # negate the dx246 term
    res = g2alg.metric_from_3form(flipped)
    assert not isinstance(res, g2alg.DegenerateForm)
    assert res.g.signature() == (3, 4)
    assert not res.positive


def test_metric_degenerate_form():
    f = g2alg.form_from_terms(3, 7, [(1, "123")])
    assert isinstance(g2alg.metric_from_3form(f), g2alg.DegenerateForm)


def test_ninth_root_of_large_scalings():
    # 10^12 phi0: det B = (10^28)^9, a 9th power too large for a float-seeded
    # root search to find; the volume and g = 10^8 id are exact
    res = g2alg.metric_from_3form(Fraction(10**12) * g2alg.phi0())
    assert res.exact
    assert res.vol == 10**28
    assert all(res.g.matrix[i][j] == (10**8 if i == j else 0) for i in range(7) for j in range(7))
    # (10^16 phi0): det B = 10^336 is no 9th power and lies beyond the float range
    res = g2alg.metric_from_3form(10**16 * g2alg.phi0())
    assert not res.exact
    assert res.positive
    assert res.vol == pytest.approx(10 ** (336 / 9), rel=1e-12)


def test_inexact_ninth_root_is_tainted():
    res = g2alg.metric_from_3form(2 * g2alg.phi0())
    assert not res.exact
    assert isinstance(res.vol, float)


def test_associative_planes():
    assert g2alg.is_associative(e(1), e(2), e(3))
    assert not g2alg.is_associative(e(1), e(4), e(6))
    assert g2alg.is_coassociative(e(4), e(5), e(6), e(7))
    with pytest.raises(ValueError):
        g2alg.is_associative(e(1), e(1), e(2))


def test_associative_iff_chi_vanishes():
    # on the calibrated plane chi vanishes on every triple of basis vectors
    for triple, expect in ((('1', '2', '3'), True), (('1', '4', '6'), False)):
        u, v, w = (e(int(t)) for t in triple)
        vanish = all(x == 0 for x in g2alg.chi(u, v, w))
        assert vanish == expect


def test_special_lagrangian():
    plane = [e(2), e(4), e(6)]
    assert g2alg.is_special_lagrangian(plane)
    assert g2alg.is_associative(*plane)
    # a complex line plus a real direction: omega restricts nontrivially
    assert not g2alg.is_special_lagrangian([e(2), e(3), e(4)])


def test_special_lagrangian_rotated_phase():
    # rotating by a rational point on the circle: phase (3/5, 4/5)
    c, s = Fraction(3, 5), Fraction(4, 5)
    # rotate the z1 = x2 + i x3 coordinate plane by the phase inside the plane
    v1 = [0, c, s, 0, 0, 0, 0]
    plane = [v1, e(4), e(6)]
    # the rotation multiplies Omega's restriction by e^{i theta}: compensate
    assert g2alg.is_special_lagrangian(plane, phase=(c, -s))
    assert not g2alg.is_special_lagrangian(plane)


def test_su3_structure_standard():
    s = g2alg.su3_from_unit_vector(g2alg.phi0(), e(1))
    omega, re_om, im_om = g2alg.standard_su3_forms()
    assert s.omega == omega
    assert s.re_omega == re_om
    assert s.im_omega == im_om


def test_su3_structure_other_unit_vector():
    s = g2alg.su3_from_unit_vector(g2alg.phi0(), e(2))
    assert not s.omega.is_zero()
    with pytest.raises(ValueError):
        g2alg.su3_from_unit_vector(g2alg.phi0(), [2, 0, 0, 0, 0, 0, 0])


def test_identity_suite():
    report = g2alg.verify_identity_suite(samples=25, seed=4)
    assert report["triples_checked"] == 343 + 25
    assert report["hk_square"] == 2


def test_identity_suite_detects_corruption():
    phi = g2alg.phi0()
    bad = g2alg.Form(3, 7)
    for idx, c in phi.coeffs.items():
        bad.coeffs[idx] = -c if idx == (0, 1, 2) else c

    g = g2alg.identity_metric()
    psi = g2alg.psi0()
    # witness triple mixing the corrupted term with an intact one
    u = e(1)
    v = [0, 1, 0, 1, 0, 0, 0]
    w = [0, 0, 1, 0, 1, 0, 0]
    ch = g2alg.chi(u, v, w, psi, g)
    good = phi.evaluate(u, v, w) ** 2 + Fraction(1, 4) * g.pair(ch, ch)
    assert good == g2alg.gram_determinant([u, v, w], g)
    lhs = bad.evaluate(u, v, w) ** 2 + Fraction(1, 4) * g.pair(ch, ch)
    assert lhs != g2alg.gram_determinant([u, v, w], g)


def _flipped(form_factory, idx):
    """A model-form factory whose copies carry the term idx with the opposite sign."""
    def flipped():
        form = form_factory()
        form[idx] = -form[idx]
        return form
    return flipped


# (which model form, its corrupted factory, samples, the message the suite must abort with).
# No alternating 3-form fails the cross-norm identity first under the identity metric: the
# double-cross identity on the basis triples (i, i, k), checked earlier, already implies it.
CORRUPTIONS = {
    "2 phi0": ("phi0", lambda: 2 * _PHI0(), 0, "double-cross identity fails on basis (0,0,1)"),
    "phi0, term 123 flipped": ("phi0", _flipped(_PHI0, (0, 1, 2)), 0,
                               "double-cross identity fails on basis (0,1,3)"),
    **{f"psi0, term {idx} flipped": ("psi0", _flipped(_PSI0, idx), 1, "calibration decomposition fails on sample 0")
       for idx in _PSI0().coeffs},
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_identity_suite_fails_on_a_corrupted_model_form(monkeypatch, name):
    from tcslat import cli

    which, corrupted, samples, message = CORRUPTIONS[name]
    monkeypatch.setattr(g2alg, which, corrupted)
    with pytest.raises(AssertionError) as exc:
        g2alg.verify_identity_suite(samples=samples, seed=0)
    assert str(exc.value) == message
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["g2", "verify", "--samples", str(samples), "--seed", "0"])
    assert (code, out.getvalue(), err.getvalue()) == (1, "", f"identity failure: {message}\n")


def test_identity_suite_needs_a_sample_to_see_a_flipped_psi0_term(monkeypatch):
    monkeypatch.setattr(g2alg, "psi0", _flipped(_PSI0, (3, 4, 5, 6)))
    assert g2alg.verify_identity_suite(samples=0)["triples_checked"] == 343


def test_identity_suite_fails_on_a_product_that_is_not_alternating(monkeypatch):
    # no corrupted model form reaches the cross-norm check first (see CORRUPTIONS), but a
    # raised product that does not vanish on (u, u) does, through the core the suite calls
    raise_numerators = g2alg._raise_numerators
    monkeypatch.setattr(g2alg, "_raise_numerators",
                        lambda terms, rows: [c + r for c, r in zip(raise_numerators(terms, rows), rows[0])])
    with pytest.raises(AssertionError, match=r"^cross-norm identity fails on basis \(0,0,0\)$"):
        g2alg.verify_identity_suite(samples=0)


def test_identity_suite_builds_no_fraction_on_its_triples(monkeypatch):
    phi, psi = g2alg.phi0(), g2alg.psi0()  # built before counting starts
    monkeypatch.setattr(g2alg, "phi0", lambda: phi)
    monkeypatch.setattr(g2alg, "psi0", lambda: psi)
    built, counting = [], [True]

    def spy(make):
        return lambda cls, *args, **kwargs: (counting and built.append(args)) or make(cls, *args, **kwargs)

    # every Fraction passes through __new__, or on Python 3.12+ through _from_coprime_ints
    monkeypatch.setattr(Fraction, "__new__", spy(Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(spy(coprime)))
    assert Fraction(1, 2) * 3 and built  # the spy sees builds
    del built[:]
    # the suite's first form_from_terms call starts the 2-form checks, after the last triple
    form_from_terms = g2alg.form_from_terms
    monkeypatch.setattr(g2alg, "form_from_terms", lambda *args: counting.clear() or form_from_terms(*args))
    assert g2alg.verify_identity_suite(samples=5)["triples_checked"] == 343 + 5
    assert not counting and built == []


def test_form_equality_with_another_type_is_false():
    assert g2alg.phi0() == g2alg.phi0() and g2alg.phi0() != g2alg.psi0()
    assert (g2alg.phi0() == 5) is False and (5 != g2alg.phi0()) is True
    assert g2alg.Form.__eq__(g2alg.phi0(), 5) is NotImplemented


def test_gram_determinant_of_no_vectors_is_a_value_error():
    for g in (None, g2alg.identity_metric()):
        with pytest.raises(ValueError, match="at least one vector"):
            g2alg.gram_determinant([], g)


def test_wedge_and_contract_consistency():
    phi = g2alg.phi0()
    psi = g2alg.psi0()
    # phi ^ psi is 7 vol for the model pair
    assert phi.wedge(psi).top_coefficient() == 7


@pytest.fixture
def inverse_calls(monkeypatch):
    """A list that grows by one on every exactalg.rational_inverse call."""
    calls = []
    inverse = xa.rational_inverse

    def counted(A):
        calls.append(len(A))
        return inverse(A)

    monkeypatch.setattr(xa, "rational_inverse", counted)
    return calls


def test_identity_suite_inverts_its_metric_once(inverse_calls):
    g2alg.verify_identity_suite(samples=5, seed=0)
    assert len(inverse_calls) <= 1


def test_metric_inverse_is_cached_on_first_solve(inverse_calls):
    for _ in range(3):
        g2alg.cross(e(1), e(2))
        g2alg.chi(e(5), e(6), e(7))
    assert len(inverse_calls) <= 1  # the default identity is shared
    g = g2alg.metric_from_3form(8 * g2alg.phi0()).g
    assert set(vars(g)) == {"matrix", "dimension"}  # nothing inverted on construction
    del inverse_calls[:]
    assert g2alg.cross(e(1), e(2), g=g) == [0, 0, Fraction(1, 4), 0, 0, 0, 0]
    assert g2alg.chi(e(5), e(6), e(7), g=g) == [0, 0, 0, Fraction(1, 2), 0, 0, 0]
    assert inverse_calls == [7]


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def rational_matrices(rows, cols=7):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["phi0", "psi0", "omega"]), rational_matrices(7), rational_matrices(3))
def test_pullback_composes(name, A, B):
    form = g2alg.standard_su3_forms()[0] if name == "omega" else getattr(g2alg, name)()
    assert g2alg.pullback(g2alg.pullback(form, A), B) == g2alg.pullback(form, xa.matmul(B, A))


@settings(max_examples=25, deadline=None)
@given(rational_matrices(3))
def test_pullback_to_a_plane_is_the_value_on_its_rows(rows):
    pulled = g2alg.pullback(g2alg.phi0(), rows)
    assert (pulled.degree, pulled.dimension) == (3, 3)
    assert pulled.top_coefficient() == g2alg.phi0().evaluate(*rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=2, max_size=7, unique=True), st.data())
def test_canonical_sign_flips_under_a_swap(idx, data):
    i, j = sorted(data.draw(st.lists(st.integers(0, len(idx) - 1), min_size=2, max_size=2, unique=True)))
    swapped = list(idx)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    sign, canon = g2alg._canonical(tuple(idx))
    assert canon == tuple(sorted(idx)) and sign in (1, -1)
    assert g2alg._canonical(tuple(swapped)) == (-sign, canon)
    assert g2alg._canonical(canon) == (1, canon)
    assert g2alg._canonical(tuple(idx) + (idx[i],))[0] == 0


def test_metric_rejects_a_nonsymmetric_matrix():
    M = xa.eye(7)
    M[0][1] = Fraction(1, 2)
    with pytest.raises(ValueError, match="symmetric"):
        g2alg.Metric(M)
    M[1][0] = Fraction(1, 2)
    assert g2alg.Metric(M).matrix[1][0] == Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@example([0] * 7, [Fraction(1, 2), -3, 0, 0, Fraction(2, 3), 1, 0])
@given(st.lists(rationals, min_size=7, max_size=7), st.lists(rationals, min_size=7, max_size=7))
def test_identity_fast_path_matches_the_generic_products(u, v):
    g = g2alg.identity_metric()
    assert g.pair(u, v) == xa.pair(u, xa.eye(7), v)
    assert g._is_identity  # the value above came from the fast path
    w = g.solve(u)
    assert w == xa.matmul([u], xa.eye(7))[0]
    assert all(type(x) is Fraction for x in w)


def test_model_form_copies_do_not_reach_the_defaults():
    before = (g2alg.cross(e(1), e(2)), g2alg.chi(e(5), e(6), e(7)),
              g2alg.is_associative(e(1), e(2), e(3)), g2alg.is_associative(e(1), e(4), e(6)))
    phi, psi = g2alg.phi0(), g2alg.psi0()
    phi[(0, 3, 5)] = 1
    phi.coeffs.pop((0, 1, 2))
    psi.coeffs.clear()
    assert (g2alg.cross(e(1), e(2)), g2alg.chi(e(5), e(6), e(7)),
            g2alg.is_associative(e(1), e(2), e(3)), g2alg.is_associative(e(1), e(4), e(6))) == before
    assert g2alg.phi0()[(0, 1, 2)] == 1 and len(g2alg.psi0().coeffs) == 7


def test_gram_determinant_makes_one_pairing_per_unordered_pair(monkeypatch):
    import random

    calls = []
    pair = g2alg.Metric.pair
    monkeypatch.setattr(g2alg.Metric, "pair", lambda self, u, v: calls.append((u, v)) or pair(self, u, v))
    rng = random.Random(5)
    for k in range(1, 6):
        vectors = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)] for _ in range(k)]
        del calls[:]
        gd = g2alg.gram_determinant(vectors)
        assert len(calls) == k * (k + 1) // 2
        den, ints = xa.clear_denominators(xa.pairings(vectors, xa.eye(7)))
        assert gd == Fraction(xa.det(ints), den**k)


# The contract-based evaluation, pullback and wedge that the minor- and
# mask-based kernels replaced, kept here as their oracle.

def _ref_contract(coeffs, v):
    out = {}
    for idx, c in coeffs.items():
        for pos, i in enumerate(idx):
            if v[i]:
                rest = idx[:pos] + idx[pos + 1 :]
                out[rest] = out.get(rest, 0) + (-1) ** pos * c * Fraction(v[i])
    return {idx: c for idx, c in out.items() if c}


def _ref_evaluate(form, vectors):
    coeffs = form.coeffs
    for v in vectors:
        coeffs = _ref_contract(coeffs, v)
    return coeffs.get((), Fraction(0))


def _ref_pullback(form, rows):
    values = {idx: _ref_evaluate(form, [rows[i] for i in idx])
              for idx in itertools.combinations(range(len(rows)), form.degree)}
    return {idx: c for idx, c in values.items() if c}


def _ref_wedge(a, b):
    out = {}
    for i1, c1 in a.coeffs.items():
        for i2, c2 in b.coeffs.items():
            idx = i1 + i2
            if len(set(idx)) == len(idx):
                sign = (-1) ** sum(x > y for x, y in itertools.combinations(idx, 2))
                out[tuple(sorted(idx))] = out.get(tuple(sorted(idx)), 0) + sign * c1 * c2
    return {idx: c for idx, c in out.items() if c}


@st.composite
def forms(draw, dimension, degree):
    support = draw(st.lists(st.sampled_from(list(itertools.combinations(range(dimension), degree))),
                            unique=True, max_size=10))
    return g2alg.Form(degree, dimension, {idx: draw(rationals) for idx in support})


@st.composite
def form_and_rows(draw):
    n = draw(st.integers(1, 7))
    form = draw(forms(n, draw(st.integers(0, min(n, 4)))))
    return form, draw(rational_matrices(draw(st.integers(0, 6)), n))


@settings(max_examples=80, deadline=None)
@example((g2alg.Form(2, 3, {(0, 2): 1, (1, 2): Fraction(-2, 3)}), [[1, 2, 0], [0, 1, 3], [2, 0, 1], [1, 1, 1]]))
@given(form_and_rows())
def test_minor_kernels_match_nested_contractions(case):
    form, rows = case
    pulled = g2alg.pullback(form, rows)
    assert (pulled.degree, pulled.dimension) == (form.degree, len(rows))
    assert pulled.coeffs == _ref_pullback(form, rows)
    assert all(type(c) is Fraction for c in pulled.coeffs.values())
    vectors = rows[: form.degree]
    if len(vectors) == form.degree:
        value = form.evaluate(*vectors)
        assert value == _ref_evaluate(form, vectors) and type(value) is Fraction
    if rows:
        assert g2alg._contract(form.coeffs, rows[0]) == _ref_contract(form.coeffs, rows[0])


@settings(max_examples=80, deadline=None)
@example((g2alg.Form(1, 3, {(2,): 1}), g2alg.Form(2, 3, {(0, 1): Fraction(1, 2)})))  # e3 ^ e12 = e123 / 2
@example((g2alg.Form(2, 4, {(1, 3): 1}), g2alg.Form(1, 4, {(2,): 1})))  # e24 ^ e3 = -e234
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    *(st.integers(0, n).flatmap(lambda d: forms(n, d)) for _ in range(2)))))
def test_mask_wedge_matches_sorting_by_inversions(pair):
    a, b = pair
    product = a.wedge(b)
    assert (product.degree, product.dimension) == (a.degree + b.degree, a.dimension)
    assert product.coeffs == _ref_wedge(a, b)
    assert all(type(c) is Fraction for c in product.coeffs.values())


def _pulled_phi0():
    """M^* phi0 for an upper triangular M: its metric is exact, not the identity, with denominators."""
    M = xa.eye(7)
    M[0][0], M[0][3], M[1][5], M[2][6], M[4][6] = 2, Fraction(1, 2), -1, Fraction(2, 3), 1
    return g2alg.pullback(g2alg.phi0(), M)


@settings(max_examples=40, deadline=None)
@example([e(1), e(2), e(3)], False)
@example([[Fraction(1, 2), -3, 0, 0, Fraction(2, 3), 1, 0], [0, 0, 1, Fraction(-1, 3), 0, 2, 1], [1] * 7], True)
@given(rational_matrices(3), st.booleans())
def test_wrappers_return_the_cores_over_their_denominators(rows, pulled):
    phi = _pulled_phi0() if pulled else g2alg.phi0()
    g = g2alg.metric_from_3form(phi).g
    assert g._is_identity != pulled
    (dp, phi_n), (ds, psi_n) = g2alg._numerators(phi), g2alg._numerators(g2alg.psi0())
    den, (U, V, W) = xa.clear_denominators(rows)
    # g . cross(u, v) = X / (dp D^2) and g . chi(u, v, w) = -2 H / (ds D^3), read off the cores
    crossed, chied = g2alg.cross(*rows[:2], phi, g), g2alg.chi(*rows, g2alg.psi0(), g)
    assert xa.matmul([crossed], g.matrix)[0] == [Fraction(c, dp * den**2)
                                                for c in g2alg._raise_numerators(phi_n, (U, V))]
    assert xa.matmul([chied], g.matrix)[0] == [Fraction(-2 * c, ds * den**3)
                                              for c in g2alg._raise_numerators(psi_n, (U, V, W))]
    value = phi.evaluate(*rows)
    assert value == Fraction(g2alg._pull(phi_n, (U, V, W)).get((0, 1, 2), 0), dp * den**3)
    dg, G = xa.clear_denominators(g.matrix)
    gd = g2alg.gram_determinant(rows, g)
    assert gd == Fraction(xa.det([[xa.pair(a, G, b) for b in (U, V, W)] for a in (U, V, W)]), den**6 * dg**3)
    assert all(type(x) is Fraction for x in crossed + chied + [value, gd])
