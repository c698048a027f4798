from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcslat import exactalg as xa
from tcslat import glue
from tcslat import lattice as lat


def test_perpendicular_sum():
    W = lat.direct_sum(lat.diag_lattice(4), lat.diag_lattice(4))
    assert W.gram == ((4, 0), (0, 4))
    W2 = lat.direct_sum(lat.diag_lattice(4), lat.diag_lattice(22))
    assert W2.gram == ((4, 0), (0, 22))


def test_pushout_failure_quartic_with_line():
    # the quartic-containing-a-line lattice self-glued along <-36>
    N = lat.Lattice([[4, 1], [1, -2]])
    R = lat.diag_lattice(-36)
    spec = glue.PushoutSpec(N, N, R, [[-1, 4]], [[-1, 4]])
    res = glue.orthogonal_pushout(spec)
    assert isinstance(res, glue.IntegralityFailure)
    assert res.value == Fraction(-9, 4)


def test_pushout_table4_no6_self_glue():
    N = lat.Lattice([[2, 4], [4, 2]])
    R = lat.diag_lattice(-4)
    spec = glue.PushoutSpec(N, N, R, [[1, -1]], [[1, -1]])
    res = glue.orthogonal_pushout(spec)
    assert isinstance(res, glue.PushoutResult)
    W = res.w
    assert W.rank == 3
    assert W.is_even()
    assert lat.signature(W) == (2, 1)
    # exact determinant bookkeeping: det W = det N+ det N- / det R
    assert W.det() * R.det() == N.det() * N.det()
    # intersection of the two images is R, rank 1
    inter = lat.intersect(res.n_plus_in_w, res.n_minus_in_w)
    assert inter.rank == 1
    assert inter.same_module(lat.saturation(res.r_in_w))


def test_pushout_ex74_self_glue_is_integral():
    N = lat.Lattice([[-2, 2], [2, 4]])
    R = lat.diag_lattice(-12)
    spec = glue.PushoutSpec(N, N, R, [[2, -1]], [[2, -1]])
    res = glue.orthogonal_pushout(spec)
    assert isinstance(res, glue.PushoutResult)
    assert res.w.is_even()
    assert lat.signature(res.w) == (2, 1)
    assert res.w.det() * R.det() == N.det() * N.det()


def test_pushout_rank0_r_is_perpendicular_sum():
    N1 = lat.diag_lattice(4)
    N2 = lat.diag_lattice(6)
    spec = glue.PushoutSpec(N1, N2, lat.Lattice([]), [], [])
    res = glue.orthogonal_pushout(spec)
    assert res.w.gram == lat.direct_sum(N1, N2).gram


def test_pushout_rejects_nonprimitive_embedding():
    N = lat.Lattice([[2, 4], [4, 2]])
    R = lat.diag_lattice(-16)
    with pytest.raises(glue.NonPrimitiveEmbedding):
        glue.PushoutSpec(N, N, R, [[2, -2]], [[2, -2]])


def test_pushout_signature_check():
    N = lat.Lattice([[2, 4], [4, 2]])
    R = lat.diag_lattice(-4)
    res = glue.orthogonal_pushout(glue.PushoutSpec(N, N, R, [[1, -1]], [[1, -1]]))
    # sig W = (2, rk N+ + rk N- - rk R - 2)
    assert lat.signature(res.w) == (2, 1)
    W2 = lat.direct_sum(lat.diag_lattice(4), lat.diag_lattice(4))
    assert lat.signature(W2) == (2, 0)


def test_pushout_no10_rank5():
    N = lat.Lattice([[-2, 0, 2], [0, -2, 2], [2, 2, 4]])
    R = lat.diag_lattice(-8)
    spec = glue.PushoutSpec(N, N, R, [[-1, -1, 1]], [[-1, -1, 1]])
    res = glue.orthogonal_pushout(spec)
    assert isinstance(res, glue.PushoutResult)
    assert res.w.rank == 5
    assert lat.signature(res.w) == (2, 3)
    assert res.w.det() * R.det() == N.det() * N.det()


def test_overlattices_of_4_4():
    specs = glue.enumerate_overlattices(lat.diag_lattice(4), lat.diag_lattice(4), 4)
    assert len(specs) == 1
    assert specs[0].index == 2
    # glue generator is (2, 2)/4 = (1/2, 1/2) up to sign
    (vp, vm) = specs[0].glue_gens[0]
    assert abs(vp[0]) == Fraction(1, 2) and abs(vm[0]) == Fraction(1, 2)
    assert specs[0].w_gram.is_even()


def test_overlattices_trivial_for_unimodular_factor():
    specs = glue.enumerate_overlattices(lat.E8(-1), lat.diag_lattice(4), 10)
    assert specs == []


def test_overlattices_ex76_six_subgroup_types():
    N = lat.Lattice([[4, 4], [4, 0]])
    specs = glue.enumerate_overlattices(N, N, 16)
    types = set()
    for s in specs:
        # isomorphism type of the glue group = invariant factors of index lattice
        quotient = lat.quotient_torsion(lat.Sublattice(s.w_gram, _base_in_overlattice_coords(s)))
        types.add(tuple(quotient))
        # determinant bookkeeping for overlattices
        assert s.w_gram.det() * s.index**2 == s.base.det()
        assert s.w_gram.is_even()
    assert (4, 4) in types  # the maximal gluing used by the large-cotorsion example
    nontrivial = {t for t in types if t}
    assert nontrivial == {(2,), (4,), (2, 2), (2, 4), (4, 4)}


def _base_in_overlattice_coords(spec):
    # rows of the identity (base basis) expressed in the overlattice basis; integral
    # exactly because base < W'
    Binv = xa.rational_inverse(spec.basis_rational)
    return xa.mat([[int(x) for x in row] for row in Binv])


def test_overlattices_budget_guard():
    N = lat.Lattice([[4, 4], [4, 0]])
    with pytest.raises(lat.EnumerationBudgetExceeded):
        glue.enumerate_overlattices(N, N, 16, budget=100)


def test_overlattices_incompatible_discriminants():
    # Z/4 against Z/8: no anti-isometric subgroup pair exists
    specs = glue.enumerate_overlattices(lat.diag_lattice(4), lat.diag_lattice(8), 8)
    assert specs == []


def test_glue_group_isotropic():
    N = lat.Lattice([[4, 4], [4, 0]])
    for s in glue.enumerate_overlattices(N, N, 16):
        for vp, vm in s.glue_gens:
            qp = N.pair(vp, vp) % 2
            qm = N.pair(vm, vm) % 2
            assert (qp + qm) % 2 == 0


# -- oracle: the enumeration as it was when primitivity was checked on W' ----

def _former_enumerate_overlattices(n_plus, n_minus, max_index, budget=10**6):
    """Test-only copy of the former enumeration: primitivity of both factors
    checked on the lattice W' itself, by a kernel and a Smith form."""
    for L in (n_plus, n_minus):
        if not (L.is_even() and L.is_nondegenerate()):
            raise ValueError("overlattices need even nondegenerate factors")
    snf_p, snf_m = xa.snf(n_plus.gram), xa.snf(n_minus.gram)
    orders_p, orders_m = snf_p.invariant_factors(), snf_m.invariant_factors()
    size_p = 1
    for d in orders_p:
        size_p *= d
    size_m = 1
    for d in orders_m:
        size_m *= d
    if size_p * size_m > budget:
        raise lat.EnumerationBudgetExceeded(f"{size_p * size_m} exceeds budget {budget}")
    gens_p, gens_m = snf_p.torsion_cosets(), snf_m.torsion_cosets()
    base = lat.direct_sum(n_plus, n_minus)

    def q_of(v, gram):
        return xa.pair(v, gram, v) % 2

    def b_of(v, w_, gram):
        return xa.pair(v, gram, w_) % 1

    out = []
    seen = set()
    if min(size_p, size_m) == 1:
        return out
    smaller_on_plus = size_p <= size_m
    orders_small = orders_p if smaller_on_plus else orders_m
    for H in glue._subgroups(orders_small, max_index):
        if len(H) < 2 or len(H) > max_index:
            continue
        gens = glue._min_generators(H, orders_small)
        gen_orders = [glue._elem_order(g, orders_small) for g in gens]
        other_orders = orders_m if smaller_on_plus else orders_p
        other_elems = glue._group_elements(other_orders)

        def images(k, chosen):
            if k == len(gens):
                yield list(chosen)
                return
            for e in other_elems:
                if glue._elem_order(e, other_orders) == gen_orders[k]:
                    yield from images(k + 1, chosen + [e])

        for img in images(0, []):
            glue_gens = []
            ok = True
            for g, im in zip(gens, img):
                ep, em = (g, im) if smaller_on_plus else (im, g)
                vp, vm = xa.matmul([ep], gens_p)[0], xa.matmul([em], gens_m)[0]
                if (q_of(vp, n_plus.gram) + q_of(vm, n_minus.gram)) % 2 != 0:
                    ok = False
                    break
                glue_gens.append((vp, vm))
            if not ok:
                continue
            for i in range(len(glue_gens)):
                for j in range(len(glue_gens)):
                    bsum = b_of(glue_gens[i][0], glue_gens[j][0], n_plus.gram) + b_of(
                        glue_gens[i][1], glue_gens[j][1], n_minus.gram
                    )
                    if bsum % 1 != 0:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            spec = _former_overlattice_from_glue(base, n_plus, n_minus, glue_gens)
            if spec is None:
                continue
            key = tuple(tuple(str(x) for x in row) for row in spec.basis_rational)
            if key not in seen:
                seen.add(key)
                out.append(spec)
    return out


def _former_overlattice_from_glue(base, n_plus, n_minus, glue_gens):
    rp, rm = n_plus.rank, n_minus.rank
    n = rp + rm
    D, scaled = xa.clear_denominators(xa.eye(n) + [vp + vm for vp, vm in glue_gens])
    H = xa.hnf(scaled)
    if len(H) != n:
        return None
    basis = [[Fraction(x, D) for x in row] for row in H]
    gram = xa.pairings(basis, base.gram)
    if any(x.denominator != 1 for row in gram for x in row):
        return None
    w = lat.Lattice([[int(x) for x in row] for row in gram])
    if not w.is_even():
        return None
    index_sq = abs(xa.det(base.gram)) // abs(w.det())
    index = 1
    while index * index < index_sq:
        index += 1
    if index * index != index_sq:
        return None
    for start, size in ((0, rp), (rp, rm)):
        if _former_span_intersection(basis, start, size, n) is None:
            return None
    return glue.OverlatticeSpec(base, glue_gens, basis, w, index)


def _former_span_intersection(basis, start, size, n):
    """W' cap (factor tensor Q) = factor; None when primitivity fails."""
    D, scaled = xa.clear_denominators(basis)
    block = [i for i in range(n) if not start <= i < start + size]
    ker = xa.kernel_basis([[row[i] for i in block] for row in scaled]) if block else xa.eye(n)
    sub = [row[start : start + size] for row in xa.matmul(ker, scaled)]
    invf = xa.snf(sub).diagonal if sub else []
    if any(d != D for d in invf if d != 0) or sum(1 for d in invf if d != 0) != size:
        return None
    return True


def _as_data(specs):
    return [(s.index, s.basis_rational, s.glue_gens, s.w_gram.gram) for s in specs]


def _assert_same_overlattices(n_plus, n_minus, max_index, budget=10**6):
    try:
        expected = _former_enumerate_overlattices(n_plus, n_minus, max_index, budget)
    except lat.EnumerationBudgetExceeded:
        with pytest.raises(lat.EnumerationBudgetExceeded):
            glue.enumerate_overlattices(n_plus, n_minus, max_index, budget)
        return
    assert _as_data(glue.enumerate_overlattices(n_plus, n_minus, max_index, budget)) == _as_data(expected)


@pytest.mark.parametrize("plus, minus, max_index", [
    ([[4]], [[4]], 4),
    ([[4]], [[8]], 8),
    ([[4, 4], [4, 0]], [[4, 4], [4, 0]], 16),
    ([[2, 1], [1, 2]], [[2, 1], [1, 2]], 9),
    # (Z/16 + Z/4) x (Z/4 + Z/16): some generator-wise maps have an image of
    # |H| elements but a graph of 2|H|, an isotropic glue that is no graph
    ([[-16, 0], [0, -4]], [[4, 0], [0, 16]], 16),
])
def test_overlattices_match_the_former_enumeration(plus, minus, max_index):
    _assert_same_overlattices(lat.Lattice(plus), lat.Lattice(minus), max_index)


@st.composite
def even_grams_of_rank_at_most_2(draw):
    n = draw(st.integers(1, 2))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = draw(st.integers(-8, 8))
    assume(xa.det(G) != 0)
    return G


@settings(max_examples=100, deadline=None)
@given(even_grams_of_rank_at_most_2(), even_grams_of_rank_at_most_2(), st.integers(1, 16))
def test_overlattices_match_the_former_enumeration_on_random_pairs(plus, minus, max_index):
    _assert_same_overlattices(lat.Lattice(plus), lat.Lattice(minus), max_index, budget=5000)


def test_only_isotropic_glue_reaches_the_lattice_build(monkeypatch):
    """The isotropy filter rejects every non-isotropic glue before any HNF,
    although the evenness and integrality checks would reject it later."""
    N = lat.Lattice([[4, 4], [4, 0]])
    build = glue._overlattice_from_glue
    built = []

    def spy(base, glue_gens):
        built.append(glue_gens)
        return build(base, glue_gens)

    monkeypatch.setattr(glue, "_overlattice_from_glue", spy)
    assert len(glue.enumerate_overlattices(N, N, 16)) == 39
    assert built
    for glue_gens in built:
        for vp, vm in glue_gens:
            assert (N.norm(vp) + N.norm(vm)) % 2 == 0
        for vp, vm in glue_gens:
            for wp, wm in glue_gens:
                assert (N.pair(vp, wp) + N.pair(vm, wm)) % 1 == 0
