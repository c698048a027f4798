from fractions import Fraction

import pytest

from tcslat import exactalg as xa
from tcslat import glue
from tcslat import lattice as lat


def test_perpendicular_sum():
    W = glue.perpendicular_sum(lat.diag_lattice(4), lat.diag_lattice(4))
    assert W.gram == [[4, 0], [0, 4]]
    W2 = glue.perpendicular_sum(lat.diag_lattice(4), lat.diag_lattice(22))
    assert W2.gram == [[4, 0], [0, 22]]


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
    assert res.w.gram == glue.perpendicular_sum(N1, N2).gram


def test_pushout_rejects_nonprimitive_embedding():
    N = lat.Lattice([[2, 4], [4, 2]])
    R = lat.diag_lattice(-16)
    with pytest.raises(glue.NonPrimitiveEmbedding):
        glue.PushoutSpec(N, N, R, [[2, -2]], [[2, -2]])


def test_pushout_signature_check():
    N = lat.Lattice([[2, 4], [4, 2]])
    R = lat.diag_lattice(-4)
    res = glue.orthogonal_pushout(glue.PushoutSpec(N, N, R, [[1, -1]], [[1, -1]]))
    assert glue.pushout_signature_check(res.w, 2, 2, 1)
    W2 = glue.perpendicular_sum(lat.diag_lattice(4), lat.diag_lattice(4))
    assert glue.pushout_signature_check(W2, 1, 1, 0)


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
        quotient = lat.quotient_torsion(
            s.w_gram,
            lat.Sublattice(
                s.w_gram,
                _base_in_overlattice_coords(s),
            ),
        )
        types.add(tuple(quotient.invariant_factors))
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
