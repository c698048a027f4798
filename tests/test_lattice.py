import inspect
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcslat import exactalg as xa
from tcslat import lattice as lat

import oracles


def test_e8_is_even_unimodular_definite():
    E8 = lat.E8()
    assert E8.is_even()
    assert E8.det() == 1
    assert lat.signature(E8) == (8, 0)
    assert lat.signature(lat.E8(-1)) == (0, 8)


def k3_lattice():
    return lat.direct_sum(lat.U(), lat.U(), lat.U(), lat.E8(-1), lat.E8(-1))


def test_signature_examples():
    assert lat.signature(lat.U()) == (1, 1)
    assert lat.signature(k3_lattice()) == (3, 19)
    assert lat.signature(lat.A2(-1)) == (0, 2)
    with pytest.raises(lat.DegenerateLattice):
        lat.signature(lat.Lattice([[0, 0], [0, 2]]))


def test_signature_matches_float_eigen_sign_count():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-6, 6)
                A[i][j] = A[j][i] = v
        L = lat.Lattice(A)
        if not L.is_nondegenerate():
            continue
        eig = np.linalg.eigvalsh(np.array(A, dtype=float))
        expected = (int((eig > 1e-9).sum()), int((eig < -1e-9).sum()))
        assert lat.signature(L) == expected


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_signature_sylvester_law_of_inertia(d, seed):
    # P diag(d) P^T with P unimodular has the sign counts of d
    rng = random.Random(seed)
    n = len(d)
    P = np.array(xa.eye(n), dtype=object)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        P[i] = P[i] + rng.randint(-2, 2) * P[j]
    L = lat.Lattice(P @ np.array(lat.diag_lattice(*d).gram, dtype=object) @ P.T)
    v = lat.positive_norm_vector(L)
    if any(x > 0 for x in d):
        assert L.norm(v) > 0
    else:
        assert v is None
    if 0 in d:
        with pytest.raises(lat.DegenerateLattice):
            lat.signature(L)
    else:
        assert lat.signature(L) == (sum(x > 0 for x in d), sum(x < 0 for x in d))


@pytest.mark.parametrize("k, expect", [(1, [1, 1]), (-3, [1, -1]), (2, [1, 1])])
def test_positive_norm_vector_splits_a_hyperbolic_pair(k, expect):
    # U(k) has a zero diagonal, so the diagonalisation starts with a hyperbolic pair
    L = lat.U(k)
    v = lat.positive_norm_vector(L)
    assert v == expect and L.norm(v) == 2 * abs(k)


def test_discriminant_group_examples():
    assert lat.discriminant_group(lat.E8(-1)).invariant_factors == []
    dg = lat.discriminant_group(lat.diag_lattice(4))
    assert dg.invariant_factors == [4]
    assert dg.q_values == [Fraction(1, 4)]
    # |det| = product of invariant factors
    for gram in ([[2, 1], [1, 4]], [[4, 4], [4, 0]], [[-2, 1], [1, 4]]):
        L = lat.Lattice(gram)
        assert lat.discriminant_group(L).order == abs(L.det())


def test_disc_form_even_consistency():
    # q(x) mod 1 == b(x, x) on the generators
    L = lat.Lattice([[4, 4], [4, 0]])
    dg = lat.discriminant_group(L)
    assert dg.invariant_factors == [4, 4]
    for i, q in enumerate(dg.q_values):
        assert q % 1 == dg.b_values[i][i]
        assert 0 <= q < 2
        for b in dg.b_values[i]:
            assert 0 <= b < 1


@st.composite
def even_nondegenerate_grams(draw):
    n = draw(st.integers(1, 5))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = draw(st.integers(-3, 3))
    return G


@settings(max_examples=100, deadline=None)
@given(even_nondegenerate_grams())
def test_discriminant_form_matches_the_inverse_gram(G):
    # the Smith-form values against b_ij = g_i . G^-1 . g_j on the SNF generators
    L = lat.Lattice(G)
    if L.det() == 0:
        with pytest.raises(lat.DegenerateLattice):
            lat.discriminant_group(L)
        return
    res = xa.snf(G)
    gens = [g for g, _ in res.torsion_generators()]
    dg = lat.discriminant_group(L)
    assert dg.order == abs(L.det())
    inverse = xa.rational_inverse(G)
    assert res.torsion_cosets() == xa.matmul(gens, inverse)
    if not gens:
        assert dg.q_values is None and dg.b_values is None
        return
    B = xa.pairings(gens, inverse)
    assert dg.q_values == [B[i][i] % 2 for i in range(len(B))]
    assert dg.b_values == [[x % 1 for x in row] for row in B]


def test_ell():
    assert lat.ell(lat.U()) == 0
    # No 4's W: Ex 7.12 (diag(4, -2)) perp Ex 7.10 (E8(-1) + <8> + <-16>)
    W = lat.direct_sum(lat.diag_lattice(4, -2), lat.E8(-1), lat.diag_lattice(8, -16))
    assert lat.ell(W) == 4
    with pytest.raises(lat.DegenerateLattice):
        lat.ell(lat.Lattice([[0, 0], [0, 2]]))


def test_ell_reads_degeneracy_off_the_smith_diagonal(monkeypatch):
    def no_det(A):
        raise AssertionError("ell took a determinant")

    monkeypatch.setattr(xa, "det", no_det)
    assert lat.ell(lat.direct_sum(lat.diag_lattice(4, -2), lat.U(2))) == 4
    # degenerate with no zero row or column: the Smith diagonal still shows rank 2 < 3
    for gram in ([[0, 0], [0, 2]], [[2, 1, 3], [1, 2, 3], [3, 3, 6]]):
        with pytest.raises(lat.DegenerateLattice):
            lat.ell(lat.Lattice(gram))


def test_orthogonal_complement_examples():
    Uu = lat.U()
    S = lat.Sublattice(Uu, [[1, 0]])
    C = lat.orthogonal_complement(S)
    assert C.basis == ((1, 0),)

    amb = lat.direct_sum(lat.diag_lattice(4), lat.diag_lattice(4), lat.U())
    S = lat.Sublattice(amb, [[1, 0, 0, 0]])
    C = lat.orthogonal_complement(S)
    assert C.rank == 3
    # contains the second <4> factor and the U factor
    for v in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):
        assert xa.solve_integer(C.basis, v) is not None


def test_saturation_examples():
    Uu = lat.U()
    S = lat.Sublattice(Uu, [[2, 0]])
    assert lat.saturation(S).basis == ((1, 0),)
    S2 = lat.Sublattice(Uu, [[1, 1]])
    assert lat.saturation(S2).same_module(S2)
    assert lat.is_primitive(lat.saturation(S))
    # idempotent
    assert lat.saturation(lat.saturation(S)).same_module(lat.saturation(S))


def test_saturation_index2_example():
    # W = index 2 sublattice of <2> + <2>: saturation recovers the full lattice
    amb = lat.diag_lattice(2, 2)
    W = lat.Sublattice(amb, [[1, 1], [1, -1]])
    satd = lat.saturation(W)
    assert satd.basis == ((1, 0), (0, 1))


def test_intersect_and_sum():
    amb = lat.direct_sum(lat.U(), lat.U())
    N1 = lat.Sublattice(amb, [[1, 2, 0, 0]])
    N2 = lat.Sublattice(amb, [[0, 0, 1, 2]])
    assert lat.intersect(N1, N2).rank == 0
    assert lat.sum_sublattices(N1, N2).rank == 2

    # overlapping: spans sharing a common primitive vector
    N3 = lat.Sublattice(amb, [[1, 0, 0, 0], [0, 1, 0, 0]])
    N4 = lat.Sublattice(amb, [[1, 0, 0, 0], [0, 0, 0, 1]])
    I = lat.intersect(N3, N4)
    assert I.rank == 1
    assert I.basis == ((1, 0, 0, 0),)


def test_quotient_torsion():
    amb = lat.diag_lattice(2, 2)
    prim = lat.Sublattice(amb, [[1, 0]])
    assert lat.quotient_torsion(prim) == []
    W = lat.Sublattice(amb, [[1, 1], [1, -1]])
    assert lat.quotient_torsion(W) == [2]


def test_coker_map_route_equivalence_random():
    rng = random.Random(17)
    amb = lat.direct_sum(lat.U(), lat.U(), lat.E8(-1))
    checked = 0
    while checked < 25:
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        B1 = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(k1)]
        B2 = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(k2)]
        if xa.rank(xa.mat(B1)) != k1 or xa.rank(xa.mat(B2)) != k2:
            continue
        N1 = lat.saturation(lat.Sublattice(amb, B1))
        N2 = lat.saturation(lat.Sublattice(amb, B2))
        T1 = lat.orthogonal_complement(N1)
        T2 = lat.orthogonal_complement(N2)
        lhs = lat.quotient_torsion(lat.sum_sublattices(N1, N2))
        r1 = lat.coker_map(N1, T2)
        r2 = lat.coker_map(N2, T1)
        assert lhs == r1 == r2
        checked += 1


def test_norm_residues():
    T = lat.direct_sum(lat.A2(-1), lat.U(3), lat.U(3))
    assert lat.norm_residues(T, 3) == {0, 1}
    assert lat.norm_residues(lat.U(), 2) == {0}
    assert lat.norm_residues(lat.diag_lattice(4), 3) == {0, 1}
    # the budget counts the vectors of each component: 3 * 5^2 + 2 * 5^8 for
    # K3, and 3 * 5^2 = 75 for T, not 5^6
    with pytest.raises(lat.EnumerationBudgetExceeded, match="781325"):
        lat.norm_residues(k3_lattice(), 5, budget=100)
    assert lat.norm_residues(T, 5, budget=75) == _brute_norm_residues(T.gram, 5)
    with pytest.raises(lat.EnumerationBudgetExceeded):
        lat.norm_residues(T, 5, budget=74)


def _brute_norm_residues(gram, k):
    """The oracle: x . G . x^T mod k over all k^rank vectors x."""
    n = len(gram)
    return {sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) % k
            for x in itertools.product(range(k), repeat=n)}


@st.composite
def _even_gram(draw, size):
    g = [[0] * size for _ in range(size)]
    for i in range(size):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, size):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    return g


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 3).flatmap(_even_gram), min_size=1, max_size=3),
       st.integers(2, 5))
@example([[[2]], [[2]]], 5)  # {0, 2, 3} + {0, 2, 3} is all of Z/5, not their union
def test_norm_residues_matches_brute_force_on_block_diagonal_grams(parts, k):
    while len(parts) > 1 and k ** sum(len(g) for g in parts) > 5**5:
        parts = parts[:-1]
    L = lat.direct_sum(*(lat.Lattice(g) for g in parts))
    assert lat.norm_residues(L, k) == _brute_norm_residues(L.gram, k)


def test_norm_residues_mod2_even():
    for L in (lat.U(), lat.E8(-1), lat.A2(-1), lat.Lattice([[4, 4], [4, 0]])):
        assert lat.norm_residues(L, 2) == {0}


def test_find_primitive_vector():
    assert list(lat.find_primitive_vector(lat.A2(-1), -2, 3)) == [1, 0]
    assert list(lat.find_primitive_vector(lat.diag_lattice(4), 4, 2)) == [1]
    assert list(lat.find_primitive_vector(lat.U(3), 12, 3)) == [1, 2]
    assert lat.find_primitive_vector(lat.A2(-1), 2, 4) is None
    # rank 0: the empty vector is not primitive
    assert lat.find_primitive_vector(lat.Lattice([]), 0, 1) is None


def _random_walk_case(rng):
    """(Gram, norm, bound): a symmetric Gram of rank 1-5 with entries in
    [-4, 4]; its last diagonal entry is 0 in about a third of the cases and
    its whole last row in about a tenth, so the last coordinate's equation is
    also linear or constant."""
    n = rng.randint(1, 5)
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = rng.randint(-4, 4)
    if rng.random() < 0.3:
        G[-1][-1] = 0
    if rng.random() < 0.1:
        for j in range(n):
            G[-1][j] = G[j][-1] = 0
    return G, rng.randint(-12, 12), rng.randint(1, 3)


@pytest.mark.parametrize("seed", range(4))
def test_find_primitive_vector_is_the_first_hit_of_the_scan(seed):
    rng = random.Random(seed)
    results = []
    for _ in range(150):
        G, norm, bound = _random_walk_case(rng)
        L = lat.Lattice(G)
        results.append(lat.find_primitive_vector(L, norm, bound))
        assert results[-1] == oracles.primitive_vector_by_scan(L, norm, bound), (G, norm, bound)
    assert None in results and any(results)


# (Gram, norm, bound, first hit).  Last diagonal entry 0: at x0 = 2 the last
# coordinate's equation 8 + 4 c = 20 has its root c = 3 outside the box
# [-2, 2]; at x0 = 1, 2 + 2 c = 8 has c = 3 only in the shell of 3.  Last row 0:
# every c solves, and the first with gcd 1 wins.
@pytest.mark.parametrize("gram, norm, bound, hit", [
    ([[2, 1], [1, 0]], 20, 2, None),
    ([[2, 1], [1, 0]], 20, 3, [2, 3]),
    ([[2, 1], [1, 0]], 8, 2, None),
    ([[2, 1], [1, 0]], 8, 3, [1, 3]),
    ([[2, 0], [0, 0]], 8, 1, None),
    ([[2, 0], [0, 0]], 8, 2, [2, 1]),
    ([[2, 1, 0], [1, 2, 0], [0, 0, 0]], 6, 2, [1, 1, 0]),
    ([[0, 0], [0, 0]], 0, 2, [1, 0]),
    ([[0, 0], [0, 0]], 1, 2, None),
])
def test_find_primitive_vector_solves_linear_and_constant_last_coordinates(gram, norm, bound, hit):
    L = lat.Lattice(gram)
    assert lat.find_primitive_vector(L, norm, bound) == hit
    assert oracles.primitive_vector_by_scan(L, norm, bound) == hit


def _stack_candidate_vectors(n, bound):
    """Test-only copy of the former hand-rolled depth-first candidate order."""
    for shell in range(1, bound + 1):
        orders = [lat._coordinate_order(shell, i == 0) for i in range(n)]
        stack = [[]]
        while stack:
            prefix = stack.pop()
            if len(prefix) == n:
                if max(abs(c) for c in prefix) == shell:
                    yield tuple(prefix)
                continue
            for c in reversed(orders[len(prefix)]):
                stack.append(prefix + [c])


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("bound", range(1, 4))
def test_candidate_vectors_keep_the_depth_first_order(n, bound):
    assert list(lat.candidate_vectors(n, bound)) == list(_stack_candidate_vectors(n, bound))


def test_candidate_vectors_stay_lazy():
    # callers stop early inside boxes of up to 7^8 vectors
    vectors = lat.candidate_vectors(8, 3)
    assert inspect.isgenerator(vectors)
    assert [next(vectors) for _ in range(3)] == [
        (1, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, -1)]


def test_definite_form_represents():
    G = lat.Lattice([[16, 24], [24, 57]])
    assert not lat.definite_form_represents(G, 1)
    assert not lat.definite_form_represents(G, 4)
    assert not lat.definite_form_represents(G, 8)
    assert lat.definite_form_represents(G, 16)
    with pytest.raises(ValueError):
        lat.definite_form_represents(lat.U(), 2)


def test_definite_represents_agrees_with_exhaustive_search():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        a = rng.randint(-9, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(-9, 9)
        if a <= 0 or a * c - b * b <= 0:
            continue
        L = lat.Lattice([[2 * a, b], [b, 2 * c]])  # even positive definite
        m = rng.randint(1, 30)
        # oracle: exhaustive non-primitive search in a safe box
        box = 2 * m + 2
        found = any(
            L.norm((x, y)) == m
            for x in range(-box, box + 1)
            for y in range(-box, box + 1)
            if (x, y) != (0, 0)
        )
        assert lat.definite_form_represents(L, m) == found
        checked += 1


def test_ell_at_most_rank():
    import random

    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-5, 5)
                A[i][j] = A[j][i] = v
        L = lat.Lattice(A)
        if L.is_nondegenerate():
            assert lat.ell(L) <= L.rank


def test_disc_group_of_complement_matches():
    # W*/W isomorphic to T*/T as groups for primitive W in unimodular ambient
    amb = lat.direct_sum(lat.U(), lat.U(), lat.U())
    W = lat.saturation(lat.Sublattice(amb, [[1, 2, 0, 0, 0, 0], [0, 0, 1, -3, 1, 0]]))
    T = lat.orthogonal_complement(W)
    dg_w = lat.discriminant_group(W.lattice())
    dg_t = lat.discriminant_group(T.lattice())
    assert dg_w.invariant_factors == dg_t.invariant_factors


@pytest.mark.parametrize("basis", [[[1, 2, 0], [0, 0, 0]], [[0, 1], [0, 2]], [[1, 1], [2, 2]]])
def test_sublattice_rejects_dependent_rows(basis):
    # a zero row, a repeated leading column, and a dependent basis not in echelon form
    with pytest.raises(ValueError, match="independent"):
        lat.Sublattice(lat.diag_lattice(*[2] * len(basis[0])), basis)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(st.integers(-2, 2), min_size=c, max_size=c), min_size=1, max_size=4)))
def test_sublattice_accepts_exactly_the_independent_rows(rows):
    independent = xa.rank(rows) == len(rows)
    try:
        lat.Sublattice(lat.diag_lattice(*[2] * len(rows[0])), rows)
    except ValueError:
        assert not independent
    else:
        assert independent
