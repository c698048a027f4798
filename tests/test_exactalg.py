import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import invariant_factors_via_minors
from tcslat import exactalg as xa
from tcslat import lattice as lat


def arr(M):
    """numpy object array: numpy's products are the oracle for xa's results."""
    return np.array(M, dtype=object)


def check_snf_contract(A):
    res = xa.snf(A)
    rows, cols = len(A), len(A[0])
    assert abs(xa.det(res.U)) == 1
    assert abs(xa.det(res.V)) == 1
    D = arr(res.U) @ arr(A) @ arr(res.V)
    assert D.tolist() == res.D
    assert (arr(res.Vinv) @ arr(res.V)).tolist() == xa.eye(cols)
    diag = res.diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert res.D[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return res


def test_snf_identity():
    res = check_snf_contract(xa.eye(3))
    assert res.diagonal == [1, 1, 1]


def test_snf_2x2_examples():
    res = check_snf_contract(xa.mat([[2, 4], [6, 8]]))
    assert res.diagonal == [2, 4]
    res = check_snf_contract(xa.mat([[0, 3], [3, 0]]))
    assert res.diagonal == [3, 3]


def test_snf_reconstruction_via_inverses():
    A = xa.mat([[2, 4, 1], [6, 8, 0], [5, 5, 5]])
    res = check_snf_contract(A)
    Uinv = xa.unimodular_inverse(res.U)
    Vinv = xa.unimodular_inverse(res.V)
    assert (arr(Uinv) @ arr(res.D) @ arr(Vinv)).tolist() == A


def random_unimodular(n, rng, steps=12):
    M = arr(xa.eye(n))
    if n < 2:
        return M
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        M[i] = M[i] + rng.randint(-2, 2) * M[j]
    return M


def test_snf_invariance_under_unimodular():
    rng = random.Random(7)
    for _ in range(15):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = xa.mat([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        P = random_unimodular(r, rng)
        Q = random_unimodular(c, rng)
        assert xa.snf(P @ arr(A) @ Q).diagonal == xa.snf(A).diagonal
        assert (P @ arr(xa.unimodular_inverse(P))).tolist() == xa.eye(r)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_matches_minor_oracle(rows):
    A = xa.mat(rows)
    res = check_snf_contract(A)
    oracle = invariant_factors_via_minors(A)
    assert [d for d in res.diagonal if d != 0] == oracle


matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=5)
)


@settings(max_examples=100, deadline=None)
@given(matrices, st.integers(0, 4))
def test_pivot_is_the_first_smallest_entry(rows, s):
    # the scan may stop at a unit, but the pivot is still the smallest-abs
    # nonzero entry of the block, ties by lowest (row, col)
    entries = [(abs(v), i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
               if v and i >= s and j >= s]
    expected = min(entries)[1:] if entries else None
    assert xa._pivot_smallest(xa.mat(rows), s) == expected


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_snf_tracks_v_inverse(rows):
    A = xa.mat(rows)
    res = check_snf_contract(A)
    # each torsion generator has order exactly d in coker(A): d g lies in the
    # row space, (d / p) g does not for any prime p | d
    for g, d in res.torsion_generators():
        assert xa.solve_integer(A, [d * x for x in g]) is not None
        for p in prime_factors(d):
            assert xa.solve_integer(A, [(d // p) * x for x in g]) is None


# up to 6 x 6, rectangular and rank-deficient ones included
small_matrices = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(st.integers(-12, 12), min_size=c, max_size=c), min_size=1, max_size=6)
)


@settings(max_examples=120, deadline=None)
@given(small_matrices, st.booleans(), st.booleans())
@example([[2, 0], [0, 3]], True, False)  # coprime pivots: the stubborn-row step
@example([[0, 4, 0], [6, 0, 0], [0, 0, 0]], False, True)  # swaps and a zero row
def test_snf_tracks_only_the_requested_transforms(rows, left, right):
    full = check_snf_contract(rows)
    res = xa.snf(rows, left, right)
    assert res.D == full.D
    assert res.U == (full.U if left else None)
    assert (res.V, res.Vinv) == ((full.V, full.Vinv) if right else (None, None))


def test_diagonal_readers_build_no_transform(monkeypatch):
    def no_eye(n):
        raise AssertionError("a transform was built")

    monkeypatch.setattr(xa, "eye", no_eye)
    amb = lat.Lattice([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 4, 2], [0, 0, 2, 6]])
    S = lat.Sublattice(amb, [[2, 0, 0, 0], [0, 1, 3, 0]])
    T = lat.Sublattice(amb, [[1, 0, 0, 0], [0, 0, 1, 1]])
    assert lat.ell(amb) == 2
    assert not lat.is_primitive(S)
    assert lat.quotient_torsion(S) == [2]
    assert lat.coker_map(S, T) == [72]  # the pairing matrix [[4, 0], [1, 18]]


def prime_factors(n):
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_det_matches_leibniz(rows):
    assert xa.det(rows) == leibniz_det(rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_rank_matches_snf(r, c, inner, seed):
    # a product through a thin middle dimension makes rank deficiency common
    rng = random.Random(seed)
    B = xa.mat([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(r)])
    C = xa.mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(inner)])
    for A in (B, C, (arr(B) @ arr(C)).tolist()):
        assert xa.rank(A) == xa.snf(A).rank


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=n, max_size=n
), min_size=n, max_size=n)))
def test_rational_inverse(rows):
    n = len(rows)
    if xa.det([[int(12 * x) for x in row] for row in rows]) == 0:  # denominators divide 12
        with pytest.raises(ValueError):
            xa.rational_inverse(rows)
        return
    assert (arr(rows) @ arr(xa.rational_inverse(rows))).tolist() == xa.eye(n)


@st.composite
def symmetric_matrices(draw):
    """Small symmetric integer matrices; half of them have a zero diagonal,
    which forces hyperbolic splits."""
    n = draw(st.integers(1, 6))
    hollow = draw(st.booleans())
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = 0 if hollow and i == j else draw(st.sampled_from([-2, -1, 0, 0, 1, 2]))
    return G


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_congruence_steps_diagonalise(G):
    # replay the steps as a change of basis P and check that P G P^T is the
    # block diagonal matrix of the yielded blocks
    n = len(G)
    P = np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)
    order, blocks = [], []
    for pivots, value, row in xa.congruence_steps(G):
        order += pivots
        if len(pivots) == 2:
            i, j = pivots
            ri, rj = row
            blocks.append([[0, value], [value, 0]])
            for a in set(ri) | set(rj):
                P[a] = P[a] - (rj.get(a, 0) / value) * P[i] - (ri.get(a, 0) / value) * P[j]
        else:
            blocks.append([[value]])
            for a, m in row.items():
                P[a] = P[a] - (m / value) * P[pivots[0]]
    assert sorted(order) == list(range(n))
    expected = np.zeros((n, n), dtype=object)
    k = 0
    for b in blocks:
        expected[k : k + len(b), k : k + len(b)] = b
        k += len(b)
    Q = P[order]
    assert (Q @ arr(G) @ Q.T).tolist() == expected.tolist()


def congruence_sign_counts(G):
    """(positives, negatives) read off the Fraction LDL^T steps, None when G is degenerate."""
    pos = neg = 0
    for pivots, value, _ in xa.congruence_steps(G):
        if value == 0:
            return None
        # a hyperbolic pair adds one to each side
        pos += len(pivots) == 2 or value > 0
        neg += len(pivots) == 2 or value < 0
    return pos, neg


def integer_signature(G):
    try:
        return xa.signature(G)
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
@example([[0, 0], [0, 0]])
@example([[2, 3], [3, -2]])
def test_signature_matches_congruence_steps(G):
    # both routes call the same Grams degenerate, and agree on the rest
    assert integer_signature(G) == congruence_sign_counts(G)


def test_signature_of_dense_rank22_grams():
    for seed in range(10):
        rng = random.Random(seed)
        G = [[0] * 22 for _ in range(22)]
        for i in range(22):
            for j in range(i, 22):
                G[i][j] = G[j][i] = rng.randint(-18, 18)
        assert xa.signature(G) == congruence_sign_counts(G), seed


def test_hnf_examples():
    assert xa.hnf(xa.eye(2)) == ((1, 0), (0, 1))
    assert xa.hnf([[2, 0], [0, 0]]) == ((2, 0),)
    assert xa.hnf([[1, 2], [3, 4]]) == ((1, 0), (0, 2))


def test_hnf_preserves_row_space():
    rng = random.Random(3)
    for _ in range(20):
        A = xa.mat([[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)])
        H = xa.hnf(A)
        # every row of H solvable from A and vice versa
        for row in H:
            assert xa.solve_integer(A, row) is not None
        for row in A:
            if any(x != 0 for x in row):
                assert xa.solve_integer(H, row) is not None


def test_kernel_basis_examples():
    assert xa.kernel_basis(xa.eye(3)) == ()
    assert xa.kernel_basis([[2], [-1]]) == ((1, 2),)


def test_kernel_basis_random_rank2():
    rng = random.Random(11)
    for _ in range(10):
        B = xa.mat([[rng.randint(-4, 4) for _ in range(5)] for _ in range(2)])
        if xa.rank(B) != 2:
            continue
        C = xa.mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)])
        A = (arr(C) @ arr(B)).tolist()  # 3 x 5 of rank <= 2
        if xa.rank(A) != 2:
            continue
        K = xa.kernel_basis(A)
        assert len(K) == 1
        assert all(x == 0 for x in (arr(K) @ arr(A)).ravel())
        # saturated: invariant factors all 1
        assert xa.snf(K).invariant_factors() == []


def test_solve_integer():
    assert list(xa.solve_integer(xa.mat([[2]]), [4])) == [2]
    assert xa.solve_integer(xa.mat([[2]]), [3]) is None
    A = xa.mat([[2, 4], [6, 8]])
    b = [8, 12]  # (1, 1) . A
    x = xa.solve_integer(A, b)
    assert x is not None
    assert list(arr(x) @ arr(A)) == [8, 12]


def test_solve_integer_definitive_absence():
    A = xa.mat([[2, 0], [0, 3]])
    assert xa.solve_integer(A, [1, 0]) is None
    assert xa.solve_integer(A, [2, 3]) is not None


def test_kernels_leave_their_argument_unchanged():
    # pivots off the diagonal force row and column swaps; the singular matrix
    # (row 3 = row 1 + row 2) has a kernel
    singular = [[4, 6, 2], [2, 0, 1], [6, 6, 3]]
    invertible = [[0, 6, 2], [2, 3, 1], [5, 7, 9]]
    calls = [
        (xa.snf, singular), (xa.hnf, singular), (xa.kernel_basis, singular),
        (lambda A: xa.solve_integer(A, [6, 6, 3]), singular), (xa.det, invertible),
        (xa.rank, singular), (xa.rational_inverse, invertible),
        (xa.unimodular_inverse, [[0, 1, 0], [2, 1, 1], [1, 1, 1]]),
        (xa.signature, [[0, 2, 3], [2, 0, 1], [3, 1, 0]]),
    ]
    for kernel, A in calls:
        before = [row[:] for row in A]
        kernel(A)
        assert A == before


# symmetric inputs that no checked constructor or kernel may take: a float, a non-integral
# Fraction, a ragged row; each also as plain tuples, which no shortcut for checked rows may trust
NOT_INTEGER_MATRICES = {
    "float": [[2.0, 1], [1, 2]],
    "fraction": [[Fraction(1, 2), 1], [1, 2]],
    "ragged": [[2, 1], [1]],
}


@pytest.mark.parametrize("as_tuples", [False, True])
@pytest.mark.parametrize("case", sorted(NOT_INTEGER_MATRICES))
def test_checked_constructors_and_kernels_reject_non_integer_matrices(case, as_tuples):
    A = NOT_INTEGER_MATRICES[case]
    if as_tuples:
        A = tuple(map(tuple, A))
    calls = [xa.frozen, xa.mat, lat.Lattice, lambda A: lat.Sublattice(lat.U(), A),
             xa.snf, xa.hnf, xa.kernel_basis, lambda A: xa.solve_integer(A, [1, 1]), xa.det, xa.rank,
             xa.unimodular_inverse, xa.signature]
    if case != "fraction":
        calls.append(xa.rational_inverse)  # its entries may be Fractions
    for call in calls:
        with pytest.raises(ValueError if case == "ragged" else TypeError):
            call(A)


def test_det_and_inverse():
    A = xa.mat([[2, 1], [1, 1]])
    assert xa.det(A) == 1
    Ainv = xa.unimodular_inverse(A)
    assert (arr(A) @ arr(Ainv)).tolist() == xa.eye(2)
    with pytest.raises(ValueError):
        xa.unimodular_inverse(xa.mat([[2, 0], [0, 1]]))
