import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcslat import exactalg as xa


def check_snf_contract(A):
    res = xa.snf(A)
    rows, cols = A.shape
    assert abs(xa.det(res.U)) == 1
    assert abs(xa.det(res.V)) == 1
    D = res.U @ A @ res.V
    assert xa.to_lists(D) == xa.to_lists(res.D)
    assert xa.to_lists(res.Vinv @ res.V) == xa.to_lists(xa.eye(cols))
    diag = res.diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert res.D[i, j] == 0
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
    assert xa.to_lists(Uinv @ res.D @ Vinv) == xa.to_lists(A)


def random_unimodular(n, rng, steps=12):
    M = xa.eye(n)
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
        assert xa.snf(P @ A @ Q).diagonal == xa.snf(A).diagonal
        assert xa.to_lists(P @ xa.unimodular_inverse(P)) == xa.to_lists(xa.eye(r))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_matches_minor_oracle(rows):
    A = xa.mat(rows)
    res = check_snf_contract(A)
    oracle = xa.invariant_factors_via_minors(A)
    assert [d for d in res.diagonal if d != 0] == oracle


matrices = st.integers(1, 5).flatmap(
    lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=1, max_size=5)
)


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_snf_tracks_v_inverse(rows):
    A = xa.mat(rows)
    res = check_snf_contract(A)
    # each torsion generator has order exactly d in coker(A): d g lies in the
    # row space, (d / p) g does not for any prime p | d
    for g, d in res.torsion_generators():
        assert xa.solve_integer(A, d * g) is not None
        for p in prime_factors(d):
            assert xa.solve_integer(A, (d // p) * g) is None


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
    assert xa.det(xa.mat(rows) if rows else xa.zeros(0, 0)) == leibniz_det(rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_rank_matches_snf(r, c, inner, seed):
    # a product through a thin middle dimension makes rank deficiency common
    rng = random.Random(seed)
    B = xa.mat([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(r)])
    C = xa.mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(inner)])
    for A in (B, C, B @ C):
        assert xa.rank(A) == xa.snf(A).rank


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=n, max_size=n
), min_size=n, max_size=n)))
def test_rational_inverse(rows):
    A = np.array(rows, dtype=object)
    n = len(rows)
    if xa.det([[int(12 * x) for x in row] for row in rows]) == 0:  # denominators divide 12
        with pytest.raises(ValueError):
            xa.rational_inverse(A)
        return
    assert (A @ xa.rational_inverse(A)).tolist() == xa.eye(n).tolist()


@st.composite
def symmetric_matrices(draw):
    """Small symmetric integer matrices; half of them have a zero diagonal,
    which forces hyperbolic splits."""
    n = draw(st.integers(1, 6))
    hollow = draw(st.booleans())
    G = xa.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = 0 if hollow and i == j else draw(st.sampled_from([-2, -1, 0, 0, 1, 2]))
    return G


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_congruence_steps_diagonalise(G):
    # replay the steps as a change of basis P and check that P G P^T is the
    # block diagonal matrix of the yielded blocks
    n = G.shape[0]
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
    expected = xa.zeros(n, n)
    k = 0
    for b in blocks:
        expected[k : k + len(b), k : k + len(b)] = b
        k += len(b)
    Q = P[order]
    assert (Q @ G @ Q.T).tolist() == expected.tolist()


def test_hnf_examples():
    assert xa.to_lists(xa.hnf(xa.eye(2))) == [[1, 0], [0, 1]]
    assert xa.to_lists(xa.hnf(xa.mat([[2, 0], [0, 0]]), prune=True)) == [[2, 0]]
    assert xa.to_lists(xa.hnf(xa.mat([[1, 2], [3, 4]]))) == [[1, 0], [0, 2]]


def test_hnf_preserves_row_space():
    rng = random.Random(3)
    for _ in range(20):
        A = xa.mat([[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)])
        H = xa.hnf(A, prune=True)
        # every row of H solvable from A and vice versa
        for row in H:
            assert xa.solve_integer(A, row) is not None
        for row in A:
            if any(x != 0 for x in row):
                assert xa.solve_integer(H, row) is not None


def test_kernel_basis_examples():
    assert xa.kernel_basis(xa.eye(3)).shape[0] == 0
    K = xa.kernel_basis(xa.mat([[2], [-1]]))
    assert K.shape == (1, 2)
    assert xa.to_lists(K) == [[1, 2]]


def test_kernel_basis_random_rank2():
    rng = random.Random(11)
    for _ in range(10):
        B = xa.mat([[rng.randint(-4, 4) for _ in range(5)] for _ in range(2)])
        if xa.rank(B) != 2:
            continue
        C = xa.mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)])
        A = C @ B  # 3 x 5 of rank <= 2
        if xa.rank(A) != 2:
            continue
        K = xa.kernel_basis(A)
        assert K.shape[0] == 1
        assert all(x == 0 for x in (K @ A).ravel())
        # saturated: invariant factors all 1
        assert xa.snf(K).invariant_factors() == []


def test_solve_integer():
    assert list(xa.solve_integer(xa.mat([[2]]), [4])) == [2]
    assert xa.solve_integer(xa.mat([[2]]), [3]) is None
    A = xa.mat([[2, 4], [6, 8]])
    b = xa.vec([8, 12])  # (1, 1) . A
    x = xa.solve_integer(A, b)
    assert x is not None
    assert list(x @ A) == [8, 12]


def test_solve_integer_definitive_absence():
    A = xa.mat([[2, 0], [0, 3]])
    assert xa.solve_integer(A, [1, 0]) is None
    assert xa.solve_integer(A, [2, 3]) is not None


def test_det_and_inverse():
    A = xa.mat([[2, 1], [1, 1]])
    assert xa.det(A) == 1
    Ainv = xa.unimodular_inverse(A)
    assert xa.to_lists(A @ Ainv) == xa.to_lists(xa.eye(2))
    with pytest.raises(ValueError):
        xa.unimodular_inverse(xa.mat([[2, 0], [0, 1]]))
