from itertools import permutations, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcslat import blocks, embed, glue
from tcslat import exactalg as xa
from tcslat import lattice as lat


def test_k3_lattice_constant():
    L = embed.k3_lattice()
    assert L.rank == 22
    assert L.is_even()
    assert abs(L.det()) == 1
    assert lat.signature(L) == (3, 19)


def test_nikulin_sufficient():
    W = lat.diag_lattice(4, 22)
    assert embed.nikulin_sufficient(W) == "i"
    # No 4's W: rank 12, l = 4 -> criterion (ii)
    W4 = lat.direct_sum(lat.diag_lattice(4, -2), lat.E8(-1), lat.diag_lattice(8, -16))
    assert embed.nikulin_sufficient(W4) == "ii"


def test_nikulin_silent_on_rank18():
    # rank 16 disc (Z/3)^5 block perp a rank 2 block: rank 18, criterion silent
    W = lat.direct_sum(burkhardt_like_stub(), lat.Lattice([[-2, 1], [1, 4]]))
    assert W.rank == 18
    assert embed.nikulin_sufficient(W) is None


def burkhardt_like_stub():
    # any rank-16 even lattice of signature (1,15) with disc (Z/3)^5 serves here:
    # the rank-16 block's, the complement of A2(-1) + 2U(3) in the K3 lattice
    return blocks.table2_catalog()["Ex7.7"].lattice()


def test_necessary_condition():
    N16 = burkhardt_like_stub()
    # N16 perp <m> with 3 | m: rank 17, l = 6 -> 23 > 22 impossible
    W = lat.direct_sum(N16, lat.diag_lattice(6))
    assert not embed.necessary_condition(W)
    W2 = lat.direct_sum(N16, lat.Lattice([[-2, 1], [1, 4]]))
    assert not embed.necessary_condition(W2)
    assert embed.necessary_condition(lat.E8(-1))
    # an odd W has no place in the even K3 lattice
    assert not embed.necessary_condition(lat.diag_lattice(1))
    # signature beyond (3, 19): four positive directions, or E8(-1)^2 + D4(-1)
    # with rank 20 and l = 2, whose rank condition alone holds
    assert not embed.necessary_condition(lat.diag_lattice(2, 2, 2, 2))
    assert embed.necessary_condition(lat.diag_lattice(2, 2, 2))
    D4 = lat.Lattice([[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]])
    W = lat.direct_sum(lat.E8(-1), lat.E8(-1), D4)
    assert W.rank + lat.ell(W) == 22
    assert not embed.necessary_condition(W)


def test_uniqueness():
    assert embed.uniqueness(lat.diag_lattice(4, 4))
    W = lat.direct_sum(lat.diag_lattice(4, -2), lat.E8(-1), lat.diag_lattice(8, -16))
    assert embed.uniqueness(W)
    # boundary arithmetic: rank 20 with l = 0 gives 20 + 0 + 2 <= 22 (non-strict)
    W20 = lat.direct_sum(*([lat.U()] * 2), *([lat.E8(-1)] * 2))
    assert embed.uniqueness(W20)
    # one past the boundary: rank 21 with l = 1 fails
    W21 = lat.direct_sum(W20, lat.diag_lattice(-4))
    assert not embed.uniqueness(W21)


def test_construct_embedding_library_44():
    W = lat.diag_lattice(4, 4)
    v = embed.construct_embedding(W)
    assert v.status == embed.EXISTS_CONSTRUCTED
    assert v.primitive is True
    rows = v.basis
    assert rows[0][:4] == [1, 2, 0, 0]
    assert rows[1][:4] == [0, 0, 1, 2]
    assert all(x == 0 for x in rows[0][4:])


def test_construct_embedding_no7_matrix():
    # 2N0 into 3U via the explicit matrix: both N0 copies primitive,
    # cotorsion Z^2 + Z/8
    gram = [[8, 0, 0, 0], [0, -16, 0, 0], [0, 0, 8, 0], [0, 0, 0, -16]]
    W = lat.Lattice(gram)
    v = embed.construct_embedding(W)
    assert v.status == embed.EXISTS_CONSTRUCTED
    assert v.primitive is False
    cot = lat.quotient_torsion(lat.Sublattice(embed.k3_lattice(), v.basis))
    assert cot == [8]
    # each N0 copy primitive
    amb = embed.k3_lattice()
    for rows in (v.basis[:2], v.basis[2:]):
        assert lat.is_primitive(lat.Sublattice(amb, rows))
    # free rank of 3U/2N0 is 2: rank 6 - 4
    assert xa.rank(v.basis) == 4


def test_construct_embedding_no8_matrix():
    gram = [[4, 4, 0, 0], [4, 0, 0, 0], [0, 0, 4, 4], [0, 0, 4, 0]]
    W = lat.Lattice(gram)
    v = embed.construct_embedding(W)
    assert v.status == embed.EXISTS_CONSTRUCTED
    assert v.primitive is False
    assert lat.quotient_torsion(lat.Sublattice(embed.k3_lattice(), v.basis)) == [4, 4]
    amb = embed.k3_lattice()
    for rows in (v.basis[:2], v.basis[2:]):
        assert lat.is_primitive(lat.Sublattice(amb, rows))


def test_construct_embedding_no11_matrix():
    gram = [[12, 4, 0, 0], [4, 0, 0, 1], [0, 0, 12, 4], [0, 1, 4, 0]]
    W = lat.Lattice(gram)
    v = embed.construct_embedding(W)
    assert v.status == embed.EXISTS_CONSTRUCTED
    assert v.primitive is True
    assert lat.signature(W) == (2, 2)


# the library's U(k) pattern takes two U slots while two are free, else a U
# slot and a norm -2k vector of an E8(-1); A2(-1) is two roots of an E8(-1)
@pytest.mark.parametrize("W, summands", [
    (lat.U(3), [("U1", "U2")]),
    (lat.direct_sum(lat.U(2), lat.U(3)), [("U1", "U2"), ("U3", "E8a")]),
    (lat.A2(-1), [("E8a",)]),
])
def test_construct_embedding_library_patterns(W, summands):
    v = embed.construct_embedding(W)
    assert v.status == embed.EXISTS_CONSTRUCTED and v.primitive is True
    assert embed.verify_embedding(W, embed.k3_lattice(), v.basis) is True
    for k, names in enumerate(summands):
        assert not any(_outside(v.basis[2 * k: 2 * k + 2], names))


def test_construct_embedding_runs_out_of_u_slots():
    # U(2) takes U1 + U2 and U(3) takes U3 + E8a: no U slot is left for U(5)
    W = lat.direct_sum(lat.U(2), lat.U(3), lat.U(5))
    assert embed.construct_embedding(W).status == embed.UNKNOWN


def _outside(rows, summands):
    """The entries of rows outside the coordinates of the named summands."""
    inside = {i for name in summands for i in embed.SUMMANDS[name]}
    return [x for row in rows for i, x in enumerate(row) if i not in inside]


def test_backtracking_finds_44_in_2u():
    W = lat.diag_lattice(4, 4)
    rows = embed.place(W, ("U1", "U2"), 2)
    assert rows is not None
    assert embed.verify_embedding(W, embed.k3_lattice(), rows) is True
    assert not any(_outside(rows, ("U1", "U2")))


def test_backtracking_finds_pushout_w_in_3u():
    W = lat.Lattice([[2, 4, -1], [4, 2, 1], [-1, 1, 2]])  # the rank-3 self-glue pushout
    rows = embed.place(W, ("U1", "U2", "U3"), 4)
    assert rows is not None
    assert embed.verify_embedding(W, embed.k3_lattice(), rows) is True


def test_backtracking_unknown_is_honest():
    W = lat.diag_lattice(100)  # needs (1, 50), far beyond the bound
    assert embed.place(W, ("U1",), 2) is None


def test_backtracking_refuses_w_beyond_the_ambient_signature(monkeypatch):
    # 4x<-2> has signature (0, 4) against (3, 3) for 3U: no search may start
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(embed, "_block_pool", no_search)
    for W in (lat.diag_lattice(-2, -2, -2, -2), lat.diag_lattice(2, 2, 2, 2)):
        assert embed.place(W, ("U1", "U2", "U3"), 3) is None


def _no_search(*args):
    raise AssertionError("the search started")


# l(W) > rk(summands) - rk W: W and a complement would need isomorphic
# discriminant groups, but the complement has too small a rank
@pytest.mark.parametrize("block, summands", [
    ("Ex7.9", ("U1", "U2")), ("Ex7.10", ("U3", "E8a")), ("Ex7.11", ("U3", "E8a"))])
def test_place_refuses_w_whose_discriminant_outgrows_the_complement(block, summands, monkeypatch):
    W = blocks.full_catalog()[block].lattice()
    rank = sum(len(embed.SUMMANDS[name]) for name in summands)
    assert W.rank + lat.ell(W) > rank
    (pos, neg), u = lat.signature(W), sum(name.startswith("U") for name in summands)
    assert pos <= u and neg <= rank - u
    monkeypatch.setattr(embed, "_block_pool", _no_search)
    for bound in (1, 3, 9):
        assert embed.place(W, summands, bound) is None


def test_place_searches_when_the_discriminant_just_fits():
    # U(2): rank 2 and l = 2 fill the rank 4 of U1 + U2; its complement is U(2)
    W = lat.U(2)
    assert W.rank + lat.ell(W) == 4
    rows = embed.place(W, ("U1", "U2"), 2)
    assert rows is not None
    assert embed.verify_embedding(W, embed.k3_lattice(), rows) is True


def _parent_backtracking_strategy(W, ambient, bound, prefix):
    """The search as it was before the linear forms and closed-form caps:
    every pairing through xa.pair and every cap by a scan of the later pools.
    Test-only oracle for the search order."""
    if W.is_nondegenerate():
        (pos, neg), (amb_pos, amb_neg) = lat.signature(W), lat.signature(ambient)
        if pos > amb_pos or neg > amb_neg:
            return None
    blocks_ = []
    norm_ranges = []
    for comp in lat.gram_blocks(ambient.gram):
        bg = [[ambient.gram[i][j] for j in comp] for i in comp]
        pool, lo, hi, _, _ = embed._block_pool(bg, bound)
        blocks_.append((comp, bg, pool))
        norm_ranges.append((lo, hi))
    target = W.gram
    n = ambient.rank
    placed = [list(map(int, row)) for row in prefix]

    def pieces_of(vec_full):
        return [tuple(vec_full[i] for i in comp) for comp, _, _ in blocks_]

    def fill(i):
        if i == W.rank:
            return lat.is_primitive(lat.Sublattice(ambient, placed))
        prev_pieces = [pieces_of(v) for v in placed]

        def extend(bi, chosen, norm_acc, pair_acc):
            if bi == len(blocks_):
                if norm_acc != target[i][i]:
                    return False
                for t in range(i):
                    if pair_acc[t] != target[i][t]:
                        return False
                full = [0] * n
                for (comp, _, _), piece in zip(blocks_, chosen):
                    for idx, v in zip(comp, piece):
                        full[idx] = v
                if any(full):
                    rows = placed + [full]
                    if xa.rank(rows) == len(rows):
                        placed.append(full)
                        if fill(i + 1):
                            return True
                        placed.pop()
                return False
            comp, bg, pool = blocks_[bi]
            lo_rest = sum(norm_ranges[bj][0] for bj in range(bi + 1, len(blocks_)))
            hi_rest = sum(norm_ranges[bj][1] for bj in range(bi + 1, len(blocks_)))
            pair_caps = []
            for t in range(i):
                cap = 0
                for bj in range(bi + 1, len(blocks_)):
                    compj, bgj, poolj = blocks_[bj]
                    prev_piece = prev_pieces[t][bj]
                    cap += max(abs(xa.pair(x, bgj, prev_piece)) for x, _ in poolj)
                pair_caps.append(cap)
            for piece, nm in pool:
                na = norm_acc + nm
                if not (target[i][i] - hi_rest <= na <= target[i][i] - lo_rest):
                    continue
                pa = list(pair_acc)
                ok = True
                for t in range(i):
                    pa[t] += xa.pair(piece, bg, prev_pieces[t][bi])
                    if abs(pa[t] - target[i][t]) > pair_caps[t]:
                        ok = False
                        break
                if ok and extend(bi + 1, chosen + [piece], na, pa):
                    return True
            return False

        return extend(0, [], 0, [0] * i)

    if fill(len(placed)):
        return placed
    return None


def _parent_place(W, summands, bound, prefix=()):
    coords = [i for name in summands for i in embed.SUMMANDS[name]]
    gram = embed.k3_lattice().gram
    ambient = lat.Lattice([[gram[i][j] for j in coords] for i in coords])
    rows = _parent_backtracking_strategy(W, ambient, bound,
                                         [[row[i] for i in coords] for row in prefix])
    if rows is None or not embed.verify_embedding(W, ambient, rows):
        return None
    return embed.scatter(rows, summands)


@st.composite
def _small_placements(draw):
    """(Gram, summands, bound): an even Gram of rank at most 3 into U1 + U2,
    or at most 2 into U1 + U2 + U3, which keeps exhausted searches short."""
    summands = draw(st.sampled_from([("U1", "U2"), ("U1", "U2", "U3")]))
    k = draw(st.integers(1, 2 if len(summands) == 3 else 3))
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-2, 2))
    return g, summands, draw(st.integers(1, 2))


# U(2) at bound 2: a cap without the factor b skips the first hit
PINNED_HIT = ([[0, 2], [2, 0]], ("U1", "U2"), 2)


# hits after root candidates that come later than an image in their orbit
PRUNED_HIT = ([[-6, 0], [0, -2]], ("U1", "U2"), 2)


@settings(max_examples=40, deadline=None)
@given(case=_small_placements())
@example(case=PINNED_HIT)
@example(case=PRUNED_HIT)
@example(case=([[2, 1], [1, -4]], ("U1", "U2", "U3"), 2))
def test_place_returns_what_the_parent_search_returns(case):
    gram, summands, bound = case
    W = lat.Lattice(gram)
    assert embed.place(W, summands, bound) == _parent_place(W, summands, bound)


def test_the_pinned_oracle_example_hits():
    gram, summands, bound = PINNED_HIT
    rows = embed.place(lat.Lattice(gram), summands, bound)
    assert rows is not None and rows == _parent_place(lat.Lattice(gram), summands, bound)


@st.composite
def _bound1_placements(draw, summands, max_rank):
    """(Gram, summands, prefix): an even Gram of rank at most max_rank, many of
    which exhaust at bound 1, and for rank >= 2 sometimes the first hit of its
    first row as a prefix, which turns the root test off."""
    k = draw(st.integers(1, max_rank))
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-2, 2))
    prefix = ()
    if k > 1 and draw(st.booleans()):
        prefix = embed.place(lat.Lattice([g[0][:1]]), summands, 1) or ()
    return g, summands, prefix


# perfbench/grams/exhaust_sig22.gram: signature (2, 2), det 305, exhausts 3U at bound 1
EXHAUST_SIG22 = [[4, 1, 0, 0], [1, -4, 1, 0], [0, 1, 4, 1], [0, 0, 1, -4]]


@settings(max_examples=30, deadline=None)
@given(case=_bound1_placements(("U1", "U2", "U3"), 3))
@example(case=(EXHAUST_SIG22, ("U1", "U2", "U3"), ()))
# the root test would prune the first searched row after this prefix
@example(case=([[-6, 0], [0, -2]], ("U1", "U2", "U3"), embed.scatter([[1, -1, 1, -1, 1, -1]],
                                                                       ("U1", "U2", "U3"))))
def test_place_returns_what_the_parent_search_returns_at_bound_1(case):
    gram, summands, prefix = case
    W = lat.Lattice(gram)
    assert embed.place(W, summands, 1, prefix) == _parent_place(W, summands, 1, prefix)


# the parent search above takes seconds to a minute to exhaust U3 + E8a, so
# there the oracle is this search with every root candidate searched
@settings(max_examples=25, deadline=None)
@given(case=_bound1_placements(("U3", "E8a"), 2))
@example(case=([[-2, 1], [1, 4]], ("U3", "E8a"), ()))
@example(case=([[-4, -1], [-1, 2]], ("U3", "E8a"), ()))
def test_place_returns_what_the_unpruned_search_returns_in_u3_e8a(case):
    gram, summands, prefix = case
    W = lat.Lattice(gram)
    got = embed.place(W, summands, 1, prefix)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(embed, "_first_in_orbit", lambda *args: True)
        assert got == embed.place(W, summands, 1, prefix)


def _disjoint_minus_grams():
    """The distinct minus Grams of rank 1 and 2 in the catalog, each with the
    bound `match._embed_factor_pair_disjoint` places it into U3 + E8a at."""
    grams = {tuple(map(tuple, rec.n_gram)) for rec in blocks.full_catalog()
             if rec.n_gram is not None and len(rec.n_gram) <= 2}
    return [(g, max(3, max(abs(x) for row in g for x in row) // 2 + 1)) for g in sorted(grams)]


# E8a is the last block of U3 + E8a, so its pieces come from the norm index;
# the parent search scans the whole pool there; <100> exhausts
@pytest.mark.parametrize("gram, bound", _disjoint_minus_grams() + [(((100,),), 3)])
def test_place_into_u3_e8a_returns_what_the_full_pool_scan_returns(gram, bound):
    W = lat.Lattice(gram)
    assert embed.place(W, ("U3", "E8a"), bound) == _parent_place(W, ("U3", "E8a"), bound)


def test_place_visits_only_last_block_pieces_of_the_needed_norm(monkeypatch):
    passes = []

    class Logged(tuple):
        def __iter__(self):
            passes.append([])
            for entry in tuple.__iter__(self):
                passes[-1].append(entry)
                yield entry

    block_pool = embed._block_pool

    def logged(block_gram, bound):
        got = list(block_pool(block_gram, bound))
        if len(block_gram) == 8:  # E8a, the last block
            got[0] = Logged(got[0])
            got[4] = {nm: Logged(v) for nm, v in got[4].items()}
        return tuple(got)

    Ws = [lat.Lattice(gram) for gram in ([[-4]], [[8, 4], [4, -20]])]
    expected = [_parent_place(W, ("U3", "E8a"), 3) for W in Ws]
    monkeypatch.setattr(embed, "_block_pool", logged)
    assert [embed.place(W, ("U3", "E8a"), 3) for W in Ws] == expected
    assert passes and all(len({nm for _, nm in seen}) <= 1 for seen in passes)


def test_the_pruned_oracle_example_hits_after_pruned_roots(monkeypatch):
    gram, summands, bound = PRUNED_HIT
    verdicts = []
    first_in_orbit = embed._first_in_orbit

    def recorded(*args):
        verdicts.append(first_in_orbit(*args))
        return verdicts[-1]

    monkeypatch.setattr(embed, "_first_in_orbit", recorded)
    rows = embed.place(lat.Lattice(gram), summands, bound)
    assert rows is not None and rows == _parent_place(lat.Lattice(gram), summands, bound)
    assert False in verdicts and verdicts[-1] is True


def test_exhaust_sig22_makes_few_rank_checks(monkeypatch):
    calls = []
    rank = xa.rank

    def counted(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(xa, "rank", counted)
    assert embed.place(lat.Lattice(EXHAUST_SIG22), ("U1", "U2", "U3"), 1) is None
    # the unpruned search makes 1980 rank checks here
    assert 0 < len(calls) <= 100


@pytest.mark.parametrize("gram, bound", [(lat.U().gram, 3), (lat.E8(-1).gram, 4)])
def test_pool_key_sorts_into_pool_order(gram, bound):
    pool = embed._block_pool(gram, bound)[0]
    assert sorted(pool, key=lambda v: embed._pool_key(v[0])) == list(pool)
    assert len({embed._pool_key(x) for x, _ in pool}) == len(pool)


def _orbit(pieces, is_u):
    """Every image of a row under +-1 and the swap on each U, the permutations
    of the U summands and +-1 on each other block, listed map by map."""
    images = []
    for piece, u in zip(pieces, is_u):
        piece, neg = tuple(piece), tuple(-c for c in piece)
        images.append([piece, neg, piece[::-1], neg[::-1]] if u else [piece, neg])
    u_at = [bi for bi, u in enumerate(is_u) if u]
    for perm in permutations(u_at):
        source = dict(zip(u_at, perm))
        yield from product(*(images[source.get(bi, bi)] for bi in range(len(pieces))))


def _dfs_place(row):
    return [embed._pool_key(piece) for piece in row]


_U_PIECE = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_E8_PIECE = st.tuples(*[st.integers(-1, 1)] * 8)


# after two zero pieces, (-1, 2) comes after its negation only and (0, 1)
# after its swap only; no U piece comes after its negated swap alone
@settings(max_examples=150, deadline=None)
@given(pieces=st.one_of(st.tuples(_U_PIECE, _U_PIECE, _U_PIECE), st.tuples(_U_PIECE, _E8_PIECE)))
@example(pieces=((0, 0), (0, 0), (-1, 2)))
@example(pieces=((0, 0), (0, 0), (0, 1)))
@example(pieces=((1, 0), (0, 0), (0, 0)))
@example(pieces=((0, 0), (0, 0), (0, 0)))
@example(pieces=((1, 1), (-1, 0, 0, 0, 0, 0, 0, 0)))
@example(pieces=((1, 1), (1, 0, 0, 0, 0, 0, 0, -1)))
@example(pieces=((1, 1), (0, 0, 0, 0, 0, 0, 0, 1)))
def test_first_in_orbit_is_the_least_image(pieces):
    is_u = [len(piece) == 2 for piece in pieces]
    least = min(map(_dfs_place, _orbit(pieces, is_u)))
    assert embed._first_in_orbit(pieces, is_u) == (_dfs_place(pieces) == least)


# every pool is the whole box [-b, b]^n, so its largest pairing with a fixed p
# is b |G p|_1, the cap the search computes in closed form
@pytest.mark.parametrize("gram, bound", [(lat.U().gram, 3), (lat.E8(-1).gram, 4)])
@settings(max_examples=15, deadline=None)
@given(p=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_closed_form_cap_is_the_pool_maximum(gram, bound, p):
    p = p[: len(gram)]
    pool, _, _, b, _ = embed._block_pool(gram, bound)
    form = [sum(map(mul, row, p)) for row in gram]
    assert b * sum(map(abs, form)) == max(abs(xa.pair(x, gram, p)) for x, _ in pool)


@pytest.mark.parametrize("gram, bound", [(lat.U().gram, 3), (lat.E8(-1).gram, 4)])
def test_block_pool_is_the_candidate_enumeration(gram, bound):
    pool, lo, hi, _, by_norm = embed._block_pool(gram, bound)
    n = len(gram)
    L = lat.Lattice(gram)
    capped = bound if n == 2 else 1
    fresh = [((0,) * n, 0)] + [(x, L.norm(x)) for x in lat.candidate_vectors(n, capped)]
    assert isinstance(pool, tuple) and all(isinstance(v, tuple) for v in pool)
    assert list(pool) == fresh
    assert (lo, hi) == (min(nm for _, nm in fresh), max(nm for _, nm in fresh))
    assert by_norm == {norm: [v for v in fresh if v[1] == norm] for _, norm in fresh}


def test_place_enumerates_each_pool_once(monkeypatch):
    monkeypatch.setattr(embed, "_POOLS", {})
    calls = []
    enumerate_vectors = lat.candidate_vectors

    def counted(n, bound):
        calls.append((n, bound))
        return enumerate_vectors(n, bound)

    monkeypatch.setattr(lat, "candidate_vectors", counted)
    W = lat.Lattice(blocks.full_catalog()["Ex7.6"].n_gram)
    first = embed.place(W, ("U3", "E8a"), 3)
    assert first is not None and embed.place(W, ("U3", "E8a"), 4) is not None
    # E8(-1) caps bounds 3 and 4 to 1: one pool; U3 has one pool per bound
    assert sorted(calls) == [(2, 3), (2, 4), (8, 1)]
    assert embed.place(W, ("U3", "E8a"), 3) == first
    assert len(calls) == 3


def _e8_vector_of_norm_by_bounds(norm):
    """The former search: candidate_vectors(8, bound) for bound 1, 2, 3 in turn."""
    E8 = lat.E8()
    for bound in (1, 2, 3):
        for x in lat.candidate_vectors(8, bound):
            if E8.norm(x) == norm:
                return list(x)
    return None


# E8 is even: an odd norm exhausts all 7^8 candidates, which takes minutes
@pytest.mark.parametrize("norm", range(2, 13, 2))
def test_e8_vector_of_norm_is_the_first_hit_of_the_shells(norm):
    got = embed._e8_vector_of_norm(norm)
    assert got == _e8_vector_of_norm_by_bounds(norm)
    assert lat.E8().norm(got) == norm


def test_summands_tile_the_k3_basis():
    coords = [i for r in embed.SUMMANDS.values() for i in r]
    assert coords == list(range(embed.K3_RANK))
    gram = embed.k3_lattice().gram
    for name, r in embed.SUMMANDS.items():
        block = [[gram[i][j] for j in r] for i in r]
        assert xa.frozen(block) == (lat.U() if name.startswith("U") else lat.E8(-1)).gram


# every summand set the package and tools/make_configs.py search in, with
# the factors of no2d, the rank-3 self-glue pushout and no10's N = Ex7.9
@pytest.mark.parametrize("summands, gram", [
    (("U1", "U2"), blocks.full_catalog()["Ex7.3"].n_gram),
    (("U3", "E8a"), blocks.full_catalog()["Ex7.6"].n_gram),
    (("U1", "U2", "U3"), [[2, 4, -1], [4, 2, 1], [-1, 1, 2]]),
    (("U1", "U2", "E8a"), blocks.full_catalog()["Ex7.9"].n_gram),
])
def test_place_stays_in_its_summands(summands, gram):
    W = lat.Lattice(gram)
    rows = embed.place(W, summands, 3)
    assert rows is not None and len(rows) == W.rank
    assert all(len(row) == embed.K3_RANK for row in rows)
    assert not any(_outside(rows, summands))
    assert embed.verify_embedding(W, embed.k3_lattice(), rows) is True


def test_place_keeps_the_prefix_rows_first():
    # no10: N = Ex7.9 placed first, then its rank-5 pushout W extends it
    summands = ("U1", "U2", "E8a")
    N = blocks.full_catalog()["Ex7.9"].lattice()
    res = glue.orthogonal_pushout(glue.PushoutSpec(N, N, lat.diag_lattice(-8), [[-1, -1, 1]],
                                                   [[-1, -1, 1]]))
    prefix = embed.place(N, summands, 3)
    assert prefix is not None
    rows = embed.place(res.w, summands, 3, prefix=prefix)
    assert rows is not None and len(rows) == res.w.rank
    assert rows[: N.rank] == prefix
    assert not any(_outside(rows, summands))
    assert embed.verify_embedding(res.w, embed.k3_lattice(), rows) is True


def test_place_rejects_a_prefix_outside_its_summands():
    prefix = embed.scatter([[1, 2]], ("U3",))
    with pytest.raises(ValueError, match="summands"):
        embed.place(lat.diag_lattice(4, 4), ("U1", "U2"), 2, prefix=prefix)


def test_scatter():
    (row,) = embed.scatter([[1, 2, 3, 4]], ("U3", "U1"))
    assert len(row) == embed.K3_RANK
    assert row[:6] == [3, 4, 0, 0, 1, 2] and not any(row[6:])
    with pytest.raises(ValueError):
        embed.scatter([[1, 2, 3]], ("U1",))


def test_mod_obstruction():
    T = lat.direct_sum(lat.A2(-1), lat.U(3), lat.U(3))
    assert embed.mod_obstruction(T, 2, 3)
    assert embed.mod_obstruction(T, 8, 3)
    assert not embed.mod_obstruction(T, 4, 3)
    assert embed.mod_obstruction(lat.U(), 3, 2)
    assert not embed.mod_obstruction(lat.diag_lattice(4), 4, 3)


def test_find_primitive_vector_in_complement():
    T = lat.direct_sum(lat.A2(-1), lat.U(3), lat.U(3))
    x = lat.find_primitive_vector(T, 4, 3)
    assert x is not None
    assert T.norm(x) == 4
    assert lat.find_primitive_vector(lat.U(3), 6, 2) is not None
    assert lat.find_primitive_vector(lat.A2(-1), 2, 4) is None


def test_criterion_i_implies_necessary():
    for gram in ([[4]], [[4, 0], [0, 22]], [[-2, 1], [1, 4]]):
        W = lat.Lattice(gram)
        if embed.nikulin_sufficient(W) == "i":
            assert embed.necessary_condition(W)


def test_dimension_mismatch():
    big = lat.direct_sum(*([lat.U()] * 12))
    with pytest.raises(ValueError):
        embed.construct_embedding(big)


def test_uniqueness_needs_an_indefinite_complement():
    # 3U embeds in two ways, with complements E8(-1)^2 and D16+(-1): both definite
    W = lat.direct_sum(lat.U(), lat.U(), lat.U())
    assert embed.construct_embedding(W).status == embed.EXISTS_CONSTRUCTED
    assert not embed.uniqueness(W)
    # E8(-1)^2 has the indefinite complement 3U
    E = lat.direct_sum(lat.E8(-1), lat.E8(-1))
    assert embed.construct_embedding(E).status == embed.EXISTS_CONSTRUCTED
    assert embed.uniqueness(E)
