import collections
import importlib.util
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tcslat import blocks, cli, embed, match, tcs
from tcslat import exactalg as xa
from tcslat import lattice as lat

import oracles

CAT = blocks.full_catalog()
RANK1 = blocks.rank1_catalog()
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def test_certificate_rank1_pair():
    cert = match.build_certificate(CAT["7.1_4^1"], CAT["7.1_22^1"], match.PerpendicularPrimitive())
    assert isinstance(cert, match.MatchCertificate)
    assert cert.embedding.status == embed.EXISTS_CONSTRUCTED
    assert cert.embedding.primitive
    assert cert.is_explicit()
    assert cert.positivity["t"] == (1, 19)
    assert cert.ample_auto  # perpendicular gluing satisfies the cone hypothesis


def test_perp_match_reduces_w_once(monkeypatch):
    # ell is kept on the Lattice, so the necessary condition and the criterion
    # share one Smith form of W's Gram, and ell needs no det; explicit Ex7.7
    # rows need neither, since the necessary condition only rules out a
    # primitive W
    calls = collections.Counter()

    def counting(name):
        kernel = getattr(xa, name)

        def counted(A, *args, **kwargs):
            calls[name, tuple(map(tuple, A))] += 1
            return kernel(A, *args, **kwargs)
        return counted

    for name in ("snf", "det"):
        monkeypatch.setattr(xa, name, counting(name))
    for plus_id, minus_id, reductions in (("Ex7.7", "7.1_4^1", 0), ("7.1_4^1", "7.1_22^1", 1)):
        plus, minus = CAT[plus_id], CAT[minus_id]
        cert = match.build_certificate(plus, minus, match.PerpendicularPrimitive())
        assert isinstance(cert, match.MatchCertificate)
        W = tuple(map(tuple, lat.direct_sum(plus.lattice(), minus.lattice()).gram))
        assert (calls["snf", W], calls["det", W]) == (reductions, 0), (plus_id, minus_id)


def test_perp_certificate_signatures_need_no_fraction_elimination(monkeypatch):
    # the signatures of W, W+, W- and T come from the integer kernel, and
    # neither they nor proposing the triple run the Fraction LDL^T
    calls = collections.Counter()
    kernel = xa.congruence_steps

    def counted(G):
        calls[len(G)] += 1
        return kernel(G)

    monkeypatch.setattr(xa, "congruence_steps", counted)
    for plus_id, minus_id in (("7.1_2^1", "7.1_6^1"), ("Ex7.7", "7.1_4^1")):
        plus, minus = CAT[plus_id], CAT[minus_id]
        cert = match.build_certificate(plus, minus, match.PerpendicularPrimitive())
        assert isinstance(cert, match.MatchCertificate)
        assert match.propose_triple(cert) is not None
        assert not calls, (plus_id, minus_id, calls)


def test_perp_certificate_and_triple_build_one_complement(monkeypatch):
    # W+ and W- come from the N+ x N- pairing and verify_triple tests span(T+-) by pairing, so
    # the only rank-22 complement is T = (N+ + N-)^perp and nothing is intersected
    match._burkhardt()  # Ex7.7's own placement is built once per process
    calls = collections.Counter()
    for name in ("orthogonal_complement", "intersect"):
        def counted(*args, _name=name, _kernel=getattr(lat, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(lat, name, counted)
    for plus_id, minus_id in (("7.1_2^1", "7.1_6^1"), ("Ex7.7", "7.1_4^1")):
        calls.clear()
        cert = match.build_certificate(CAT[plus_id], CAT[minus_id], match.PerpendicularPrimitive())
        assert match.propose_triple(cert) is not None
        assert (calls["orthogonal_complement"], calls["intersect"]) == (1, 0), (plus_id, minus_id, calls)


# the rank-10 minus blocks have l = 2, so rk + l = 12 exceeds the rank 10 of
# U3 + E8a: place refuses them and the criterion answers, where the search
# at bound 9 did not end
@pytest.mark.parametrize("plus, minus, criterion, ranks", [
    ("7.1_4^1", "Ex7.10", "i", ((1, 0), 11, (1, 10))),
    ("7.1_4^1", "Ex7.11", "i", ((1, 0), 11, (1, 10))),
    ("Ex7.6", "Ex7.10", "ii", ((1, 1), 12, (1, 9))),
    ("Ex7.6", "Ex7.11", "ii", ((1, 1), 12, (1, 9))),
])
def test_perp_match_refuses_the_rank10_minus_search(plus, minus, criterion, ranks, monkeypatch,
                                                     capsys):
    pool = embed._block_pool

    def no_e8_search(block_gram, bound):
        if len(block_gram) == 8:
            raise AssertionError("the search into U3 + E8a started")
        return pool(block_gram, bound)

    monkeypatch.setattr(embed, "_block_pool", no_e8_search)
    assert cli.main(["match", "--plus", plus, "--minus", minus, "--mode", "perp"]) == 0
    w_plus, w_rank, t = ranks
    assert capsys.readouterr().out == "\n".join([
        f"blocks = {plus} x {minus}",
        "mode = perpendicular-primitive",
        f"w_rank = {w_rank}",
        f"embedding = EmbeddingVerdict(ExistsPrimitiveByCriterion({criterion}))",
        "sig_check = True",
        f"positivity = {{'w_plus': {w_plus}, 'w_minus': (1, 9), 't': {t}}}",
        "ample_hypothesis = auto",
    ]) + "\n"


# tools/make_configs.py takes these files' rows from the certificates `tcslat match` prints, with
# the mode given as match's argv after --mode; orth finds its R vectors at the default bound 6
ORTH_R = ["orth", "--assert-ample", "--r"]
CERTIFIED_CONFIGS = (
    [("no1", ["perp-over", "--glue-index", "2"]), ("no1-primitive", ["perp"])]
    + [(f"no2{c}", ["perp"]) for c in "abcd"] + [("no3", ["perp"])]
    + [(f"no5{c}", ["perp"]) for c in "abcdefg"] + [(f"no6{c}", ["perp"]) for c in "abcde"]
    + [("no9a", ORTH_R + ["[[-6]]"]), ("no9c", ORTH_R + ["[[-16]]"])]
    + [(f"no9{c}", ORTH_R + ["[[-4]]"]) for c in "bdefgh"]
)


@pytest.mark.parametrize("name, mode", CERTIFIED_CONFIGS, ids=[name for name, _ in CERTIFIED_CONFIGS])
def test_config_rows_are_the_perp_certificate_rows(name, mode, capsys):
    cfg = tcs.load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"), CAT)
    argv = ["match", "--plus", cfg.block_plus.id, "--minus", cfg.block_minus.id, "--mode", *mode]
    assert cli.main(argv) == 0
    printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert printed["emb_plus"] == str(xa.mat(cfg.emb_plus.basis))
    assert printed["emb_minus"] == str(xa.mat(cfg.emb_minus.basis))


def test_make_configs_check_passes():
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_configs.py")
    spec = importlib.util.spec_from_file_location("make_configs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    try:
        tool.main(["--check"])
    except SystemExit as exc:  # the tool exits naming the first file that differs or fails its check
        pytest.fail(f"make_configs.py --check: {exc}")


def test_certificate_burkhardt_obstructed():
    cert = match.build_certificate(CAT["Ex7.7"], CAT["7.1_2^1"], match.PerpendicularPrimitive())
    assert isinstance(cert, match.MatchFailure)
    assert cert.code == match.EMBEDDING_IMPOSSIBLE
    assert "mod-3" in cert.detail and "m = 2" in cert.detail


def test_certificate_burkhardt_obstructed_all_m2mod3():
    for rid in ("7.1_2^1", "7.1_8^1", "7.1_14^1", "7.1_1^2", "7.1_4^2"):
        cert = match.build_certificate(CAT["Ex7.7"], CAT[rid], match.PerpendicularPrimitive())
        assert isinstance(cert, match.MatchFailure)
        assert cert.code == match.EMBEDDING_IMPOSSIBLE


def test_certificate_burkhardt_constructive():
    cert = match.build_certificate(CAT["Ex7.7"], CAT["7.1_4^1"], match.PerpendicularPrimitive())
    assert isinstance(cert, match.MatchCertificate)
    assert cert.embedding.primitive  # m = 4 is 1 mod 3: W itself primitive
    cfg = cert.to_config(name="cert-5a")
    inv = tcs.compute_invariants(cfg)
    assert inv.b3 == 95 and inv.tor_h3 == []

    cert6 = match.build_certificate(CAT["Ex7.7"], CAT["7.1_6^1"], match.PerpendicularPrimitive())
    assert isinstance(cert6, match.MatchCertificate)
    assert cert6.embedding.primitive is False  # 3 | m: cotorsion Z/3
    inv6 = tcs.compute_invariants(cert6.to_config(name="cert-6a"))
    assert inv6.tor_h3 == [3]


def test_certificate_ample_cone_unasserted():
    rec = CAT["Ex7.4"]
    mode = match.Orthogonal([[-12]], [[2, -1]], [[2, -1]])
    cert = match.build_certificate(rec, rec, mode, ample_cone_asserted=False)
    assert isinstance(cert, match.MatchFailure)
    assert cert.code == match.AMPLE_CONE_UNASSERTED


def test_certificate_pushout_failure():
    rec = blocks.BlockRecord(
        id="line-quartic", kind="semifano_small_res", n_gram=[[4, 1], [1, -2]],
        anticanonical_class=[1, 0], b3_Z=10, div_c2={2},
    )
    mode = match.Orthogonal([[-36]], [[-1, 4]], [[-1, 4]])
    cert = match.build_certificate(rec, rec, mode, ample_cone_asserted=True)
    assert isinstance(cert, match.MatchFailure)
    assert cert.code == match.PUSHOUT_FAILURE
    assert "-9/4" in cert.detail


def test_certificate_orthogonal_9b():
    rec = CAT["MM2-6"]
    mode = match.Orthogonal([[-4]], [[1, -1]], [[1, -1]])
    cert = match.build_certificate(rec, rec, mode, ample_cone_asserted=True)
    assert isinstance(cert, match.MatchCertificate)
    assert cert.positivity["w_plus"] == (1, 0)
    assert cert.positivity["t"] == (1, 18)
    inv = tcs.compute_invariants(cert.to_config(name="cert-9b"))
    assert inv.b2 == 1 and inv.b3 == 86 and inv.div_p1 == 24


def test_certificate_overlattice_no1():
    cert = match.build_certificate(CAT["7.1_4^1"], CAT["7.1_4^1"], match.PerpendicularOverlattice(2))
    assert isinstance(cert, match.MatchCertificate)
    inv = tcs.compute_invariants(cert.to_config(name="cert-no1"))
    assert inv.tor_h3 == [2] and inv.b3 == 155


def test_propose_and_verify_triple():
    cert = match.build_certificate(CAT["7.1_4^1"], CAT["7.1_4^1"], match.PerpendicularPrimitive())
    triple = match.propose_triple(cert)
    ok, reasons = match.verify_triple(triple, cert.emb_plus, cert.emb_minus)
    assert ok, reasons
    # k_plus/k_minus are images of the blocks' positive classes; k_0 is the
    # first norm-2 hyperbolic vector of the complement
    assert triple.norms == (4, 4, 2)
    # swapping k_plus and k_0 breaks membership
    swapped = match.MatchingTriple(triple.k_0, triple.k_minus, triple.k_plus, triple.norms)
    ok2, reasons2 = match.verify_triple(swapped, cert.emb_plus, cert.emb_minus)
    assert not ok2
    assert any("membership" in r for r in reasons2)


@st.composite
def span_cases(draw):
    """(sublattice of Z^n, v): v a rational combination of the basis rows, or
    any rational vector, which is mostly outside the span."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    entries = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    basis = draw(st.lists(entries, min_size=k, max_size=k))
    assume(not basis or xa.rank(basis) == k)
    if basis and draw(st.booleans()):
        basis = xa.hnf(basis)  # an echelon basis is reduced against as it is
    fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    if basis and draw(st.booleans()):
        coeffs = draw(st.lists(fractions, min_size=k, max_size=k))
        v = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
    else:
        v = draw(st.lists(fractions, min_size=n, max_size=n))
    return lat.Sublattice(lat.Lattice(xa.eye(n)), basis), v


@settings(max_examples=200, deadline=None)
@given(span_cases())
def test_in_span_agrees_with_the_rank_test(case):
    sub, v = case
    assert match._in_span(v, sub) == oracles.in_span_by_rank(v, sub)


def _assert_geometry_agrees_with_the_complement_route(cert):
    assert cert.w_plus.basis == oracles.orthogonal_part_via_complement(cert.emb_plus, cert.emb_minus).basis
    assert cert.w_minus.basis == oracles.orthogonal_part_via_complement(cert.emb_minus, cert.emb_plus).basis
    t = match.propose_triple(cert)
    # the proposed triple passes; rotated, each vector leaves some of its spans
    for triple in (t, match.MatchingTriple(t.k_minus, t.k_0, t.k_plus, t.norms)):
        ok, reasons = match.verify_triple(triple, cert.emb_plus, cert.emb_minus)
        membership = [r for r in reasons if r.startswith("membership")]
        assert membership == oracles.membership_via_complements(triple, cert.emb_plus, cert.emb_minus)
        assert ok == (triple is t)


def test_perp_geometry_agrees_with_the_complement_route_on_the_catalog():
    explicit = 0
    for a, b in match.enumerate_pairs(CAT):
        if a.gramless or b.gramless:
            continue
        cert = match.build_certificate(a, b, match.PerpendicularPrimitive())
        if isinstance(cert, match.MatchCertificate) and cert.is_explicit():
            _assert_geometry_agrees_with_the_complement_route(cert)
            explicit += 1
    assert explicit == 459


# R of rank 1 makes P = N+ . G . N-^T nonzero; glue of index 2-16 makes N+ + N- imprimitive
@pytest.mark.parametrize("plus, minus, mode", [
    ("MM2-6", "MM2-6", [[-4]]),
    ("Ex7.4", "Ex7.4", [[-12]]),
    ("7.1_4^1", "7.1_4^1", 2),
    ("Ex7.6", "Ex7.6", 4),
    ("Ex7.6", "Ex7.6", 8),
    ("Ex7.6", "Ex7.6", 16),
])
def test_orth_and_overlattice_geometry_agree_with_the_complement_route(plus, minus, mode):
    plus, minus = CAT[plus], CAT[minus]
    if isinstance(mode, int):
        mode = match.PerpendicularOverlattice(mode)
    else:
        vp, vm = (lat.find_primitive_vector(rec.lattice(), mode[0][0], 6) for rec in (plus, minus))
        mode = match.Orthogonal(mode, [vp], [vm])
    cert = match.build_certificate(plus, minus, mode, ample_cone_asserted=True)
    assert isinstance(cert, match.MatchCertificate) and cert.is_explicit()
    _assert_geometry_agrees_with_the_complement_route(cert)


@st.composite
def perp_cases(draw):
    """(N+, N-) in a random nondegenerate ambient of rank <= 6, each of any rank."""
    n = draw(st.integers(1, 6))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = draw(st.integers(-3, 3))
    assume(xa.det(G) != 0)
    amb = lat.Lattice(G)
    subs = []
    for _ in range(2):
        k = draw(st.integers(0, n))
        basis = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k))
        assume(not basis or xa.rank(basis) == k)
        subs.append(lat.Sublattice(amb, basis))
    return tuple(subs)


@settings(max_examples=150, deadline=None)
@given(perp_cases())
def test_orthogonal_part_matches_the_complement_route(case):
    S, other = case
    assert lat.orthogonal_part(S, other).basis == oracles.orthogonal_part_via_complement(S, other).basis


@settings(max_examples=150, deadline=None)
@given(perp_cases(), st.data())
def test_pairing_membership_matches_the_complement_route(case, data):
    emb_plus, emb_minus = case
    spans = [emb_plus, emb_minus, lat.orthogonal_complement(emb_plus), lat.orthogonal_complement(emb_minus)]
    n = emb_plus.ambient.rank
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def vector():
        sub = data.draw(st.sampled_from(spans + [None]))
        if sub is None or sub.rank == 0:
            return data.draw(st.lists(fractions, min_size=n, max_size=n))
        coeffs = data.draw(st.lists(fractions, min_size=sub.rank, max_size=sub.rank))
        return [sum(c * row[j] for c, row in zip(coeffs, sub.basis)) for j in range(n)]

    triple = match.MatchingTriple(vector(), vector(), vector(), None)
    _, reasons = match.verify_triple(triple, emb_plus, emb_minus)
    assert ([r for r in reasons if r.startswith("membership")]
            == oracles.membership_via_complements(triple, emb_plus, emb_minus))


def test_verify_triple_raises_on_a_degenerate_ambient():
    amb = lat.Lattice([[0, 0, 0], [0, 2, 1], [0, 1, 2]])
    e = xa.eye(3)
    triple = match.MatchingTriple(e[1], e[2], e[0], None)
    with pytest.raises(lat.DegenerateLattice):
        match.verify_triple(triple, lat.Sublattice(amb, [e[1]]), lat.Sublattice(amb, [e[2]]))


def test_constructed_certificate_rejects_rows_that_are_not_orthogonal():
    # two norm-4 rows of U1 that pair to 5: N+ has no part orthogonal to N-, so W+ and W- lose rank
    rec = CAT["7.1_4^1"]
    ep, em = embed.scatter([[1, 2]], ("U1",)), embed.scatter([[2, 1]], ("U1",))
    W = lat.direct_sum(rec.lattice(), rec.lattice())
    with pytest.raises(AssertionError, match="rank mismatch"):
        match._constructed_certificate(rec, rec, match.PerpendicularPrimitive(), W, ep + em, True, ep, em)


# N+ = <e1, e2> and N- = <e2, e3> in Z^5, so T+ = <e3, e4, e5> and T- = <e1, e4, e5>;
# (e1, e3, e4 / 2) passes, and each other triple moves one vector off one span
@pytest.mark.parametrize("label, triple", [
    (None, ([1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, Fraction(1, 2), 0])),
    ("k_plus in span(N+)", ([1, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0])),
    ("k_plus in span(T-)", ([1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0])),
    ("k_minus in span(N-)", ([1, 0, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0])),
    ("k_minus in span(T+)", ([1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0])),
    ("k_0 in span(T+)", ([1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [1, 0, 0, 1, 0])),
    ("k_0 in span(T-)", ([1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 1, 1, 0])),
])
def test_each_membership_check_fails_alone(label, triple):
    e = xa.eye(5)
    amb = lat.Lattice(e)
    emb_plus, emb_minus = lat.Sublattice(amb, e[0:2]), lat.Sublattice(amb, e[1:3])
    norms = tuple(amb.norm(v) for v in triple)
    ok, reasons = match.verify_triple(match.MatchingTriple(*triple, norms), emb_plus, emb_minus)
    assert [r for r in reasons if r.startswith("membership")] == (
        [] if label is None else [f"membership fails: {label}"])
    assert ok == (label is None)


def test_triple_perturbation_fails():
    cert = match.build_certificate(CAT["7.1_4^1"], CAT["7.1_22^1"], match.PerpendicularPrimitive())
    triple = match.propose_triple(cert)
    perturbed = match.MatchingTriple(
        triple.k_plus, triple.k_minus, [a + b for a, b in zip(triple.k_0, cert.emb_plus.basis[0])],
        triple.norms
    )
    ok, reasons = match.verify_triple(perturbed, cert.emb_plus, cert.emb_minus)
    assert not ok


def test_triple_on_orthogonal_cert():
    rec = CAT["MM2-6"]
    mode = match.Orthogonal([[-4]], [[1, -1]], [[1, -1]])
    cert = match.build_certificate(rec, rec, mode, ample_cone_asserted=True)
    triple = match.propose_triple(cert)
    ok, _ = match.verify_triple(triple, cert.emb_plus, cert.emb_minus)
    assert ok


def test_enumerate_pairs_counts():
    assert len(match.enumerate_pairs(RANK1, None)) == 153
    # Burkhardt x Ex7.3 excluded under the rank/discriminant filter
    both = blocks.table2_catalog()
    pairs = match.enumerate_pairs(both, "rankell22")
    ids = {(a.id, b.id) for a, b in pairs}
    assert ("Ex7.3", "Ex7.7") not in ids and ("Ex7.7", "Ex7.3") not in ids
    # Ex7.12 x Ex7.10 included: rank 12 and l(W) = 4
    assert ("Ex7.10", "Ex7.12") in ids or ("Ex7.12", "Ex7.10") in ids


def test_enumerate_pairs_rankell22_bounds_a_gramless_ell_by_the_record():
    cat = blocks.all_catalogs()

    def ell(rec):
        return rec.ell_N if rec.gramless else lat.ell(rec.lattice())

    def ell_sum(a, b):
        if a.gramless or b.gramless:
            return ell(a) + ell(b)
        return lat.ell(lat.direct_sum(a.lattice(), b.lattice()))

    recs = sorted(cat, key=lambda r: r.id)
    expected = [(a.id, b.id) for i, a in enumerate(recs) for b in recs[i:]
                if a.rank + b.rank + ell_sum(a, b) < 22]
    pairs = match.enumerate_pairs(cat, "rankell22")
    assert [(a.id, b.id) for a, b in pairs] == expected
    assert len(pairs) == 864
    assert sum(a.gramless or b.gramless for a, b in pairs) == 339


@pytest.mark.parametrize("pair_filter", ["none", "rank_11", "rank_ell_22", ""])
def test_enumerate_pairs_unknown_filter(pair_filter):
    with pytest.raises(ValueError, match="unknown filter"):
        match.enumerate_pairs(RANK1, pair_filter)


def test_enumerate_pairs_rank11():
    cat = blocks.rank1_catalog().merged_with(blocks.rank2_catalog())
    for a, b in match.enumerate_pairs(cat, "rank11"):
        assert a.rank + b.rank <= 11


def test_geography_rank1_table():
    rep = match.geography_general(RANK1)
    assert rep.summary["pairs"] == 153
    assert rep.summary["distinct_b"] == 46
    assert rep.summary["distinct_types"] == 82
    assert rep.summary["b3_min"] == 71
    assert rep.summary["b3_max"] == 239
    b, count, divs = rep.row_for(48)
    assert count == 6
    assert [divs.get(d, 0) for d in (4, 8, 12, 16, 24, 48)] == [4, 0, 1, 1, 0, 0]
    total, cols = rep.totals
    assert total == 153
    assert [cols.get(d, 0) for d in (4, 8, 12, 16, 24, 48)] == [101, 28, 7, 14, 2, 1]
    # the unique div p1 = 48 entry sits in row b = 72
    row72 = rep.row_for(72)
    assert row72[2].get(48, 0) == 1
    assert rep.row_for(216)[1] == 1


def test_geography_determinism_under_order():
    import random

    recs = list(RANK1)
    random.Random(5).shuffle(recs)
    shuffled = blocks.Catalog(recs)
    assert match.geography_general(shuffled).to_tsv() == match.geography_general(RANK1).to_tsv()


def test_geography_tsv_first_row():
    rep = match.geography_general(RANK1)
    lines = rep.to_tsv().splitlines()
    assert lines[1] == "48\t6\t4\t0\t1\t1\t0\t0"
    assert lines[-1].startswith("total\t153\t101\t28\t7\t14\t2\t1")


def test_geography_general_counts_against_bruteforce():
    cat = blocks.full_catalog()
    rep = match.geography_general(cat, "rank11")
    # independent oracle: quadratic pairing loop
    recs = sorted(cat, key=lambda r: r.id)
    count = 0
    for i in range(len(recs)):
        for j in range(i, len(recs)):
            if recs[i].rank + recs[j].rank <= 11:
                count += 1
    assert rep.summary["pairs"] == count


def test_geography_counts_the_pairs_without_b3_data():
    cat = blocks.all_catalogs()
    rep = match.geography_general(cat)
    recs = sorted(cat, key=lambda r: r.id)
    without = sum(a.b3_Z is None or b.b3_Z is None for i, a in enumerate(recs) for b in recs[i:])
    assert rep.summary["pairs_without_b3_data"] == without == 474
    assert rep.summary["pairs"] + without == len(cat) * (len(cat) + 1) // 2 == 1035


def test_geography_resolutions_modes():
    cat = blocks.table2_catalog()
    best = match.geography_general(cat, None, resolutions="best")
    al = match.geography_general(cat, None, resolutions="all")
    assert best.summary["pairs"] == al.summary["pairs"]
    assert al.summary["distinct_types"] >= best.summary["distinct_types"]


def test_geography_empty():
    rep = match.geography_general(blocks.Catalog([]), None)
    assert rep.rows == [] and rep.summary["pairs"] == 0


def test_triples_verify_on_rank1_certificate_sample():
    sample = ("7.1_2^1", "7.1_4^1", "7.1_12^1", "7.1_22^1", "7.1_1^4", "7.1_3^2")
    recs = [RANK1[r] for r in sample]
    for i, a in enumerate(recs):
        for b in recs[i:]:
            cert = match.build_certificate(a, b, match.PerpendicularPrimitive())
            assert isinstance(cert, match.MatchCertificate), (a.id, b.id)
            triple = match.propose_triple(cert)
            ok, reasons = match.verify_triple(triple, cert.emb_plus, cert.emb_minus)
            assert ok, (a.id, b.id, reasons)
            inv = tcs.compute_invariants(cert.to_config(name=f"{a.id}x{b.id}"))
            assert inv.b3 == a.b3_Z + b.b3_Z + 23


def test_catalog_pairs_rank_le_11_pass_the_criterion():
    cat = blocks.full_catalog()
    recs = sorted(cat, key=lambda r: r.id)
    for i, a in enumerate(recs):
        for b in recs[i:]:
            if a.rank + b.rank <= 11:
                W = lat.direct_sum(a.lattice(), b.lattice())
                assert embed.nikulin_sufficient(W) is not None, (a.id, b.id)


def _nonsymplectic_record(rid, gram, a):
    return blocks.BlockRecord(
        id=rid, kind="nonsymplectic", n_gram=gram, anticanonical_class=a,
        b3_Z=10, rk_K=2, div_c2={2},
    )


def test_certificate_nonsymplectic_minus_two_class_rejected():
    rec = _nonsymplectic_record("ns-a", [[2, 0], [0, -2]], [1, 0])
    mode = match.Orthogonal([[-2]], [[0, 1]], [[0, 1]])
    cert = match.build_certificate(rec, rec, mode)
    assert isinstance(cert, match.MatchFailure)
    assert cert.code == match.AMPLE_CONE_UNASSERTED
    assert "-2" in cert.detail


def test_certificate_nonsymplectic_auto_hypothesis():
    rec = _nonsymplectic_record("ns-b", [[2, 0], [0, -8]], [1, 0])
    mode = match.Orthogonal([[-8]], [[0, 1]], [[0, 1]])
    cert = match.build_certificate(rec, rec, mode)
    assert isinstance(cert, match.MatchCertificate)
    assert cert.ample_auto  # no -2 class in R: the hypothesis holds by itself


@pytest.mark.parametrize("nonsymplectic_side", ["plus", "minus"])
def test_certificate_nonsymplectic_with_fano_needs_the_assertion(nonsymplectic_side):
    # the -2-class check stands in for the assertion only when both blocks are
    # nonsymplectic; against a Fano block either order needs it, and says so
    ns = (_nonsymplectic_record("ns-c", [[12, 0], [0, -8]], [1, 0]), [[0, 1]])
    fano = (CAT["MM2-10"], [[1, -2]])
    (plus, r_plus), (minus, r_minus) = (ns, fano) if nonsymplectic_side == "plus" else (fano, ns)
    mode = match.Orthogonal([[-8]], r_plus, r_minus)
    assert match.build_certificate(plus, minus, mode).code == match.AMPLE_CONE_UNASSERTED
    cert = match.build_certificate(plus, minus, mode, ample_cone_asserted=True)
    assert isinstance(cert, match.MatchCertificate)
    assert not cert.ample_auto
    assert "ample_hypothesis = asserted" in cert.dump().splitlines()


def test_certificate_dump_contains_matrix():
    cert = match.build_certificate(CAT["7.1_4^1"], CAT["7.1_22^1"], match.PerpendicularPrimitive())
    text = cert.dump()
    assert "emb_plus = " in text and "mode = perpendicular-primitive" in text
