"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its timing.  Everything is exact; the only tolerances are the
stated runtime budgets.  Run with `pytest tests/test_acceptance.py -s`."""

import glob
import os
import random
import time
from fractions import Fraction

import pytest

from tcslat import blocks, embed, glue, match, tcs
from oracles import invariant_factors_via_minors
from tcslat import exactalg as xa
from tcslat import g2alg
from tcslat import lattice as lat

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CAT = blocks.full_catalog()

# The 46-row census: b, count, then counts by divisibility 4, 8, 12, 16, 24, 48.
CENSUS_GOLDEN = [
    (48, 6, 4, 0, 1, 1, 0, 0), (50, 3, 3, 0, 0, 0, 0, 0), (52, 4, 2, 1, 1, 0, 0, 0),
    (54, 1, 1, 0, 0, 0, 0, 0), (56, 4, 3, 0, 0, 0, 1, 0), (58, 1, 1, 0, 0, 0, 0, 0),
    (60, 4, 2, 0, 1, 1, 0, 0), (62, 10, 7, 2, 0, 1, 0, 0), (64, 5, 4, 0, 0, 0, 1, 0),
    (66, 6, 2, 3, 0, 1, 0, 0), (68, 2, 2, 0, 0, 0, 0, 0), (70, 4, 3, 1, 0, 0, 0, 0),
    (72, 4, 2, 0, 1, 0, 0, 1), (74, 5, 2, 2, 0, 1, 0, 0), (76, 10, 2, 5, 1, 2, 0, 0),
    (78, 2, 1, 0, 0, 1, 0, 0), (80, 8, 4, 3, 0, 1, 0, 0), (82, 1, 1, 0, 0, 0, 0, 0),
    (84, 4, 2, 0, 1, 1, 0, 0), (86, 3, 3, 0, 0, 0, 0, 0), (88, 2, 1, 0, 0, 1, 0, 0),
    (90, 10, 6, 3, 0, 1, 0, 0), (92, 3, 3, 0, 0, 0, 0, 0), (94, 6, 4, 1, 0, 1, 0, 0),
    (96, 1, 0, 0, 1, 0, 0, 0), (98, 3, 3, 0, 0, 0, 0, 0), (100, 1, 1, 0, 0, 0, 0, 0),
    (102, 2, 1, 1, 0, 0, 0, 0), (104, 8, 4, 3, 0, 1, 0, 0), (108, 3, 2, 1, 0, 0, 0, 0),
    (112, 1, 1, 0, 0, 0, 0, 0), (114, 2, 2, 0, 0, 0, 0, 0), (118, 2, 1, 1, 0, 0, 0, 0),
    (122, 2, 2, 0, 0, 0, 0, 0), (132, 6, 5, 1, 0, 0, 0, 0), (134, 1, 1, 0, 0, 0, 0, 0),
    (136, 1, 1, 0, 0, 0, 0, 0), (140, 1, 1, 0, 0, 0, 0, 0), (144, 1, 1, 0, 0, 0, 0, 0),
    (146, 3, 3, 0, 0, 0, 0, 0), (150, 1, 1, 0, 0, 0, 0, 0), (156, 1, 1, 0, 0, 0, 0, 0),
    (160, 1, 1, 0, 0, 0, 0, 0), (164, 1, 1, 0, 0, 0, 0, 0), (174, 2, 2, 0, 0, 0, 0, 0),
    (216, 1, 1, 0, 0, 0, 0, 0),
]

# Golden cells per configuration: b2, b3, TH3, TH4, a0, set of div p1 over
# resolution choices.
GOLDEN_CONFIGS = {
    "no1": (0, 155, [2], [], 0, {8}),
    "no2a": (0, 123, [], [], 18, {4, 8}),
    "no2b": (0, 117, [], [], 21, {4}),
    "no2c": (0, 107, [], [], 26, {4, 8}),
    "no2d": (0, 109, [], [], 25, {4, 8}),
    "no3": (3, 116, [], [], 24, {4}),
    "no4": (0, 93, [], [], 21, {4}),
    "no5a": (0, 95, [], [], 45, {4}),
    "no5b": (0, 61, [], [], 45, {4}),
    "no5c": (0, 53, [], [], 45, {4}),
    "no5d": (0, 53, [], [], 45, {4}),
    "no5e": (0, 67, [], [], 45, {4}),
    "no5f": (0, 71, [], [], 45, {4}),
    "no5g": (0, 95, [], [], 45, {4}),
    "no6a": (0, 77, [3], [], 45, {4}),
    "no6b": (0, 57, [3], [], 45, {4}),
    "no6c": (0, 53, [3], [], 45, {4}),
    "no6d": (0, 65, [3], [], 45, {4}),
    "no6e": (0, 85, [3], [], 45, {4}),
    "no7": (24, 47, [8], [], 66, {4}),
    "no8": (0, 95, [4, 4], [], 32, {8}),
    # 9a is asserted at 102, the value the catalog's block data forces (a
    # quoted 82 for this gluing is inconsistent with that data)
    "no9a": (1, 102, [], [], 0, {12}),
    "no9b": (1, 86, [], [], 0, {24}),
    "no9c": (1, 70, [], [], 0, {16}),
    "no9d": (1, 78, [], [], 0, {8}),
    "no9e": (1, 82, [], [], 0, {8}),
    "no9f": (1, 82, [], [], 0, {8}),
    "no9g": (1, 84, [], [], 0, {8}),
    "no9h": (1, 80, [], [], 0, {8}),
    "no10": (1, 82, [], [2, 2], 40, {8}),
    "no11": (0, 93, [], [], 32, {48}),
}


def load(name):
    return tcs.load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"), CAT)


_INVARIANTS = {}


def inv_of(name):
    if name not in _INVARIANTS:
        _INVARIANTS[name] = tcs.compute_invariants(load(name))
    return _INVARIANTS[name]


def all_names():
    return sorted(os.path.basename(p)[:-4] for p in glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))


def _p1_set(cfg):
    plus_choices = sorted(cfg.block_plus.div_c2) or [None]
    minus_choices = sorted(cfg.block_minus.div_c2) or [None]
    if not cfg.is_perpendicular():
        return {tcs.compute_invariants(cfg).div_p1}
    out = set()
    for cp in plus_choices:
        for cm in minus_choices:
            variant = tcs.GluingConfig(
                cfg.block_plus, cfg.block_minus,
                cfg.emb_plus.basis, cfg.emb_minus.basis,
                resolution_plus=cp, resolution_minus=cm,
                div_c2_mod_image=cfg.div_c2_mod_image,
                ample_cone_asserted=cfg.ample_cone_asserted, name=cfg.name,
            )
            out.add(tcs.compute_invariants(variant).div_p1)
    return out


def _report(n, label, t0):
    print(f"ACCEPTANCE {n}: PASS - {label} ({time.monotonic() - t0:.2f}s)")


def test_criterion_1_census():
    t0 = time.monotonic()
    rep = match.geography_general(blocks.rank1_catalog())
    assert rep.summary["pairs"] == 153
    assert rep.summary["distinct_b"] == 46
    assert rep.summary["distinct_types"] == 82
    assert len(rep.rows) == len(CENSUS_GOLDEN)
    for row, golden in zip(rep.rows, CENSUS_GOLDEN):
        b, count, divs = row
        assert (b, count) == golden[:2], f"row b={b}"
        assert tuple(divs.get(d, 0) for d in (4, 8, 12, 16, 24, 48)) == golden[2:], f"row b={b}"
    total, cols = rep.totals
    assert total == 153
    assert tuple(cols.get(d, 0) for d in (4, 8, 12, 16, 24, 48)) == (101, 28, 7, 14, 2, 1)
    # spot anchors
    assert rep.row_for(48)[1:] == (6, {4: 4, 12: 1, 16: 1})
    assert rep.row_for(72)[2].get(48) == 1
    assert rep.row_for(216)[1] == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"census took {elapsed:.2f}s"
    _report(1, "rank-1 census reproduced bit-for-bit", t0)


def test_criterion_2_table5_golden():
    t0 = time.monotonic()
    for name, (b2, b3, th3, th4, a0, p1s) in sorted(GOLDEN_CONFIGS.items()):
        cfg = load(name)
        inv = tcs.compute_invariants(cfg)
        assert inv.b2 == b2, f"{name}: b2 {inv.b2} != {b2}"
        assert inv.b3 == b3, f"{name}: b3 {inv.b3} != {b3}"
        assert inv.tor_h3 == th3, f"{name}: TH3 {inv.tor_h3} != {th3}"
        assert inv.tor_h4 == th4, f"{name}: TH4 {inv.tor_h4} != {th4}"
        assert inv.a0 == a0, f"{name}: a0 {inv.a0} != {a0}"
        got_p1 = _p1_set(cfg)
        assert got_p1 == p1s, f"{name}: p1 {got_p1} != {p1s}"
        _INVARIANTS[name] = inv
    _report(2, "all golden configurations reproduce every recorded cell", t0)


def test_criterion_3_pushout_failure_witness():
    t0 = time.monotonic()
    N = lat.Lattice([[4, 1], [1, -2]])
    spec = glue.PushoutSpec(N, N, lat.diag_lattice(-36), [[-1, 4]], [[-1, 4]])
    res = glue.orthogonal_pushout(spec)
    assert isinstance(res, glue.IntegralityFailure)
    assert res.value == Fraction(-9, 4)
    _report(3, "self-gluing along <-36> fails with witness pairing -9/4", t0)


def test_criterion_4_explicit_matrices():
    t0 = time.monotonic()
    L = embed.k3_lattice()
    # the 4x6 block pair into 3U: cotorsion Z^2 + Z/8, both halves primitive
    gram = [[8, 0, 0, 0], [0, -16, 0, 0], [0, 0, 8, 0], [0, 0, 0, -16]]
    v = embed.construct_embedding(lat.Lattice(gram))
    assert v.status == embed.EXISTS_CONSTRUCTED
    sub = lat.Sublattice(L, v.basis)
    assert sub.induced_gram() == xa.frozen(gram)  # isometric
    assert lat.quotient_torsion(sub) == [8]
    free_rank_of_quotient = 6 - xa.rank([row[:6] for row in v.basis])
    assert free_rank_of_quotient == 2  # Z^2 summand of 3U / image
    for half in (v.basis[:2], v.basis[2:]):
        assert lat.is_primitive(lat.Sublattice(L, half))
    # the 4x4 block pair into 2U: cotorsion (Z/4)^2, both halves primitive
    gram8 = [[4, 4, 0, 0], [4, 0, 0, 0], [0, 0, 4, 4], [0, 0, 4, 0]]
    v8 = embed.construct_embedding(lat.Lattice(gram8))
    assert v8.status == embed.EXISTS_CONSTRUCTED
    sub8 = lat.Sublattice(L, v8.basis)
    assert sub8.induced_gram() == xa.frozen(gram8)
    assert lat.quotient_torsion(sub8) == [4, 4]
    for half in (v8.basis[:2], v8.basis[2:]):
        assert lat.is_primitive(lat.Sublattice(L, half))
    _report(4, "the explicit 3U and 2U matrices verify with the stated cotorsion", t0)


def test_criterion_5_rank16_matchability():
    t0 = time.monotonic()
    blocked = ("7.1_2^1", "7.1_8^1", "7.1_14^1", "7.1_1^2", "7.1_4^2")
    for rid in blocked:
        cert = match.build_certificate(CAT["Ex7.7"], CAT[rid], match.PerpendicularPrimitive())
        assert isinstance(cert, match.MatchFailure), rid
        assert cert.code == match.EMBEDDING_IMPOSSIBLE
        assert "mod-3" in cert.detail
    partners5 = ("7.1_4^1", "7.1_10^1", "7.1_16^1", "7.1_22^1", "7.1_2^2", "7.1_5^2", "7.1_1^4")
    for rid in partners5:
        cert = match.build_certificate(CAT["Ex7.7"], CAT[rid], match.PerpendicularPrimitive())
        assert isinstance(cert, match.MatchCertificate), rid
        assert cert.embedding.primitive
        assert tcs.compute_invariants(cert.to_config(name=f"acc-{rid}")).tor_h3 == []
    partners6 = ("7.1_6^1", "7.1_12^1", "7.1_18^1", "7.1_3^2", "7.1_2^3")
    for rid in partners6:
        cert = match.build_certificate(CAT["Ex7.7"], CAT[rid], match.PerpendicularPrimitive())
        assert isinstance(cert, match.MatchCertificate), rid
        inv = tcs.compute_invariants(cert.to_config(name=f"acc-{rid}"))
        assert inv.tor_h3 == [3], rid
    _report(5, "rank-16 block: five partners obstructed mod 3, twelve constructed", t0)


def test_criterion_6_invariant_suites():
    t0 = time.monotonic()
    # (a) torsion route equivalence on random primitive configurations
    amb = lat.direct_sum(lat.U(), lat.U(), lat.E8(-1))
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        k1 = rng.randint(1, 4)
        k2 = rng.randint(1, 4)
        B1 = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(k1)]
        B2 = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(k2)]
        if xa.rank(xa.mat(B1)) != k1 or xa.rank(xa.mat(B2)) != k2:
            continue
        N1 = lat.saturation(lat.Sublattice(amb, B1))
        N2 = lat.saturation(lat.Sublattice(amb, B2))
        T1 = lat.orthogonal_complement(N1)
        T2 = lat.orthogonal_complement(N2)
        assert (
            lat.quotient_torsion(lat.sum_sublattices(N1, N2))
            == lat.coker_map(N1, T2)
            == lat.coker_map(N2, T1)
        )
        assert (
            lat.quotient_torsion(lat.sum_sublattices(N1, T2))
            == lat.coker_map(N1, N2)
            == lat.coker_map(T2, T1)
        )
        checked += 1
    # (b), (c), (d) over every computed configuration
    for name in all_names():
        inv = inv_of(name)
        assert inv.b4 == inv.b3, name
        if inv.div_p1 is not None:
            assert inv.div_p1 in tcs.DIV_P1_ALLOWED, name
            assert inv.div_p1 % 4 == 0, name
        if name == "no11":
            assert not inv.betti_sum_orthogonal
            assert inv.b2 + inv.b3 == 93  # vs the orthogonal prediction 95
            assert (load(name).block_plus.b3_Z + load(name).block_minus.b3_Z + 23) == 95
        else:
            assert inv.betti_sum_orthogonal, name
    # (e) discriminant groups of a primitive sublattice and its complement agree
    L = embed.k3_lattice()
    for name in all_names():
        cfg = load(name)
        for emb_side in (cfg.emb_plus, cfg.emb_minus):
            T = lat.orthogonal_complement(emb_side)
            assert (
                lat.discriminant_group(emb_side.lattice()).invariant_factors
                == lat.discriminant_group(T.lattice()).invariant_factors
            ), name
    # (f) invariant factors vs the exhaustive-minor oracle on sampled matrices
    rng = random.Random(99)
    for _ in range(1000):
        A = xa.mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        got = [d for d in xa.snf(A).diagonal if d != 0]
        assert got == invariant_factors_via_minors(A)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"invariant suites took {elapsed:.2f}s"
    _report(6, "route equivalence, duality, divisibility, Betti-sum and oracle suites", t0)


def test_criterion_7_pointwise_forms():
    t0 = time.monotonic()
    res = g2alg.metric_from_3form(g2alg.phi0())
    ident = g2alg.identity_metric()
    assert res.exact and res.vol == 1
    assert all(res.g.matrix[i][j] == ident.matrix[i][j] for i in range(7) for j in range(7))
    report = g2alg.verify_identity_suite(samples=100, seed=0)
    assert report["triples_checked"] == 343 + 100

    def e(i):
        return [1 if k == i - 1 else 0 for k in range(7)]

    assert list(g2alg.chi(e(1), e(2), e(3))) == [0] * 7
    assert g2alg.psi0().evaluate(e(4), e(5), e(6), e(7)) == 1
    g2alg.su3_from_unit_vector(g2alg.phi0(), e(1))  # raises on any reconstruction failure
    res8 = g2alg.metric_from_3form(8 * g2alg.phi0())
    assert res8.exact
    assert all(res8.g.matrix[i][i] == 4 for i in range(7))
    assert all(res8.g.matrix[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"pointwise suite took {elapsed:.2f}s"
    _report(7, "model-form identities, SU(3) split and scaling law, all exact", t0)


def test_criterion_8_geography_against_oracle():
    t0 = time.monotonic()
    cat = blocks.full_catalog()
    recs = sorted(cat, key=lambda r: r.id)

    def oracle_count(predicate):
        n = 0
        for i in range(len(recs)):
            for j in range(i, len(recs)):
                if predicate(recs[i], recs[j]):
                    n += 1
        return n

    for pair_filter, predicate in (
        (None, lambda a, b: True),
        ("rank11", lambda a, b: a.rank + b.rank <= 11),
    ):
        rep = match.geography_general(cat, pair_filter)
        assert rep.summary["pairs"] == oracle_count(predicate), pair_filter
    # the refined filter agrees with an independent recomputation through SNF
    rep = match.geography_general(cat, "rankell22")
    expected = oracle_count(
        lambda a, b: a.rank + b.rank + lat.ell(lat.direct_sum(a.lattice(), b.lattice())) < 22
    )
    assert rep.summary["pairs"] == expected
    _report(8, "geography pair counts equal the brute-force pairing oracle", t0)
