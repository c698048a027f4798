import glob
import os
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from tcslat import blocks, embed, tcs
from tcslat import exactalg as xa
from tcslat import lattice as lat
from tcslat.embed import k3_lattice
from test_cli import run as run_cli

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CAT = blocks.full_catalog()


def load(name):
    return tcs.load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"), CAT)


def all_config_names():
    return sorted(
        os.path.basename(p)[:-4] for p in glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))
    )


def test_no1_variants():
    inv = tcs.compute_invariants(load("no1"))
    assert (inv.b2, inv.b3, inv.tor_h3, inv.div_p1, inv.a0) == (0, 155, [2], 8, 0)
    assert not inv.two_connected  # H3 torsion kills 2-connectedness
    inv2 = tcs.compute_invariants(load("no1-primitive"))
    assert (inv2.b2, inv2.b3, inv2.tor_h3, inv2.div_p1) == (0, 155, [], 8)
    assert inv2.two_connected and inv2.h4_torsion_free


def test_no7():
    inv = tcs.compute_invariants(load("no7"))
    assert inv.b2 == 24
    assert inv.b3 == 47
    assert inv.tor_h3 == [8]
    assert inv.tor_h4 == []
    assert inv.a0 == 66
    assert inv.div_p1 == 4


def test_no11_nonorthogonal():
    inv = tcs.compute_invariants(load("no11"))
    assert inv.b2 == 0 and inv.b3 == 93
    assert inv.div_p1 == 48
    assert not inv.betti_sum_orthogonal
    assert inv.two_connected and inv.h4_torsion_free
    cls = inv.classification
    assert isinstance(cls, tcs.Classification)
    assert cls.almost_diffeo == (93, 48)
    assert cls.diffeo_class_count == 2


def test_perpendicular_k0_specialization():
    # b3 = b3(Z+) + b3(Z-) + 23 for perpendicular primitive gluing with K = 0
    for name in ("no1-primitive", "no2a", "no4", "no5a", "no8"):
        cfg = load(name)
        if cfg.block_plus.rk_K or cfg.block_minus.rk_K:
            continue
        inv = tcs.compute_invariants(cfg)
        assert inv.b3 == cfg.block_plus.b3_Z + cfg.block_minus.b3_Z + 23


def test_b4_equals_b3_everywhere():
    for name in all_config_names():
        inv = tcs.compute_invariants(load(name))
        assert inv.b4 == inv.b3, name


@pytest.mark.parametrize("name", all_config_names())
def test_ranks_from_sums_match_intersection_modules(name):
    """Oracle: the intersection modules of lat.intersect and Bareiss ranks of
    the stacked bases give the Betti numbers that compute_invariants reads off
    the HNF of the sums."""
    cfg = load(name)
    Np, Nm = cfg.emb_plus, cfg.emb_minus
    Tp, Tm = cfg.complements
    inter = {}
    for label, A, B in (("nn", Np, Nm), ("mp", Nm, Tp), ("pm", Np, Tm), ("tt", Tp, Tm)):
        inter[label] = lat.intersect(A, B).rank
        assert inter[label] == A.rank + B.rank - lat.sum_sublattices(A, B).rank, label
    rk_sum = {label: xa.rank(A.basis + B.basis) for label, A, B in (("nn", Np, Nm), ("mp", Nm, Tp), ("pm", Np, Tm))}
    bp, bm = cfg.block_plus, cfg.block_minus
    blocks_part = bp.b3_Z + bm.b3_Z + bp.rk_K + bm.rk_K
    inv = tcs.compute_invariants(cfg)
    assert inv.b2 == inter["nn"] + bp.rk_K + bm.rk_K
    assert inv.b3 == 1 + (22 - rk_sum["nn"]) + inter["mp"] + inter["pm"] + blocks_part
    assert inv.b4 == 1 + inter["tt"] + (22 - rk_sum["mp"]) + (22 - rk_sum["pm"]) + blocks_part
    if name.startswith("no9"):
        assert inter["nn"] == 1  # the nonzero N+ n N- case is covered


def test_poincare_check_can_fail(monkeypatch):
    """A T+ + T- one rank short must show up as b4 = b3 + 1: rk(T+ n T-) is read
    off the T bases, not derived from rk(N+ + N-)."""
    complements = []
    orthogonal_complement, sum_sublattices = lat.orthogonal_complement, lat.sum_sublattices

    def recorded(S):
        complements.append(orthogonal_complement(S))
        return complements[-1]

    def short_tt(S1, S2):
        total = sum_sublattices(S1, S2)
        if any(S1 is T for T in complements) and any(S2 is T for T in complements):
            return lat.Sublattice(total.ambient, total.basis[:-1])
        return total

    monkeypatch.setattr(tcs.lat, "orthogonal_complement", recorded)
    monkeypatch.setattr(tcs.lat, "sum_sublattices", short_tt)
    code, _, err = run_cli(["invariants", "--config", os.path.join(CONFIG_DIR, "no1.cfg")])
    assert code == 1
    assert err == "sanity failure: Poincare duality cross-check b4 = b3: 156 vs 155\n"


def test_betti_sum_orthogonal_only_fails_on_the_handcrafted_config():
    for name in all_config_names():
        inv = tcs.compute_invariants(load(name))
        assert inv.betti_sum_orthogonal == (name != "no11"), name


def test_overlattice_torsion_is_glue_bookkeeping():
    # no1: index-2 overlattice gives exactly Z/2; no8: index-16 gives (Z/4)^2
    assert tcs.compute_invariants(load("no1")).tor_h3 == [2]
    assert tcs.compute_invariants(load("no8")).tor_h3 == [4, 4]


def test_rejects_non_isometric_embedding():
    rec = CAT["7.1_4^1"]
    rows = [[1, 3] + [0] * 20]  # norm 6, not 4
    with pytest.raises(tcs.ConfigError, match="isometric"):
        tcs.GluingConfig(rec, rec, rows, embed.scatter([[1, 2]], ("U2",)), name="bad")


def test_rejects_non_primitive_embedding():
    rec = CAT["7.1_16^1"]
    rows = [[2, 4] + [0] * 20]  # norm 16 but imprimitive
    with pytest.raises(tcs.ConfigError, match="primitive"):
        tcs.GluingConfig(rec, rec, rows, embed.scatter([[1, 8]], ("U2",)), name="bad")


def test_resolution_choice_required():
    rec = CAT["Ex7.3"]
    cfg = load("no2a")
    stripped = tcs.GluingConfig(
        rec, rec,
        cfg.emb_plus.basis, cfg.emb_minus.basis,
        name="no-choice",
    )
    with pytest.raises(tcs.ConfigError, match="resolution"):
        tcs.compute_invariants(stripped)


def test_div_p1_insufficient_data():
    rec_a = CAT["MM2-6"]
    # perpendicular config from two rank-2 Fano blocks: no div_c2 at all
    ep = embed.place(rec_a.lattice(), ("U1", "U2"), 3)
    em = embed.place(rec_a.lattice(), ("U3", "E8a"), 3)
    cfg = tcs.GluingConfig(rec_a, rec_a, ep, em, name="mm-perp")
    inv = tcs.compute_invariants(cfg)
    assert inv.div_p1 is None
    assert inv.div_p1_status == tcs.INSUFFICIENT_C2
    assert isinstance(inv.classification, tcs.NotApplicable)


def test_classify_examples():
    mk = lambda b4, p1: tcs.TcsInvariants(
        b2=0, b3=b4, b4=b4, tor_h3=[], tor_h4_plus=[], tor_h4_minus=[],
        div_p1=p1, div_p1_status="perpendicular", div_p1_mod_torsion=False,
        a0=0, two_connected=True, h4_torsion_free=True, betti_sum_orthogonal=True,
    )
    c = tcs.classify_2connected(mk(71, 4))
    assert c.realization == "M_{1,0} # 70(S^3 x S^4)"
    assert c.diffeo_class_count == 1
    c = tcs.classify_2connected(mk(99, 16))
    assert c.diffeo_class_count == 2
    c = tcs.classify_2connected(mk(155, 8))
    assert c.almost_diffeo == (155, 8)
    assert c.homotopy == (155, 8)
    assert c.diffeo_class_count == 1


def test_classify_not_applicable_reasons():
    inv = tcs.compute_invariants(load("no1"))
    assert isinstance(inv.classification, tcs.NotApplicable)
    assert "2-connected" in inv.classification.reason
    inv10 = tcs.compute_invariants(load("no10"))
    assert isinstance(inv10.classification, tcs.NotApplicable)
    # synthetic: 2-connected but with H4 torsion
    fake = tcs.TcsInvariants(
        b2=0, b3=10, b4=10, tor_h3=[], tor_h4_plus=[2], tor_h4_minus=[2],
        div_p1=8, div_p1_status="perpendicular", div_p1_mod_torsion=True,
        a0=0, two_connected=True, h4_torsion_free=False, betti_sum_orthogonal=True,
    )
    na = tcs.classify_2connected(fake)
    assert isinstance(na, tcs.NotApplicable) and "torsion" in na.reason


def test_sanity_suite_passes_on_all_configs():
    for name in all_config_names():
        inv = tcs.compute_invariants(load(name))
        for check_name, ok, detail in tcs.sanity_suite(inv):
            assert ok, f"{name}: {check_name}: {detail}"


def test_torsion_linking_perpendicular_empty():
    table = tcs.torsion_linking(load("no5a"))
    assert table.cross == [] and table.plus_orders == []


def test_torsion_linking_no10():
    table = tcs.torsion_linking(load("no10"))
    assert table.plus_orders == [2]
    assert table.minus_orders == [2]
    assert len(table.cross) == 1
    v = table.cross[0][0]
    assert v == Fraction(1, 2)  # nondegenerate pairing of the two Z/2 summands
    # full matrix is block-anti-diagonal with zero diagonal blocks
    assert table.full[0][0] == 0 and table.full[1][1] == 0
    assert table.full[0][1] == v and table.full[1][0] == v


def test_torsion_linking_synthetic_third():
    # rank-1 images pairing to 3 give Z/3 on both sides and linking 1/3
    L = k3_lattice()
    u = [1, 1] + [0] * 20
    w = [1, 2] + [0] * 20
    Np = lat.Sublattice(L, [u])
    Nm = lat.Sublattice(L, [w])
    Tp = lat.orthogonal_complement(Np)
    Tm = lat.orthogonal_complement(Nm)
    assert lat.quotient_torsion(lat.sum_sublattices(Nm, Tp)) == [3]
    assert lat.quotient_torsion(lat.sum_sublattices(Np, Tm)) == [3]
    table = tcs.torsion_linking_pair(L, Np, Nm)
    assert table.plus_orders == [3] and table.minus_orders == [3]
    assert table.cross[0][0] in (Fraction(1, 3), Fraction(2, 3))
    # explicit generator e1 on both sides: the value is exactly 1/3
    alpha = [1] + [0] * 21
    val = tcs._linking_value(L, Nm, Tp, alpha, 3, alpha)
    assert val == Fraction(1, 3)


def test_torsion_linking_well_defined_under_solution_change():
    # adding kernel elements to the integer solve must not change the value,
    # provided beta represents a class of the OTHER torsion summand
    L = k3_lattice()
    cfg = load("no10")
    Np, Nm = cfg.emb_plus, cfg.emb_minus
    Tp = lat.orthogonal_complement(Np)
    Tm = lat.orthogonal_complement(Nm)
    stacked = Nm.basis + Tp.basis
    alpha, k = xa.snf(stacked).torsion_generators()[0]
    beta = xa.snf(Np.basis + Tm.basis).torsion_generators()[0][0]
    base = tcs._linking_value(L, Nm, Tp, alpha, k, beta)
    assert base == Fraction(1, 2)
    ker = xa.kernel_basis(stacked)
    x0 = np.array(xa.solve_integer(stacked, [k * v for v in alpha]), dtype=object)
    rng = random.Random(1)
    for _ in range(5):
        x = x0.copy()
        for row in ker:
            x = x + rng.randint(-2, 2) * np.array(row, dtype=object)
        t = x[Nm.rank:] @ np.array(Tp.basis, dtype=object)
        val = Fraction(int(t @ np.array(L.gram, dtype=object) @ np.array(beta, dtype=object)), k) % 1
        assert val == base


def test_report_rendering():
    inv = tcs.compute_invariants(load("no8"))
    kv = tcs.report_keyvalue(inv, "no8")
    assert "tor_h3 = 4x4" in kv
    assert "b3 = 95" in kv
    header, row = tcs.report_tsv(inv, "no8").split("\n")
    assert row.split("\t")[0] == "no8"
    # one header, one order: the TSV columns are the key = value lines
    assert header.split("\t") == [line.split(" = ")[0] for line in kv.splitlines()]
    assert len(row.split("\t")) == len(header.split("\t"))


def test_n_prime_exposure():
    cfg = load("no10")
    inv = tcs.compute_invariants(cfg)
    # the image of each polarising lattice in the other's dual has cotorsion Z/2
    assert lat.coker_map(cfg.emb_minus, cfg.emb_plus) == [2]
    assert lat.coker_map(cfg.emb_plus, cfg.emb_minus) == [2]
    assert inv.div_p1_mod_torsion  # div p1 reported modulo the H4 torsion
    G = k3_lattice().gram
    p_img = xa.pairings(cfg.emb_plus.basis, G, cfg.emb_minus.basis)
    m_img = xa.pairings(cfg.emb_minus.basis, G, cfg.emb_plus.basis)
    # the cotorsion of the image matrix is the Z/2 above
    assert xa.snf(xa.mat(p_img)).invariant_factors() == [2]
    assert xa.snf(xa.mat(m_img)).invariant_factors() == [2]
    perp = load("no5a")
    assert not tcs.compute_invariants(perp).div_p1_mod_torsion
    p_img = xa.pairings(perp.emb_plus.basis, G, perp.emb_minus.basis)
    assert all(x == 0 for row in p_img for x in row)  # perpendicular: zero image


@pytest.mark.parametrize("route", ["direct", "coker(T+ -> T-*)", "coker(N- -> N+*)"])
def test_torsion_cross_checks_can_fail(route, monkeypatch):
    # a route that returns wrong factors must trip the three-route check,
    # so no shared or cached value can make the check vacuous
    cfg = load("no10")
    Tp, Tm = cfg.complements
    wrong = [7]
    if route == "direct":
        monkeypatch.setattr(lat, "quotient_torsion", lambda S: wrong)
        expected = r"torsion route disagreement: direct \[7\]"
    else:
        coker_map = lat.coker_map
        S_T = (Tp, Tm) if route.startswith("coker(T") else (cfg.emb_minus, cfg.emb_plus)

        def patched(S, T):
            return wrong if (S, T) == S_T else coker_map(S, T)

        monkeypatch.setattr(lat, "coker_map", patched)
        expected = rf"Tor H4 \(\+\): torsion route disagreement: direct \[2\] vs {re.escape(route)} \[7\]"
    with pytest.raises(AssertionError, match=expected):
        tcs.compute_invariants(cfg)


def test_compute_invariants_kernel_calls(monkeypatch):
    """No rank check, the K3 det at most once per process, and no SNF input
    Smith-reduced twice within one config."""
    K3 = k3_lattice().gram
    calls = {"rank": [], "det": [], "snf": []}
    for name, inputs in calls.items():
        def counted(A, *args, _kernel=getattr(xa, name), _inputs=inputs, **kwargs):
            _inputs.append(xa.mat(A))
            return _kernel(A, *args, **kwargs)

        monkeypatch.setattr(xa, name, counted)
    for name in ("no10", "no5a"):  # Tor H4 = Z/2 + Z/2, and a torsion-free 2-connected one
        cfg = load(name)
        for inputs in calls.values():
            inputs.clear()
        inv = tcs.compute_invariants(cfg)
        assert inv.h4_torsion_free == (name == "no5a")
        assert calls["rank"] == []
        assert calls["det"] in ([], [K3])
        assert len(calls["snf"]) == len({repr(A) for A in calls["snf"]})
    assert calls["det"] == []  # the second config reuses the det kept on the K3 lattice
