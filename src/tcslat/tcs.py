"""Topological invariants of a twisted connected sum from its lattice gluing
data, plus the classification of the 2-connected torsion-free outputs.

All cohomology bookkeeping happens inside the rank-22 ambient lattice: the
free ranks come from sums of the two polarising images and their complements
(each intersection rank is rk A + rk B - rk(A + B), read off a sum's HNF
rather than built as a module), the torsion from Smith normal forms of the
stacked bases, and div p1 from the blocks' second Chern data.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd

from . import blocks as blk
from . import exactalg as xa
from . import lattice as lat
from .embed import k3_lattice

DIV_P1_ALLOWED = (4, 8, 12, 16, 24, 48)
INSUFFICIENT_C2 = "InsufficientC2Data"


class ConfigError(ValueError):
    pass


class GluingConfig:
    def __init__(self, block_plus, block_minus, emb_plus, emb_minus,
                 resolution_plus=None, resolution_minus=None,
                 div_c2_mod_image=None, ample_cone_asserted=False, name=""):
        self.name = name
        self.block_plus = block_plus
        self.block_minus = block_minus
        for rows, rec, side in ((emb_plus, block_plus, "plus"), (emb_minus, block_minus, "minus")):
            if not blk.is_int_matrix(rows, rec.rank, 22):
                raise ConfigError(f"{name}: emb_{side} must be {rec.rank} integer rows of length 22")
        L = k3_lattice()
        self.emb_plus = lat.Sublattice(L, emb_plus)
        self.emb_minus = lat.Sublattice(L, emb_minus)
        self.resolution_plus = resolution_plus
        self.resolution_minus = resolution_minus
        self.div_c2_mod_image = div_c2_mod_image
        self.ample_cone_asserted = ample_cone_asserted
        for emb, rec, side in ((self.emb_plus, block_plus, "+"), (self.emb_minus, block_minus, "-")):
            if emb.induced_gram() != rec.n_gram:
                raise ConfigError(f"{name}: embedding on side {side} is not isometric to {rec.id}")
            if not lat.is_primitive(emb):
                raise ConfigError(f"{name}: embedding on side {side} is not primitive")

    @cached_property
    def complements(self):
        """(T+, T-): the orthogonal complements of the two embedded N."""
        return lat.orthogonal_complement(self.emb_plus), lat.orthogonal_complement(self.emb_minus)

    def is_perpendicular(self):
        if self.emb_plus.rank == 0 or self.emb_minus.rank == 0:
            return True
        cross = xa.pairings(self.emb_plus.basis, k3_lattice().gram, self.emb_minus.basis)
        return not any(any(row) for row in cross)


class TcsInvariants:
    def __init__(self, **kw):
        self.b2 = kw["b2"]
        self.b3 = kw["b3"]
        self.b4 = kw["b4"]
        self.tor_h3 = kw["tor_h3"]
        self.tor_h4_plus = kw["tor_h4_plus"]
        self.tor_h4_minus = kw["tor_h4_minus"]
        self.div_p1 = kw["div_p1"]
        self.div_p1_status = kw["div_p1_status"]
        self.div_p1_mod_torsion = kw["div_p1_mod_torsion"]
        self.a0 = kw["a0"]
        self.two_connected = kw["two_connected"]
        self.h4_torsion_free = kw["h4_torsion_free"]
        self.betti_sum_orthogonal = kw["betti_sum_orthogonal"]
        self.classification = kw.get("classification")

    @property
    def tor_h4(self):
        return self.tor_h4_plus + self.tor_h4_minus


class NotApplicable:
    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"NotApplicable({self.reason!r})"


def _selected_div_c2(rec, choice, side, name):
    vals = sorted(rec.div_c2)
    if choice is not None:
        if choice not in rec.div_c2:
            raise ConfigError(f"{name}: resolution choice {choice} not among div_c2 of {rec.id}")
        return choice
    if len(vals) == 1:
        return vals[0]
    if not vals:
        return None
    raise ConfigError(
        f"{name}: {rec.id} has resolution-dependent div_c2 {vals}; a choice is required on side {side}"
    )


def _div_p1(cfg, tor_h4_nontrivial):
    if cfg.is_perpendicular():
        cp = _selected_div_c2(cfg.block_plus, cfg.resolution_plus, "+", cfg.name)
        cm = _selected_div_c2(cfg.block_minus, cfg.resolution_minus, "-", cfg.name)
        if cp is None or cm is None:
            return None, INSUFFICIENT_C2, False
        return 2 * gcd(cp, cm), "perpendicular", tor_h4_nontrivial
    pair = cfg.div_c2_mod_image
    if pair is None:
        dp = cfg.block_plus.div_c2_mod_Aperp
        dm = cfg.block_minus.div_c2_mod_Aperp
        if dp is not None and dm is not None:
            pair = (dp, dm)
    if pair is None:
        return None, INSUFFICIENT_C2, False
    return 2 * gcd(int(pair[0]), int(pair[1])), "mod-image", tor_h4_nontrivial


def _tor_with_routes(direct_sum, routes, context):
    direct = lat.quotient_torsion(direct_sum)
    for label, value in routes:
        if value != direct:
            raise AssertionError(f"{context}: torsion route disagreement: direct {direct} vs {label} {value}")
    return direct


def compute_invariants(cfg):
    """Full invariant record of the glued 7-manifold."""
    Np, Nm = cfg.emb_plus, cfg.emb_minus
    Tp, Tm = cfg.complements
    rkKp, rkKm = cfg.block_plus.rk_K, cfg.block_minus.rk_K
    b3Zp, b3Zm = cfg.block_plus.b3_Z, cfg.block_minus.b3_Z

    sum_nn = lat.sum_sublattices(Np, Nm)
    sum_mp = lat.sum_sublattices(Nm, Tp)
    sum_pm = lat.sum_sublattices(Np, Tm)
    # over Q, rk(A n B) = rk A + rk B - rk(A + B); T+ + T- is built from the T bases, not read
    # off rk(N+ + N-), so that the b4 = b3 cross-check can still fail
    rk_nn = Np.rank + Nm.rank - sum_nn.rank
    rk_mp = Nm.rank + Tp.rank - sum_mp.rank
    rk_pm = Np.rank + Tm.rank - sum_pm.rank
    rk_tt = Tp.rank + Tm.rank - lat.sum_sublattices(Tp, Tm).rank
    b2 = rk_nn + rkKp + rkKm
    blocks_part = b3Zp + b3Zm + rkKp + rkKm
    b3 = 1 + (22 - sum_nn.rank) + rk_mp + rk_pm + blocks_part
    b4 = 1 + rk_tt + (22 - sum_mp.rank) + (22 - sum_pm.rank) + blocks_part
    tor_h3 = _tor_with_routes(
        sum_nn, [("coker(N+ -> T-*)", lat.coker_map(Np, Tm)), ("coker(N- -> T+*)", lat.coker_map(Nm, Tp))],
        f"{cfg.name}: Tor H3",
    )
    # a map and its transpose have the same invariant factors, so one Smith form each of the N-N
    # and T-T pairings serves both Tor H4 summands
    coker_nn = lat.coker_map(Nm, Np)
    coker_tt = lat.coker_map(Tp, Tm)
    h4_routes = [("coker(N- -> N+*)", coker_nn), ("coker(T+ -> T-*)", coker_tt)]
    tor_h4_plus = _tor_with_routes(sum_mp, h4_routes, f"{cfg.name}: Tor H4 (+)")
    tor_h4_minus = _tor_with_routes(sum_pm, h4_routes, f"{cfg.name}: Tor H4 (-)")
    h4_torsion_free = not tor_h4_plus and not tor_h4_minus
    div_p1, status, mod_torsion = _div_p1(cfg, not h4_torsion_free)
    a0 = cfg.block_plus.e_rigid + cfg.block_minus.e_rigid
    # N+ + N- is primitive iff L / (N+ + N-) has no torsion, which is Tor H3
    two_connected = rkKp == 0 and rkKm == 0 and rk_nn == 0 and not tor_h3
    betti_sum_orthogonal = (b2 + b3) == (b3Zp + b3Zm + 2 * rkKp + 2 * rkKm + 23)
    inv = TcsInvariants(
        b2=b2,
        b3=b3,
        b4=b4,
        tor_h3=tor_h3,
        tor_h4_plus=tor_h4_plus,
        tor_h4_minus=tor_h4_minus,
        div_p1=div_p1,
        div_p1_status=status,
        div_p1_mod_torsion=mod_torsion,
        a0=a0,
        two_connected=two_connected,
        h4_torsion_free=h4_torsion_free,
        betti_sum_orthogonal=betti_sum_orthogonal,
    )
    inv.classification = classify_2connected(inv)
    return inv


class Classification:
    def __init__(self, almost_diffeo, diffeo_class_count, homotopy, realization):
        self.almost_diffeo = almost_diffeo
        self.diffeo_class_count = diffeo_class_count
        self.homotopy = homotopy
        self.realization = realization


def classify_2connected(inv):
    """Almost-diffeomorphism data for the 2-connected torsion-free case."""
    if not inv.two_connected:
        return NotApplicable("not 2-connected (nonzero b2 contribution or non-primitive sum)")
    if not inv.h4_torsion_free:
        return NotApplicable("H4 has torsion")
    if inv.div_p1 is None:
        return NotApplicable("div p1 undetermined (insufficient c2 data)")
    m = inv.div_p1 // 4
    k = inv.b4
    count = 1 if inv.div_p1 in (4, 8, 12, 24) else 2
    realization = f"M_{{{m},0}} # {k - 1}(S^3 x S^4)"
    return Classification(
        almost_diffeo=(inv.b4, inv.div_p1),
        diffeo_class_count=count,
        homotopy=(inv.b4, inv.div_p1 % 48),
        realization=realization,
    )


def sanity_suite(inv):
    """Structural checks; ok=False entries name the violated constraint."""
    checks = []
    if inv.div_p1 is not None:
        checks.append((
            "first Pontrjagin divisibility in {4,8,12,16,24,48}",
            inv.div_p1 in DIV_P1_ALLOWED,
            str(inv.div_p1),
        ))
        checks.append((
            "first Pontrjagin divisibility is a multiple of 4",
            inv.div_p1 % 4 == 0,
            str(inv.div_p1),
        ))
    checks.append(("Poincare duality cross-check b4 = b3", inv.b4 == inv.b3, f"{inv.b4} vs {inv.b3}"))
    return checks


class TorsionLinking:
    def __init__(self, plus_orders, minus_orders, cross, full):
        self.plus_orders = plus_orders
        self.minus_orders = minus_orders
        self.cross = cross  # rows: plus generators, cols: minus generators (Fractions mod 1)
        self.full = full  # block matrix on tor_h4_plus (+) tor_h4_minus


def _linking_value(L, Nn, Tt, alpha, k, beta):
    """b = <t, beta>/k mod 1 where k*alpha = n + t, n in Nn, t in Tt."""
    x = xa.solve_integer(Nn.basis + Tt.basis, [k * v for v in alpha])
    if x is None:
        raise AssertionError("torsion order mismatch in linking computation")
    t = xa.matmul([x[Nn.rank :]], Tt.basis)[0]
    return Fraction(L.pair(t, beta), k) % 1


def torsion_linking(cfg):
    """Q/Z-valued linking pairing between the two H4 torsion summands.

    Returns an empty table when H4 is torsion-free."""
    return torsion_linking_pair(k3_lattice(), cfg.emb_plus, cfg.emb_minus)


def torsion_linking_pair(L, Np, Nm):
    Tp = lat.orthogonal_complement(Np)
    Tm = lat.orthogonal_complement(Nm)
    gens_plus = xa.snf(Nm.basis + Tp.basis, left=False).torsion_generators()
    gens_minus = xa.snf(Np.basis + Tm.basis, left=False).torsion_generators()
    if not gens_plus and not gens_minus:
        return TorsionLinking([], [], [], [])
    cross = []
    for alpha, k in gens_plus:
        row = []
        for beta, _ in gens_minus:
            row.append(_linking_value(L, Nm, Tp, alpha, k, beta))
        cross.append(row)
    # The diagonal blocks vanish: each summand is isotropic (a structural fact
    # of the construction, recorded rather than recomputed; the cross formula
    # is only well-defined between the two different summands).
    p = len(gens_plus)
    m = len(gens_minus)
    full = [[Fraction(0)] * (p + m) for _ in range(p + m)]
    for i in range(p):
        for j in range(m):
            full[i][p + j] = cross[i][j]
            full[p + j][i] = cross[i][j]
    return TorsionLinking([k for _, k in gens_plus], [k for _, k in gens_minus], cross, full)


def _render_torsion(factors):
    return "x".join(str(d) for d in factors) if factors else "-"


def report_fields(inv, name=""):
    """The report's fields as strings; their order is the order of every report format."""
    cls = inv.classification
    is_cls = isinstance(cls, Classification)
    return {
        "config": str(name),  # a config named by a number, such as `config = 5`, has an int name
        "pi1_trivial": "true",
        "b2": str(inv.b2),
        "b3": str(inv.b3),
        "b4": str(inv.b4),
        "tor_h3": _render_torsion(inv.tor_h3),
        "tor_h4_plus": _render_torsion(inv.tor_h4_plus),
        "tor_h4_minus": _render_torsion(inv.tor_h4_minus),
        "div_p1": str(inv.div_p1) if inv.div_p1 is not None else "-",
        "div_p1_status": inv.div_p1_status,
        "div_p1_mod_torsion": "true" if inv.div_p1_mod_torsion else "false",
        "a0": str(inv.a0),
        "two_connected": "true" if inv.two_connected else "false",
        "h4_torsion_free": "true" if inv.h4_torsion_free else "false",
        "betti_sum_orthogonal": "true" if inv.betti_sum_orthogonal else "false",
        "class_almost_diffeo": f"({cls.almost_diffeo[0]},{cls.almost_diffeo[1]})" if is_cls else "-",
        "class_diffeo_count": str(cls.diffeo_class_count) if is_cls else "-",
        "class_homotopy": f"({cls.homotopy[0]},{cls.homotopy[1]})" if is_cls else cls.reason,
        "class_realization": cls.realization if is_cls else "-",
    }


def report_keyvalue(inv, name=""):
    return "\n".join(f"{k} = {v}" for k, v in report_fields(inv, name).items())


def report_tsv(inv, name=""):
    """The header line and the row of the TSV report, in the order of `report_keyvalue`."""
    fields = report_fields(inv, name)
    return "\t".join(fields) + "\n" + "\t".join(fields.values())


def load_config(path, catalog):
    """Read a gluing configuration file (catalog text schema + inline matrices)."""
    fields = blk.read_fields(path)
    required = ("schema", "block_plus", "block_minus", "emb_plus", "emb_minus")
    blk.check_fields(fields, blk.CONFIG_FIELDS, required, path, ConfigError)
    return GluingConfig(
        block_plus=catalog[fields["block_plus"]],
        block_minus=catalog[fields["block_minus"]],
        emb_plus=fields["emb_plus"],
        emb_minus=fields["emb_minus"],
        resolution_plus=fields.get("resolution_plus"),
        resolution_minus=fields.get("resolution_minus"),
        div_c2_mod_image=tuple(fields.get("div_c2_mod_image", ())) or None,
        ample_cone_asserted=fields.get("ample_cone_asserted", False),
        name=fields.get("config", str(path)),
    )
