"""Matching certificates, pair enumeration over the catalog, and geography
reports: which pairs of building blocks can be glued, with which lattice data,
and what census of invariants results."""

from functools import cache
from math import gcd

from . import embed
from . import exactalg as xa
from . import glue
from . import lattice as lat
from . import tcs
from .embed import k3_lattice

PUSHOUT_FAILURE = "PushoutFailure"
EMBEDDING_IMPOSSIBLE = "EmbeddingImpossible"
EMBEDDING_UNKNOWN = "EmbeddingUnknown"
SIGNATURE_MISMATCH = "SignatureMismatch"
AMPLE_CONE_UNASSERTED = "AmpleConeUnasserted"


class MatchFailure:
    def __init__(self, code, detail=""):
        self.code = code
        self.detail = detail

    def __repr__(self):
        return f"MatchFailure({self.code}, {self.detail!r})"


class PerpendicularPrimitive:
    mode_name = "perpendicular-primitive"


class PerpendicularOverlattice:
    mode_name = "perpendicular-overlattice"

    def __init__(self, glue_index):
        # smallest nontrivial overlattice index to use
        self.glue_index = glue_index


class Orthogonal:
    mode_name = "orthogonal"

    def __init__(self, r_gram, r_in_plus, r_in_minus):
        self.r_gram = r_gram
        self.r_in_plus = r_in_plus
        self.r_in_minus = r_in_minus


class MatchingTriple:
    def __init__(self, k_plus, k_minus, k_0, norms):
        self.k_plus = k_plus
        self.k_minus = k_minus
        self.k_0 = k_0
        self.norms = norms


class MatchCertificate:
    def __init__(self, block_plus, block_minus, mode, w, embedding, ample_auto=False,
                 ample_cone_asserted=False):
        self.block_plus = block_plus
        self.block_minus = block_minus
        self.mode = mode
        self.w = w
        self.embedding = embedding
        # filled by _constructed_certificate, or positivity alone for a by-criterion verdict
        self.emb_plus = self.emb_minus = None
        self.w_plus = self.w_minus = self.t = None
        self.positivity = None
        self.ample_auto = ample_auto
        self.ample_cone_asserted = ample_cone_asserted
        self.triple = None

    def is_explicit(self):
        return self.emb_plus is not None

    def to_config(self, name=""):
        """The gluing configuration of an explicit certificate, with the blocks'
        own div c2 data (no resolution choice, no mod-image pair)."""
        if not self.is_explicit():
            raise ValueError("certificate has no explicit embedding")
        return tcs.GluingConfig(
            self.block_plus,
            self.block_minus,
            self.emb_plus.basis,
            self.emb_minus.basis,
            ample_cone_asserted=self.ample_cone_asserted or self.ample_auto,
            name=name or f"{self.block_plus.id}x{self.block_minus.id}",
        )

    def dump(self):
        lines = [
            f"blocks = {self.block_plus.id} x {self.block_minus.id}",
            f"mode = {self.mode.mode_name}",
            f"w_rank = {self.w.rank}",
            f"embedding = {self.embedding!r}",
            # always True: a W of the wrong signature returns SIGNATURE_MISMATCH before any certificate
            "sig_check = True",
            f"positivity = {self.positivity}",
            f"ample_hypothesis = {'auto' if self.ample_auto else ('asserted' if self.ample_cone_asserted else 'unasserted')}",
        ]
        if self.is_explicit():
            lines.append(f"emb_plus = {xa.mat(self.emb_plus.basis)}")
            lines.append(f"emb_minus = {xa.mat(self.emb_minus.basis)}")
        if self.triple is not None:
            lines.append(f"triple_norms = {self.triple.norms}")
        return "\n".join(lines)


def _embed_factor_pair_disjoint(gp, gm):
    """Perpendicular primitive embeddings of two small lattices in disjoint summands."""
    out = []
    for gram, summands in ((gp, ("U1", "U2")), (gm, ("U3", "E8a"))):
        bound = max(3, max(abs(x) for row in gram for x in row) // 2 + 1)
        rows = embed.place(lat.Lattice(gram), summands, bound)
        if rows is None:
            return None
        out.append(rows)
    return out


@cache
def _burkhardt():
    """The placement of the rank-16 block Ex7.7 (the Burkhardt quartic): (T, T rows, N basis) for
    T = A2(-1) + U(3) + U(3) in the K3 lattice, on the Gram its rows induce, and N its complement.
    A2(-1) is two roots of E8a; U(3) + U(3) is (1,0 | 0,0), (-1,3 | 3,1) in U1 + U2 and (1,0),
    (1,3) in U3 plus a norm -6 vector of E8b."""
    t_rows = (embed.scatter(xa.eye(8)[:2], ("E8a",))
              + embed.scatter([[1, 0, 0, 0], [-1, 3, 3, 1]], ("U1", "U2"))
              + embed.scatter([[1, 0] + [0] * 8, [1, 3, 1, 0, 1, 0, 1, 0, 0, 0]], ("U3", "E8b")))
    T = lat.Sublattice(k3_lattice(), t_rows)
    return T.lattice(), t_rows, lat.orthogonal_complement(T).basis


def _rank1_partner_embedding(big, small):
    """Explicit embeddings for the rank-16 block against a rank-1 partner, or a
    machine-readable failure: modular obstructions first, then bounded search."""
    T, t_rows, n_basis = _burkhardt()
    m = small.n_gram[0][0]
    for k in (2, 3, 4, 5):
        try:
            if embed.mod_obstruction(T, m, k):
                return MatchFailure(EMBEDDING_IMPOSSIBLE, f"mod-{k} obstruction, m = {m}")
        except lat.EnumerationBudgetExceeded:
            continue
    x = lat.find_primitive_vector(T, m, 5)
    if x is None:
        return MatchFailure(EMBEDDING_UNKNOWN, f"no primitive norm-{m} vector within bound")
    return n_basis, xa.matmul([x], t_rows)


def _perpendicular_certificate(plus, minus, explicit):
    W = lat.direct_sum(plus.lattice(), minus.lattice())
    r = W.rank
    if lat.signature(W) != (2, r - 2):
        return MatchFailure(SIGNATURE_MISMATCH, f"W has signature {lat.signature(W)}")
    rows = explicit
    if rows is None:
        # asked only here: it rules out a primitive W (Nikulin 1979, Thm 1.12.2), and the
        # explicit rows may embed W imprimitively
        if not embed.necessary_condition(W):
            return MatchFailure(EMBEDDING_IMPOSSIBLE, "necessary rank/discriminant condition fails")
        rows = _embed_factor_pair_disjoint(plus.n_gram, minus.n_gram)
    if rows is None:
        criterion = embed.nikulin_sufficient(W)
        if criterion is None:
            return MatchFailure(EMBEDDING_UNKNOWN, "criterion silent and no construction found")
        verdict = embed.EmbeddingVerdict(embed.EXISTS_BY_CRITERION, criterion=criterion)
        cert = MatchCertificate(plus, minus, PerpendicularPrimitive(), W, verdict, ample_auto=True)
        # the signatures the matching argument expects: without rows there is nothing to compute them on
        cert.positivity = {
            "w_plus": (1, plus.rank - 1),
            "w_minus": (1, minus.rank - 1),
            "t": (1, 21 - r),
        }
        return cert
    ep, em = rows
    prim = embed.verify_embedding(W, k3_lattice(), [*ep, *em])
    if prim is None:
        return MatchFailure(EMBEDDING_IMPOSSIBLE, "explicit rows are not isometric to W")
    return _constructed_certificate(plus, minus, PerpendicularPrimitive(), W, [*ep, *em], prim, ep, em)


def _constructed_certificate(plus, minus, mode, W, basis, primitive, ep, em, rho=0,
                             ample_auto=True, ample_cone_asserted=False):
    """The certificate of an embedding of W that was constructed (with verdict rows `basis`) and
    sends N+ and N- to the rows ep and em, with its geometry, checked to have the ranks of the
    matching argument along R of rank rho and one positive direction each: T = (N+ + N-)^perp, and
    W+ = N+ n T- is the kernel of the N+ x N- pairing, as v in N+ lies in T- = (N-)^perp exactly
    when it pairs to zero with N-; W- likewise."""
    verdict = embed.EmbeddingVerdict(embed.EXISTS_CONSTRUCTED, basis=basis, primitive=primitive)
    cert = MatchCertificate(plus, minus, mode, W, verdict, ample_auto=ample_auto,
                            ample_cone_asserted=ample_cone_asserted)
    L = k3_lattice()
    cert.emb_plus = lat.Sublattice(L, ep)
    cert.emb_minus = lat.Sublattice(L, em)
    cert.w_plus = lat.orthogonal_part(cert.emb_plus, cert.emb_minus)
    cert.w_minus = lat.orthogonal_part(cert.emb_minus, cert.emb_plus)
    w_image = lat.sum_sublattices(cert.emb_plus, cert.emb_minus)
    cert.t = lat.orthogonal_complement(w_image)
    expect_ranks = (cert.emb_plus.rank - rho, cert.emb_minus.rank - rho, 22 - w_image.rank)
    got_ranks = (cert.w_plus.rank, cert.w_minus.rank, cert.t.rank)
    if expect_ranks != got_ranks:
        raise AssertionError(f"rank mismatch: expected {expect_ranks}, got {got_ranks}")
    got = {
        "w_plus": lat.signature(cert.w_plus.lattice()),
        "w_minus": lat.signature(cert.w_minus.lattice()),
        "t": lat.signature(cert.t.lattice()),
    }
    cert.positivity = got
    # each piece must carry exactly one positive direction
    expect = {name: (1, sub.rank - 1) for name, sub in
              (("w_plus", cert.w_plus), ("w_minus", cert.w_minus), ("t", cert.t))}
    if got != expect:
        raise AssertionError(f"positivity mismatch: expected {expect}, got {got}")
    return cert


def build_certificate(plus, minus, mode, ample_cone_asserted=False):
    """Assemble the arithmetic evidence that the pair can be matched, or a
    failure with a machine-readable reason."""
    L = k3_lattice()
    if isinstance(mode, PerpendicularPrimitive):
        explicit = None
        if plus.id == "Ex7.7" and minus.rank == 1:
            explicit = _rank1_partner_embedding(plus, minus)
            if isinstance(explicit, MatchFailure):
                return explicit
        return _perpendicular_certificate(plus, minus, explicit)
    if isinstance(mode, PerpendicularOverlattice):
        specs = glue.enumerate_overlattices(plus.lattice(), minus.lattice(),
                                            max_index=mode.glue_index)
        specs = [s for s in specs if s.index == mode.glue_index]
        if not specs:
            return MatchFailure(EMBEDDING_IMPOSSIBLE, f"no index-{mode.glue_index} overlattice")
        spec = specs[0]
        Wp = spec.w_gram
        r = Wp.rank
        if lat.signature(Wp) != (2, r - 2):
            return MatchFailure(SIGNATURE_MISMATCH, "overlattice signature")
        B = embed.place(Wp, ("U1", "U2", "U3"), 3)
        if B is None:
            return MatchFailure(EMBEDDING_UNKNOWN, "no primitive placement of the overlattice found")
        # rows of Binv: the N+ then the N- basis vectors in the coordinates of W'
        Binv = [[int(x) for x in row] for row in xa.rational_inverse(spec.basis_rational)]
        ep = xa.matmul(Binv[: plus.rank], B)
        em = xa.matmul(Binv[plus.rank :], B)
        # W has finite index in W', whose signature is checked above
        W = lat.Sublattice(L, ep + em).lattice()
        return _constructed_certificate(plus, minus, mode, W, ep + em, False, ep, em)
    if isinstance(mode, Orthogonal):
        spec = glue.PushoutSpec(plus.lattice(), minus.lattice(),
                                lat.Lattice(mode.r_gram), mode.r_in_plus, mode.r_in_minus)
        res = glue.orthogonal_pushout(spec)
        if isinstance(res, glue.IntegralityFailure):
            return MatchFailure(PUSHOUT_FAILURE, repr(res))
        W = res.w
        # hypothesis on the positive cones: for two nonsymplectic blocks an R
        # without -2 classes stands in for the assertion
        ample_auto = plus.kind == "nonsymplectic" and minus.kind == "nonsymplectic"
        if ample_auto:
            neg_r = [[-x for x in row] for row in mode.r_gram]
            if lat.definite_form_represents(lat.Lattice(neg_r), 2):
                return MatchFailure(AMPLE_CONE_UNASSERTED, "R contains a -2 class")
        elif not ample_cone_asserted:
            return MatchFailure(
                AMPLE_CONE_UNASSERTED,
                "non-perpendicular gluing of these blocks needs the positive-cone assertion",
            )
        if lat.signature(W) != (2, W.rank - 2):
            return MatchFailure(SIGNATURE_MISMATCH, f"W has signature {lat.signature(W)}")
        for bound in (2, 3, 4):  # the smallest bound that places W picks the rows
            rows = embed.place(W, ("U1", "U2", "U3"), bound)
            if rows is not None:
                break
        else:
            return MatchFailure(EMBEDDING_UNKNOWN, "no primitive placement of W found")
        ep = xa.matmul(res.n_plus_in_w.basis, rows)
        em = xa.matmul(res.n_minus_in_w.basis, rows)
        return _constructed_certificate(plus, minus, mode, W, rows, True, ep, em, rho=spec.r.rank,
                                        ample_auto=ample_auto, ample_cone_asserted=ample_cone_asserted)
    raise ValueError(f"unknown mode {mode!r}")


def _first_positive_combination(sub):
    """Deterministic positive-norm vector: basis rows, then pairwise sums and
    differences, then an exact diagonalization fallback."""
    amb = sub.ambient
    k = sub.rank
    for v in sub.basis:
        if amb.norm(v) > 0:
            return v
    for i in range(k):
        for j in range(i + 1, k):
            for s in (1, -1):
                v = [x + s * y for x, y in zip(sub.basis[i], sub.basis[j])]
                if amb.norm(v) > 0:
                    return v
    coeffs = lat.positive_norm_vector(sub.lattice())
    if coeffs is None:
        return None
    return xa.matmul([coeffs], sub.basis)[0]


def propose_triple(cert):
    """Deterministic rational matching triple from a complete certificate."""
    if not cert.is_explicit():
        raise ValueError("certificate has no explicit embedding")
    amb = k3_lattice()

    def a_image(emb, rec, w_side):
        v = xa.matmul([rec.anticanonical_class], emb.basis)[0]
        if amb.norm(v) > 0 and xa.solve_integer(w_side.basis, v) is not None:
            return v
        return None

    kp = a_image(cert.emb_plus, cert.block_plus, cert.w_plus)
    if kp is None:
        kp = _first_positive_combination(cert.w_plus)
    km = a_image(cert.emb_minus, cert.block_minus, cert.w_minus)
    if km is None:
        km = _first_positive_combination(cert.w_minus)
    k0 = _first_positive_combination(cert.t)
    if kp is None or km is None or k0 is None:
        raise AssertionError("no positive vector found: signature bookkeeping is wrong")
    norms = tuple(amb.norm(v) for v in (kp, km, k0))
    triple = MatchingTriple(kp, km, k0, norms)
    ok, reasons = verify_triple(triple, cert.emb_plus, cert.emb_minus)
    if not ok:
        raise AssertionError(f"proposed triple fails verification: {reasons}")
    cert.triple = triple
    return triple


def _in_span(v, sub):
    """Whether the rational vector v is in the Q-span of sub (never if sub has rank 0).  With v's
    denominators cleared, v <- row[c] v - v[c] row clears column c for each row of an echelon basis
    of sub with leading column c; v is in the span exactly when nothing is left."""
    if sub.rank == 0:
        return False
    v = xa.clear_denominators([v])[1][0]
    for row in sub.basis if lat._is_echelon(sub.basis) else xa.hnf(sub.basis):
        c = next(j for j, x in enumerate(row) if x)
        if v[c]:
            v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
    return not any(v)


def verify_triple(triple, emb_plus, emb_minus):
    """Membership, pairwise orthogonality and positivity, all exact over Q.

    k in span(T+-) is tested as k pairing to zero with N+-: over Q, span (N+-)^perp = (span N+-)^perp
    in a nondegenerate ambient (a degenerate one raises DegenerateLattice).  Only the embeddings are
    read, not the certificate: the check stays independent of the construction it checks."""
    amb = emb_plus.ambient
    if not amb.is_nondegenerate():
        raise lat.DegenerateLattice("degenerate ambient")

    def in_perp(v, sub):  # a zero complement spans nothing, as a rank-0 sub in `_in_span`
        return sub.rank < amb.rank and not any(amb.pair(v, row) for row in sub.basis)
    reasons = []
    checks = (
        ("k_plus in span(N+)", _in_span(triple.k_plus, emb_plus)),
        ("k_plus in span(T-)", in_perp(triple.k_plus, emb_minus)),
        ("k_minus in span(N-)", _in_span(triple.k_minus, emb_minus)),
        ("k_minus in span(T+)", in_perp(triple.k_minus, emb_plus)),
        ("k_0 in span(T+)", in_perp(triple.k_0, emb_plus)),
        ("k_0 in span(T-)", in_perp(triple.k_0, emb_minus)),
    )
    for label, member in checks:
        if not member:
            reasons.append(f"membership fails: {label}")
    vecs = (triple.k_plus, triple.k_minus, triple.k_0)
    names = ("k_plus", "k_minus", "k_0")
    for i in range(3):
        for j in range(i + 1, 3):
            if amb.pair(vecs[i], vecs[j]) != 0:
                reasons.append(f"orthogonality fails: {names[i]} . {names[j]} != 0")
    for name, v in zip(names, vecs):
        if amb.norm(v) <= 0:
            reasons.append(f"positivity fails: {name}")
    return (not reasons), reasons


def enumerate_pairs(cat, pair_filter=None):
    """Unordered pairs of records with repetition (self-pairs allowed), in id order.

    The filter keeps every pair (None), the pairs with rk N+ + rk N- <= 11
    ("rank11"), or the pairs with rk W + l(W) < 22 for W = N+ + N- ("rankell22";
    l(W) is bounded by the recorded l of a gramless record)."""
    if pair_filter not in (None, "rank11", "rankell22"):
        raise ValueError(f"unknown filter {pair_filter!r}")
    recs = sorted(cat, key=lambda r: r.id)
    out = []
    for i, a in enumerate(recs):
        for b in recs[i:]:
            if pair_filter == "rank11" and a.rank + b.rank > 11:
                continue
            if pair_filter == "rankell22":
                if a.gramless or b.gramless:
                    ell_bound = (a.ell() or 0) + (b.ell() or 0)
                else:
                    ell_bound = lat.ell(lat.direct_sum(a.lattice(), b.lattice()))
                if a.rank + b.rank + ell_bound >= 22:
                    continue
            out.append((a, b))
    return out


class GeographyReport:
    def __init__(self, rows, totals, summary):
        self.rows = rows  # list of (b, count, {div: n})
        self.totals = totals  # (count, {div: n})
        self.summary = summary  # dict of key-value lines

    DIVS = (4, 8, 12, 16, 24, 48)

    def _table(self):
        """The cells of the table: the header, one row per b, then the totals row."""
        header = ["b", "count"] + [f"d{d}" for d in self.DIVS]
        return [header] + [[str(b), str(count)] + [str(divs.get(d, 0)) for d in self.DIVS]
                           for b, count, divs in self.rows + [("total", *self.totals)]]

    def to_tsv(self):
        return "\n".join("\t".join(row) for row in self._table())

    def to_human(self):
        table = self._table()
        widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
        lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in table]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def summary_lines(self):
        return "\n".join(f"{k} = {v}" for k, v in self.summary.items())

    def row_for(self, b):
        for row in self.rows:
            if row[0] == b:
                return row
        return None


def geography_general(cat, pair_filter=None, resolutions="best"):
    """Census of b3 - 23 = b3(Z+) + b3(Z-) and div p1 over the pairs of a catalog that pass
    the filter, reporting actual coverage.  div p1 = 2 gcd of the blocks' div c2 values:
    every resolution's value with resolutions="all", else the largest."""
    rows = {}
    types = set()
    no_c2 = 0
    skipped_gramless = 0
    total = 0
    for a, b in enumerate_pairs(cat, pair_filter):
        if a.b3_Z is None or b.b3_Z is None:
            skipped_gramless += 1
            continue
        total += 1
        bsum = a.b3_Z + b.b3_Z
        values = sorted({2 * gcd(x, y) for x in a.div_c2 for y in b.div_c2})
        if resolutions != "all":
            values = values[-1:]
        entry = rows.setdefault(bsum, [0, {}])
        entry[0] += 1
        if not values:
            no_c2 += 1
        for v in values:
            entry[1][v] = entry[1].get(v, 0) + 1
            types.add((bsum, v))
    ordered = [(b, c, divs) for b, (c, divs) in sorted(rows.items())]
    col_totals = {}
    for _, _, divs in ordered:
        for d, n in divs.items():
            col_totals[d] = col_totals.get(d, 0) + n
    summary = {
        "pairs": total,
        "distinct_b": len(rows),
        "distinct_types": len(types),
    }
    if rows:
        summary["b3_min"] = min(rows) + 23
        summary["b3_max"] = max(rows) + 23
    if no_c2:
        summary["pairs_without_c2_data"] = no_c2
    if skipped_gramless:
        summary["pairs_without_b3_data"] = skipped_gramless
    return GeographyReport(ordered, (total, col_totals), summary)
