#!/usr/bin/env python3
"""Generate the checked-in gluing-configuration files under configs/.

Each configuration is constructed from the catalog plus an explicit embedding
of the glued lattice into the fixed rank-22 ambient basis, verified against
its expected invariants, and then frozen as a text file.  Re-running must be
deterministic and reproduce the files byte-for-byte.  ``--check`` recomputes
every configuration in memory and writes nothing: it exits 1 naming the first
file that differs from configs/, and 0 when every file would be rewritten byte
for byte.

    python3 tools/make_configs.py [--check]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tcslat import blocks, embed, glue, match
from tcslat import exactalg as xa
from tcslat import lattice as lat
from tcslat import tcs

OUT = os.path.join(os.path.dirname(__file__), "..", "configs")

CAT = blocks.full_catalog()
PERP = match.PerpendicularPrimitive()


class ConfigWriter:
    """Writes each configuration to configs/ or, with check set, compares it
    with the file there and writes nothing; keeps the file names it made."""

    def __init__(self, check):
        self.check = check
        self.names = []

    def write(self, name, block_plus, block_minus, emb_plus, emb_minus, extra=None, comment=""):
        lines = []
        if comment:
            for c in comment.splitlines():
                lines.append(f"# {c}")
        lines.append("schema = 1")
        lines.append(f"config = {name}")
        lines.append("")
        lines.append(f"block_plus = {block_plus}")
        lines.append(f"block_minus = {block_minus}")
        lines.append(f"emb_plus = {xa.mat(emb_plus)}")
        lines.append(f"emb_minus = {xa.mat(emb_minus)}")
        for k, v in (extra or {}).items():
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{k} = {v}")
        path = os.path.join(OUT, f"{name}.cfg")
        text = "\n".join(lines) + "\n"
        self.names.append(f"{name}.cfg")
        if self.check:
            # unchanged, the file holds exactly this text, so loading it checks the text
            try:
                with open(path, encoding="utf-8") as fh:
                    same = fh.read() == text
            except FileNotFoundError:
                same = False
            if not same:
                raise SystemExit(f"configs/{name}.cfg differs")
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        cfg = tcs.load_config(path, CAT)
        inv = tcs.compute_invariants(cfg)
        return cfg, inv


def check(name, inv, b2, b3, th3, th4, a0, p1=None):
    ok = (
        inv.b2 == b2
        and inv.b3 == b3
        and inv.b4 == b3
        and inv.tor_h3 == th3
        and inv.tor_h4 == th4
        and inv.a0 == a0
        and (p1 is None or inv.div_p1 == p1)
    )
    if not ok:
        raise SystemExit(
            f"{name}: got b2={inv.b2} b3={inv.b3} b4={inv.b4} th3={inv.tor_h3} "
            f"th4={inv.tor_h4} a0={inv.a0} p1={inv.div_p1}"
        )
    print(f"{name}: ok (b2={b2} b3={b3} th3={th3 or '-'} th4={th4 or '-'} a0={a0} p1={inv.div_p1})")


def cert_rows(plus, minus, mode):
    """The N+ and N- rows of the library's explicit certificate for the pair in this mode, as
    `tcslat match` prints them; the positive-cone assertion is made, and only orth reads it."""
    cert = match.build_certificate(CAT[plus], CAT[minus], mode, ample_cone_asserted=True)
    assert isinstance(cert, match.MatchCertificate) and cert.is_explicit(), (plus, minus)
    return cert.emb_plus.basis, cert.emb_minus.basis


def orth_along(plus, minus, m):
    """The orth mode along R = <m> with the R vectors `tcslat match --mode orth` finds at its
    default --search-bound 6."""
    vp, vm = (lat.find_primitive_vector(CAT[b].lattice(), m, 6) for b in (plus, minus))
    return match.Orthogonal([[m]], [vp], [vm])


def library_rows(gram, primitive):
    """The rows of the library's verified embedding of the Gram, whose image is primitive or not."""
    verdict = embed.construct_embedding(lat.Lattice(gram))
    assert verdict.status == embed.EXISTS_CONSTRUCTED and verdict.primitive == primitive, gram
    return verdict.basis


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute in memory, write nothing, exit 1 at the first file that differs")
    writer = ConfigWriter(parser.parse_args(argv).check)
    if not writer.check:
        os.makedirs(OUT, exist_ok=True)

    # --- No 1: quartic x quartic through the index-2 overlattice <2> + <2> of <4> + <4>
    _, inv = writer.write(
        "no1", "7.1_4^1", "7.1_4^1", *cert_rows("7.1_4^1", "7.1_4^1", match.PerpendicularOverlattice(2)),
        comment="both blocks from the smooth quartic; glued through the index-2\n"
        "overlattice <2> + <2> of <4> + <4>, so H3 picks up 2-torsion",
    )
    check("no1", inv, 0, 155, [2], [], 0, 8)

    # primitive variant of the same pair (the rank-1 census entry b = 132)
    _, inv = writer.write(
        "no1-primitive", "7.1_4^1", "7.1_4^1", *cert_rows("7.1_4^1", "7.1_4^1", PERP),
        comment="same pair of blocks, primitive perpendicular gluing",
    )
    check("no1-primitive", inv, 0, 155, [], [], 0, 8)

    # --- No 2a-2d: quartic-resolution blocks, perpendicular primitive
    no2 = {"no2a": ("Ex7.3", "Ex7.3", 123, 18), "no2b": ("Ex7.3", "Ex7.4", 117, 21),
           "no2c": ("Ex7.3", "Ex7.5", 107, 26), "no2d": ("Ex7.3", "Ex7.6", 109, 25)}
    for name, (bp, bm, b3, a0) in no2.items():
        extra = {"resolution_plus": max(CAT[bp].div_c2), "resolution_minus": max(CAT[bm].div_c2)}
        _, inv = writer.write(name, bp, bm, *cert_rows(bp, bm, PERP), extra=extra)
        check(name, inv, 0, b3, [], [], a0)

    # --- No 3: quartic x the P3 block with rk K = 3
    _, inv = writer.write("no3", "7.1_4^1", "Ex7.8", *cert_rows("7.1_4^1", "Ex7.8", PERP))
    check("no3", inv, 3, 116, [], [], 24, 4)

    # --- No 4: Ex7.12 x Ex7.10, perpendicular primitive (criterion (ii) territory).  Own rows:
    # the perp certificate of this pair is by criterion only, with no rows to take
    ep = embed.place(lat.Lattice(CAT["Ex7.12"].n_gram), ("U1", "U2"), 3)
    assert ep is not None
    # Ex7.10: E8(-1) identity into E8a, <8> = (1,4) in U3, <-16> primitive in E8b
    x16 = lat.find_primitive_vector(lat.E8(-1), -16, 2)
    assert x16 is not None
    em = (embed.scatter(xa.eye(8), ("E8a",)) + embed.scatter([[1, 4]], ("U3",))
          + embed.scatter([x16], ("E8b",)))
    _, inv = writer.write("no4", "Ex7.12", "Ex7.10", ep, em)
    check("no4", inv, 0, 93, [], [], 21, 4)

    # --- No 5a-5g / 6a-6e: the rank-16 block against rank-1 partners
    partners = {"no5a": ("7.1_4^1", 95), "no5b": ("7.1_10^1", 61), "no5c": ("7.1_16^1", 53),
                "no5d": ("7.1_22^1", 53), "no5e": ("7.1_2^2", 67), "no5f": ("7.1_5^2", 71),
                "no5g": ("7.1_1^4", 95), "no6a": ("7.1_6^1", 77), "no6b": ("7.1_12^1", 57),
                "no6c": ("7.1_18^1", 53), "no6d": ("7.1_3^2", 65), "no6e": ("7.1_2^3", 85)}
    for name, (partner, b3) in partners.items():
        _, inv = writer.write(
            name, "Ex7.7", partner, *cert_rows("Ex7.7", partner, PERP),
            comment=f"rank-16 block against {partner}: rank-1 image is a primitive\n"
            f"norm-{CAT[partner].n_gram[0][0]} vector of the complement A2(-1) + 2U(3)",
        )
        th3 = [3] if name.startswith("no6") else []
        check(name, inv, 0, b3, th3, [], 45, 4)

    # --- No 7: the nongeneric toric block against itself, explicit 3U matrix.  No 7, 8 and 11
    # keep their own rows: each is a deliberately different gluing (imprimitive or
    # non-orthogonal) from the library's verified embedding of a chosen Gram
    rows = library_rows([[8, 0, 0, 0], [0, -16, 0, 0], [0, 0, 8, 0], [0, 0, 0, -16]], False)
    ep = embed.scatter(xa.eye(8), ("E8a",)) + rows[:2]
    em = embed.scatter(xa.eye(8), ("E8b",)) + rows[2:]
    _, inv = writer.write(
        "no7", "Ex7.11", "Ex7.11", ep, em,
        comment="each polarising lattice is E8(-1) + <8> + <-16>; the two\n"
        "rank-2 parts share the 3U factor via the explicit matrix",
    )
    check("no7", inv, 24, 47, [8], [], 66, 4)

    # --- No 8: maximal-cotorsion perpendicular gluing of Ex7.6 with itself
    # the paper's factor basis has Gram [[4,4],[4,0]]; the catalog basis is reversed
    rows = library_rows([[4, 4, 0, 0], [4, 0, 0, 0], [0, 0, 4, 4], [0, 0, 4, 0]], False)
    ep, em = [rows[1], rows[0]], [rows[3], rows[2]]
    _, inv = writer.write(
        "no8", "Ex7.6", "Ex7.6", ep, em,
        comment="cotorsion (Z/4)^2: the largest gluing keeping both factors primitive",
    )
    check("no8", inv, 0, 95, [4, 4], [], 32, 8)

    # --- No 9a-9h: rank-2 Fano blocks glued along a rank-1 intersection R = <m>
    no9 = {"no9a": ("MM2-2", "MM2-24", -6, 102, 12), "no9b": ("MM2-6", "MM2-6", -4, 86, 24),
           "no9c": ("MM2-10", "MM2-10", -16, 70, 16), "no9d": ("MM2-12", "MM2-12", -4, 78, 8),
           "no9e": ("MM2-21", "MM2-21", -4, 82, 8), "no9f": ("MM2-6", "MM2-12", -4, 82, 8),
           "no9g": ("MM2-6", "MM2-21", -4, 84, 8), "no9h": ("MM2-12", "MM2-21", -4, 80, 8)}
    comment9a = (
        "glued along the common rank-1 complement of the pushout class;\n"
        "b3 is asserted at 102, the value forced by the blocks' own b3 data\n"
        "through the Betti-sum identity (the figure 82 sometimes quoted for this\n"
        "gluing is inconsistent with that data)"
    )
    for name, (bp, bm, m, b3, p1) in no9.items():
        _, inv = writer.write(name, bp, bm, *cert_rows(bp, bm, orth_along(bp, bm, m)),
                              extra={"ample_cone_asserted": True}, comment=comment9a if name == "no9a" else "")
        check(name, inv, 1, b3, [], [], 0, p1)

    # --- No 10: H4 torsion from the rank-3 nongeneric blocks.  The rank-5
    # pushout has discriminant rank 5, so it needs an E8 slot; seed the search
    # with a primitive placement of N+ and extend by the two remaining rows.  Own rows:
    # orth searches 3U only, where `tcslat match` reads EmbeddingUnknown.
    N = lat.Lattice(CAT["Ex7.9"].n_gram)
    R = lat.diag_lattice(-8)
    res = glue.orthogonal_pushout(glue.PushoutSpec(N, N, R, [[-1, -1, 1]], [[-1, -1, 1]]))
    assert isinstance(res, glue.PushoutResult)
    W = res.w
    summands = ("U1", "U2", "E8a")
    vn = embed.place(N, summands, 3)
    assert vn is not None, "N+ placement"
    B = embed.place(W, summands, 3, prefix=vn)
    assert B is not None, "no primitive placement for the rank-5 pushout"
    ep = xa.matmul(res.n_plus_in_w.basis, B)
    em = xa.matmul(res.n_minus_in_w.basis, B)
    _, inv = writer.write(
        "no10", "Ex7.9", "Ex7.9", ep, em,
        extra={"div_c2_mod_image": [4, 4], "ample_cone_asserted": True},
        comment="rank-1 intersection <-8> with halved images on both sides,\n"
        "so each H4 summand picks up Z/2",
    )
    check("no10", inv, 1, 82, [], [2, 2], 40, 8)

    # --- No 11: handcrafted non-orthogonal gluing of Ex7.6 with itself
    rows = library_rows([[12, 4, 0, 0], [4, 0, 0, 1], [0, 0, 12, 4], [0, 1, 4, 0]], True)
    # factor basis (H, E) with H = A + E; catalog basis is (E, A) = (E, H - E)
    ep = [rows[1], [a - b for a, b in zip(rows[0], rows[1])]]
    em = [rows[3], [a - b for a, b in zip(rows[2], rows[3])]]
    _, inv = writer.write(
        "no11", "Ex7.6", "Ex7.6", ep, em,
        extra={"div_c2_mod_image": [24, 24], "ample_cone_asserted": True},
        comment="non-orthogonal: the two images pair with a single unit cross term;\n"
        "div c2 data modulo the opposite image is 24 on both sides",
    )
    check("no11", inv, 0, 93, [], [], 32, 48)
    assert not inv.betti_sum_orthogonal

    if writer.check:
        extra = sorted(set(os.listdir(OUT)) - set(writer.names))
        if extra:
            raise SystemExit(f"configs/{extra[0]} is not generated")
        print(f"{len(writer.names)} configs match configs")
    else:
        print("all configs written")


if __name__ == "__main__":
    main()
