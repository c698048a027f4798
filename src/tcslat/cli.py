"""Command-line front end: reproducible batch commands over the library.

Exit codes: 0 success, 1 domain failure (a verdict or certificate failed),
2 usage or parse errors (argparse's own convention)."""

import argparse
import functools
import os
import sys

from . import blocks, embed, glue, match, tcs
from . import lattice as lat


def _parse_r(text):
    """--r: a 1x1 negative Gram [[-m]], the only R the command line supports."""
    R = blocks.parse_gram(text, "--r")
    if R.rank != 1 or R.gram[0][0] >= 0:
        raise blocks.CatalogError(f"--r: only a 1x1 negative Gram [[-m]] is supported, got {text}")
    return R


def _int_at_least(low):
    """The argparse type of a decimal integer >= low."""
    def parse(text):
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _load_catalogs(paths, cat=None):
    cat = blocks.full_catalog() if cat is None else cat
    for p in paths or ():
        cat = cat.merged_with(blocks.load_catalog(p))
    return cat


def cmd_catalog(args):
    if (args.id is None) == (args.action == "show"):
        print("error: catalog: show takes one id, list and validate none", file=sys.stderr)
        return 2
    cat = _load_catalogs(args.catalog, blocks.all_catalogs())
    if args.action == "list":
        for rec in sorted(cat, key=lambda r: r.id):
            kind = rec.kind + (" (gramless)" if rec.gramless else "")
            print(f"{rec.id}\trank {rec.rank}\t{kind}")
        return 0
    if args.action == "show":
        rec = cat[args.id]
        print(f"id = {rec.id}")
        print(f"kind = {rec.kind}")
        print(f"rank = {rec.rank}")
        if not rec.gramless:
            print(f"gram = {[list(row) for row in rec.n_gram]}")
            print(f"A = {list(rec.anticanonical_class)}")
            print(f"b3_Z = {rec.b3_Z}")
            print(f"rk_K = {rec.rk_K}")
            print(f"div_c2 = {sorted(rec.div_c2)}")
            if rec.div_c2_mod_Aperp is not None:
                print(f"div_c2_mod_Aperp = {rec.div_c2_mod_Aperp}")
            print(f"e = {rec.e_rigid}")
            print(f"ell = {rec.ell()}")
        else:
            print(f"ell = {rec.ell_N}")
            print(f"disc = {rec.meta.get('disc')}")
        if rec.notes:
            print(f"notes = {rec.notes}")
        return 0
    failures = 0
    for rec in sorted(cat, key=lambda r: r.id):
        ok, reason = blocks.validate_rank1(rec) if rec.kind == "fano_rank1" else (True, "")
        failures += not ok
        status = "ok" if ok else f"FAIL ({reason})"
        print(f"{rec.id}\t{status}")
    return 1 if failures else 0


def _find_r_vector(side, N, r_lattice, bound):
    target = r_lattice.gram[0][0]
    v = lat.find_primitive_vector(N, target, bound)
    if v is None:
        print(f"{side}: no primitive vector of norm {target} within bound {bound}", file=sys.stderr)
    return v


def cmd_pushout(args):
    R = _parse_r(args.r)
    cat = _load_catalogs(args.catalog)
    plus, minus = cat[args.plus], cat[args.minus]
    Np, Nm = plus.lattice(), minus.lattice()
    vp = _find_r_vector(f"--plus {args.plus}", Np, R, args.search_bound)
    vm = _find_r_vector(f"--minus {args.minus}", Nm, R, args.search_bound)
    if vp is None or vm is None:
        return 1
    res = glue.orthogonal_pushout(glue.PushoutSpec(Np, Nm, R, [vp], [vm]))
    if isinstance(res, glue.IntegralityFailure):
        print(f"IntegralityFailure: pairing {res.value} between basis vectors "
              f"{res.plus_index} and {res.minus_index}")
        return 1
    W = res.w
    print(f"rank = {W.rank}")
    print(f"gram = {[list(row) for row in W.gram]}")
    print(f"signature = {lat.signature(W)}")
    print(f"det = {W.det()}")
    return 0


def cmd_embed(args):
    W = blocks.load_gram(args.w)
    if not embed.necessary_condition(W):
        print("verdict = ImpossibleByNecessary")
        return 1
    verdict = embed.construct_embedding(W)
    if verdict.status != embed.EXISTS_CONSTRUCTED:
        rows = embed.place(W, ("U1", "U2", "U3"), args.search_bound)
        if rows is not None:
            verdict = embed.EmbeddingVerdict(embed.EXISTS_CONSTRUCTED, basis=rows, primitive=True)
    if verdict.status == embed.EXISTS_CONSTRUCTED:
        print(f"status = {verdict.status}")
        print(f"primitive = {verdict.primitive}")
        print(f"basis = {verdict.basis}")
        image = lat.Sublattice(embed.k3_lattice(), verdict.basis)
        print(f"cotorsion = {lat.quotient_torsion(image)}")
        return 0
    criterion = embed.nikulin_sufficient(W)
    if criterion:
        print(f"verdict = ExistsPrimitiveByCriterion ({criterion})")
        print(f"unique = {embed.uniqueness(W)}")
        return 0
    print("verdict = Unknown")
    return 1


def cmd_match(args):
    cat = _load_catalogs(args.catalog)
    plus, minus = cat[args.plus], cat[args.minus]
    Np, Nm = plus.lattice(), minus.lattice()  # a gramless record ends here, with exit 2
    if args.mode == "perp":
        mode = match.PerpendicularPrimitive()
    elif args.mode == "perp-over":
        mode = match.PerpendicularOverlattice(args.glue_index)
    else:
        if not args.r:
            print("error: --mode orth needs --r", file=sys.stderr)
            return 2
        R = _parse_r(args.r)
        vp = _find_r_vector(f"--plus {args.plus}", Np, R, args.search_bound)
        vm = _find_r_vector(f"--minus {args.minus}", Nm, R, args.search_bound)
        if vp is None or vm is None:
            return 1
        mode = match.Orthogonal(R.gram, [vp], [vm])
    cert = match.build_certificate(plus, minus, mode, ample_cone_asserted=args.assert_ample)
    if isinstance(cert, match.MatchFailure):
        print(f"failure = {cert.code}")
        if cert.detail:
            print(f"reason = {cert.detail}")
        return 1
    if cert.is_explicit():
        match.propose_triple(cert)
    print(cert.dump())
    return 0


def cmd_invariants(args):
    cat = _load_catalogs(args.catalog)
    cfg = tcs.load_config(args.config, cat)
    inv = tcs.compute_invariants(cfg)
    print(tcs.report_tsv(inv, cfg.name) if args.format == "tsv" else tcs.report_keyvalue(inv, cfg.name))
    failures = [c for c in tcs.sanity_suite(inv) if not c[1]]
    for name, _, detail in failures:
        print(f"sanity failure: {name}: {detail}", file=sys.stderr)
    return 1 if failures else 0


def cmd_geography(args):
    if args.table == "table3":
        rep = match.geography_general(blocks.rank1_catalog(), resolutions=args.resolutions)
    else:
        rep = match.geography_general(_load_catalogs(args.catalog), args.filter, resolutions=args.resolutions)
    print(rep.to_human() if args.format == "human" else rep.to_tsv())
    print()
    print(rep.summary_lines())
    return 0


def cmd_g2(args):
    from . import g2alg

    try:
        report = g2alg.verify_identity_suite(samples=args.samples, seed=args.seed)
    except AssertionError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 1
    print(f"triples_checked = {report['triples_checked']}")
    print(f"hk_square = {report['hk_square']}")
    print("all identities hold")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one `error:` line and exit 2, like any malformed input."""
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser():
    p = _Parser(prog="tcslat", description=__doc__)
    p.add_argument("--catalog", action="append", metavar="FILE",
                   help="extra catalog file(s) merged with the bundled tables")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="list, show or validate catalog records")
    pc.add_argument("action", choices=("list", "show", "validate"))
    pc.add_argument("id", nargs="?")

    pp = sub.add_parser("pushout", help="orthogonal pushout of two blocks along rank-1 R")
    pp.add_argument("--plus", required=True)
    pp.add_argument("--minus", required=True)
    pp.add_argument("--r", required=True, metavar="GRAM")
    pp.add_argument("--search-bound", type=_int_at_least(1), default=6)

    pe = sub.add_parser("embed", help="embed a lattice into the rank-22 ambient")
    pe.add_argument("--w", required=True, metavar="FILE")
    pe.add_argument("--search-bound", type=_int_at_least(1), default=3)

    pm = sub.add_parser("match", help="build a matching certificate")
    pm.add_argument("--plus", required=True)
    pm.add_argument("--minus", required=True)
    pm.add_argument("--mode", choices=("perp", "perp-over", "orth"), required=True)
    pm.add_argument("--r", metavar="GRAM")
    pm.add_argument("--glue-index", type=_int_at_least(2), default=2)
    pm.add_argument("--assert-ample", action="store_true")
    pm.add_argument("--search-bound", type=_int_at_least(1), default=6)

    pi = sub.add_parser("invariants", help="invariants of a gluing configuration")
    pi.add_argument("--config", required=True, metavar="FILE")
    pi.add_argument("--format", choices=("human", "tsv"), default="human")

    pg = sub.add_parser("geography", help="census tables over a catalog")
    pg.add_argument("table", choices=("table3", "general"))
    pg.add_argument("--filter", choices=("rank11", "rankell22"))
    pg.add_argument("--resolutions", choices=("best", "all"), default="best")
    pg.add_argument("--format", choices=("human", "tsv"), default="tsv")

    pv = sub.add_parser("g2", help="verify the pointwise identities of the model forms")
    pv.add_argument("action", choices=("verify",))
    pv.add_argument("--samples", type=_int_at_least(0), default=100)
    pv.add_argument("--seed", type=int, default=0)
    return p


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # looked up by name on every call, so a replaced cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (blocks.CatalogError, tcs.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except blocks.UnknownBlockId as exc:
        print(f"unknown id: {exc}", file=sys.stderr)
        return 1


def run():
    """Console entry point; a reader that closes stdout early (`| head`) ends the run quietly with 1."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the exit-time flush finds no pipe
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
