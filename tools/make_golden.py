#!/usr/bin/env python3
"""Freeze the stdout and exit code of deterministic CLI invocations into
tests/golden/corpus.json, which tests/test_golden.py replays, the stdout of
every demo into tests/golden/demos/, which tests/test_demos.py compares, and a
rendering of fixed seeded g2alg calls into tests/golden/g2alg.json, and the
torsion linking table of every config into tests/golden/linking.json, both of
which tests/test_golden.py recomputes through ``g2alg_cases``,
``linking_cases`` and ``render_call``.

Every case runs in-process through ``tcslat.cli.main`` with the repository
root as the working directory, so file arguments are repository-relative.
Re-running must reproduce the corpus byte-for-byte; regenerate it only when a
change to the output is intended.  ``--check`` recomputes everything in memory
and writes nothing: it exits 1 naming the first case that differs from its
golden file, and 0 when every file would be rewritten byte for byte.  It then
runs ``tools/make_configs.py --check``, so configs/ is guarded as well.

    python3 tools/make_golden.py [--check]
"""

import argparse
import glob
import io
import json
import os
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tcslat import blocks, cli, g2alg, tcs  # noqa: E402
from tcslat import exactalg as xa  # noqa: E402

GOLDEN = os.path.join("tests", "golden")
CORPUS = os.path.join(ROOT, GOLDEN, "corpus.json")
DEMO_GOLDEN = os.path.join(ROOT, GOLDEN, "demos")
G2ALG_GOLDEN = os.path.join(ROOT, GOLDEN, "g2alg.json")
LINKING_GOLDEN = os.path.join(ROOT, GOLDEN, "linking.json")


def _gram(name):
    return os.path.join(GOLDEN, "grams", name)


def cases():
    """The argv of every frozen invocation, in a fixed order."""
    out = []
    for cfg in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        path = os.path.join("configs", cfg)
        out.append(["invariants", "--config", path])
        out.append(["invariants", "--config", path, "--format", "tsv"])
    for res in ("best", "all"):
        out.append(["geography", "table3", "--resolutions", res])
        out.append(["geography", "table3", "--resolutions", res, "--format", "human"])
        for flt in (None, "rank11", "rankell22"):
            argv = ["geography", "general", "--resolutions", res]
            out.append(argv + (["--filter", flt] if flt else []))
    out.append(["catalog", "list"])
    out.append(["catalog", "validate"])
    out += [["catalog", "show", rid] for rid in sorted(blocks.all_catalogs().ids())]
    out.append(["catalog", "show", "no-such-block"])
    out += [
        ["pushout", "--plus", "MM2-6", "--minus", "MM2-6", "--r", "[[-4]]"],
        ["--catalog", os.path.join(GOLDEN, "line-quartic.blocks"), "pushout",
         "--plus", "line-quartic", "--minus", "line-quartic", "--r", "[[-36]]"],
        ["match", "--plus", "Ex7.4", "--minus", "Ex7.4", "--mode", "orth", "--r", "[[-12]]"],
        ["match", "--plus", "Ex7.4", "--minus", "Ex7.4", "--mode", "orth", "--r", "[[-12]]",
         "--assert-ample"],
        ["match", "--plus", "MM2-6", "--minus", "MM2-6", "--mode", "orth", "--r", "[[-4]]",
         "--assert-ample"],
        ["match", "--plus", "7.1_4^1", "--minus", "7.1_22^1", "--mode", "perp"],
        ["match", "--plus", "Ex7.7", "--minus", "7.1_2^1", "--mode", "perp"],
        ["match", "--plus", "7.1_4^1", "--minus", "7.1_4^1", "--mode", "perp-over"],
        ["embed", "--w", _gram("library_4_4.gram")],
        ["embed", "--w", _gram("criterion_40_1_-2.gram"), "--search-bound", "2"],
        ["embed", "--w", _gram("backtrack_rank3.gram"), "--search-bound", "2"],
        ["embed", "--w", _gram("exhaust_rank4.gram"), "--search-bound", "1"],
    ]
    out += [["g2", "verify", "--samples", "20", "--seed", str(seed)] for seed in (0, 1, 2)]
    # perpendicular matches of Ex7.7 against every rank-1 block, and of every
    # pair of rank-1 blocks; an argv already frozen above keeps its place
    rank1 = sorted(blocks.rank1_catalog().ids())
    pairs = [("Ex7.7", rid) for rid in rank1]
    pairs += [(a, b) for i, a in enumerate(rank1) for b in rank1[i:]]
    for plus, minus in pairs:
        argv = ["match", "--plus", plus, "--minus", minus, "--mode", "perp"]
        if argv not in out:
            out.append(argv)
    # the perpendicular matches and backtracking embeds that perfbench's
    # certify workload runs, searches that hit and searches that exhaust
    for plus, minus in (("Ex7.6", "Ex7.6"), ("Ex7.3", "MM2-10"), ("Ex7.9", "Ex7.10"),
                        ("Ex7.10", "Ex7.11")):
        out.append(["match", "--plus", plus, "--minus", minus, "--mode", "perp"])
    for name, bound in (("backtrack_rank3_a", 2), ("backtrack_rank3_b", 2), ("exhaust_sig22", 1)):
        out.append(["embed", "--w", os.path.join("perfbench", "grams", name + ".gram"),
                    "--search-bound", str(bound)])
    # the orthogonal matches of the no9 configs' pairs: rank-3 placements into 3U
    for plus, minus, r in (("MM2-2", "MM2-24", -6), ("MM2-10", "MM2-10", -16),
                           ("MM2-12", "MM2-12", -4), ("MM2-21", "MM2-21", -4),
                           ("MM2-6", "MM2-12", -4), ("MM2-6", "MM2-21", -4),
                           ("MM2-12", "MM2-21", -4)):
        out.append(["match", "--plus", plus, "--minus", minus, "--mode", "orth",
                    "--r", f"[[{r}]]", "--assert-ample"])
    # overlattices of Ex7.6 x Ex7.6 with several candidates of one index (18,
    # 12 and 4): the first one printed pins the enumeration order
    for index in (4, 8, 16):
        out.append(["match", "--plus", "Ex7.6", "--minus", "Ex7.6", "--mode", "perp-over",
                    "--glue-index", str(index)])
    # a nonsymplectic block against a Fano one, in both orders: the positive-cone
    # hypothesis is asserted, not automatic, whichever side is nonsymplectic
    nonsymplectic = "nonsymplectic-12-8"
    for plus, minus in ((nonsymplectic, "MM2-10"), ("MM2-10", nonsymplectic)):
        out.append(["--catalog", os.path.join(GOLDEN, "nonsymplectic.blocks"), "match",
                    "--plus", plus, "--minus", minus, "--mode", "orth", "--r", "[[-8]]",
                    "--assert-ample"])
    return out


def run(argv):
    """(exit code, stdout) of one in-process CLI call from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def demo_scripts():
    return sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


def demo_stdout(script):
    """stdout of one demo run as its own process with src/ on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          timeout=300, env=env, check=True)
    return proc.stdout


def render(x):
    """A JSON value that depends only on the value of a result: Fractions
    as "n/d", dict items sorted by key, other objects as their class name and
    attributes."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [render(v) for v in x]
    if isinstance(x, dict):
        return [[render(k), render(v)] for k, v in sorted(x.items(), key=lambda kv: kv[0])]
    return {"class": type(x).__name__, "attrs": render(dict(vars(x)))}


def render_call(call):
    """The rendering of ``call()``, or the type and message of what it raised."""
    try:
        return {"result": render(call())}
    except (ValueError, AssertionError, IndexError) as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}


def _e(i):
    return [1 if k == i - 1 else 0 for k in range(7)]


def _rational(rng, n=7):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def _triangular(rng):
    """A rational upper triangular 7x7 matrix with nonzero diagonal."""
    M = [[Fraction(0)] * 7 for _ in range(7)]
    for i in range(7):
        M[i][i] = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2)))
        for j in range(i + 1, 7):
            M[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return M


def _positive_metric(rng):
    """A . A^T for a random rational triangular A: a positive definite metric."""
    A = _triangular(rng)
    return g2alg.Metric([[sum(a * b for a, b in zip(r, s)) for s in A] for r in A])


def g2alg_cases():
    """(name, zero-argument call) for every frozen g2alg call, in a fixed order.
    Each case draws from its own seeded generator."""
    phi, psi = g2alg.phi0(), g2alg.psi0()
    rng = {name: random.Random(f"g2alg/{name}") for name in (
        "cross", "chi", "metric", "assoc", "coassoc", "slag", "su3", "pullback", "exact")}
    G = _positive_metric(rng["metric"])
    M = _triangular(rng["exact"])
    pulled = Fraction(27, 8) * g2alg.pullback(phi, M)
    pulled_g = g2alg.metric_from_3form(pulled).g
    flipped = g2alg.Form(3, 7, {idx: -c if idx == (1, 3, 5) else c for idx, c in phi.coeffs.items()})
    out = []
    for k in range(3):
        u, v = _rational(rng["cross"]), _rational(rng["cross"])
        out.append((f"cross identity #{k}", lambda u=u, v=v: g2alg.cross(u, v)))
        out.append((f"cross metric #{k}", lambda u=u, v=v: g2alg.cross(u, v, phi, G)))
        out.append((f"cross pulled back #{k}", lambda u=u, v=v: g2alg.cross(u, v, pulled, pulled_g)))
        v, w, x = (_rational(rng["chi"]) for _ in range(3))
        out.append((f"chi identity #{k}", lambda v=v, w=w, x=x: g2alg.chi(v, w, x)))
        out.append((f"chi metric #{k}", lambda v=v, w=w, x=x: g2alg.chi(v, w, x, psi, G)))
    out.append(("cross basis e2 e5", lambda: g2alg.cross(_e(2), _e(5))))
    out.append(("chi basis e5 e6 e7", lambda: g2alg.chi(_e(5), _e(6), _e(7))))
    calibrated = [[a * x for x in _e(i)] for a, i in zip((2, -1, Fraction(1, 3)), (1, 2, 3))]
    for k in range(3):
        triple = [_rational(rng["assoc"]) for _ in range(3)]
        out.append((f"is_associative random #{k}", lambda t=triple: g2alg.is_associative(*t)))
        out.append((f"is_associative metric #{k}", lambda t=triple: g2alg.is_associative(*t, phi, G)))
        quad = [_rational(rng["coassoc"]) for _ in range(4)]
        out.append((f"is_coassociative random #{k}", lambda q=quad: g2alg.is_coassociative(*q)))
        out.append((f"is_coassociative metric #{k}", lambda q=quad: g2alg.is_coassociative(*q, psi, G)))
    out.append(("is_associative calibrated", lambda: g2alg.is_associative(*calibrated)))
    # x M = e_i for the first three rows of M^-1: a calibrated plane of the pulled-back form
    pulled_plane = xa.rational_inverse(M)[:3]
    out.append(("is_associative pulled back calibrated",
                lambda: g2alg.is_associative(*pulled_plane, pulled, pulled_g)))
    out.append(("is_associative e1 e4 e6", lambda: g2alg.is_associative(_e(1), _e(4), _e(6))))
    out.append(("is_associative degenerate", lambda: g2alg.is_associative(_e(1), _e(1), _e(2))))
    out.append(("is_coassociative e4 e5 e6 e7",
                lambda: g2alg.is_coassociative(_e(4), _e(5), _e(6), _e(7))))
    out.append(("is_coassociative degenerate",
                lambda: g2alg.is_coassociative(_e(4), _e(5), _e(6), [0, 0, 0, 2, 2, 2, 0])))
    c, s = Fraction(3, 5), Fraction(4, 5)
    rotated = [[0, c, s, 0, 0, 0, 0], _e(4), _e(6)]
    for k in range(2):
        plane = [_rational(rng["slag"]) for _ in range(3)]
        out.append((f"is_special_lagrangian random #{k}", lambda p=plane: g2alg.is_special_lagrangian(p)))
    out += [
        ("is_special_lagrangian e2 e4 e6", lambda: g2alg.is_special_lagrangian([_e(2), _e(4), _e(6)])),
        ("is_special_lagrangian e2 e3 e4", lambda: g2alg.is_special_lagrangian([_e(2), _e(3), _e(4)])),
        ("is_special_lagrangian rotated", lambda: g2alg.is_special_lagrangian(rotated, phase=(c, -s))),
        ("is_special_lagrangian rotated, phase 1", lambda: g2alg.is_special_lagrangian(rotated)),
        ("is_special_lagrangian degenerate",
         lambda: g2alg.is_special_lagrangian([_e(2), _e(2), _e(4)])),
        ("is_special_lagrangian off the circle",
         lambda: g2alg.is_special_lagrangian([_e(2), _e(4), _e(6)], phase=(1, 1))),
    ]
    for k, (a, b, cc, d) in enumerate(((2, 3, 6, 7), (1, 4, 8, 9))):
        pos = rng["su3"].sample(range(7), 3)
        u = [Fraction(0)] * 7
        for p, x in zip(pos, (a, -b, cc)):
            u[p] = Fraction(x, d)
        out.append((f"su3_from_unit_vector #{k}", lambda u=u: g2alg.su3_from_unit_vector(phi, u)))
    out.append(("su3_from_unit_vector e1", lambda: g2alg.su3_from_unit_vector(phi, _e(1))))
    out.append(("su3_from_unit_vector e5", lambda: g2alg.su3_from_unit_vector(phi, _e(5))))
    out.append(("su3_from_unit_vector not unit",
                lambda: g2alg.su3_from_unit_vector(phi, [2, 0, 0, 0, 0, 0, 0])))
    for k in range(2):
        P = [_rational(rng["pullback"]) for _ in range(7)]
        out.append((f"pullback phi0 #{k}", lambda P=P: g2alg.pullback(phi, P)))
        out.append((f"pullback psi0 #{k}", lambda P=P: g2alg.pullback(psi, P)))
    out += [
        ("metric_from_3form phi0", lambda: g2alg.metric_from_3form(phi)),
        ("metric_from_3form 8 phi0", lambda: g2alg.metric_from_3form(8 * phi)),
        ("metric_from_3form pulled back", lambda: g2alg.metric_from_3form(pulled)),
        ("metric_from_3form 2 phi0 (float fallback)", lambda: g2alg.metric_from_3form(2 * phi)),
        ("metric_from_3form flipped", lambda: g2alg.metric_from_3form(flipped)),
        ("metric_from_3form degenerate",
         lambda: g2alg.metric_from_3form(g2alg.form_from_terms(3, 7, [(1, "123")]))),
        ("gram_determinant metric", lambda: g2alg.gram_determinant(calibrated + [_e(4)], G)),
    ]
    return out


def linking_cases():
    """(config path, zero-argument call) for the torsion linking table of every
    config in configs/, in sorted order."""
    out = []
    for cfg in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        path = os.path.join(ROOT, "configs", cfg)
        out.append((os.path.join("configs", cfg),
                    lambda path=path: tcs.torsion_linking(tcs.load_config(path, blocks.full_catalog()))))
    return out


def _json(value):
    return json.dumps(value, indent=1) + "\n"


def golden_files():
    """(what, where, files) for the corpus, the demo outputs, the g2alg
    renderings and the linking tables, each recomputed in memory; files are (path, text, cases) with
    text the exact file content and cases its entries by name, in file order."""
    corpus = []
    for argv in cases():
        code, stdout = run(argv)
        corpus.append({"argv": argv, "exit": code, "stdout": stdout.split("\n")})
    yield "cases", CORPUS, [(CORPUS, _json(corpus), {shlex.join(c["argv"]): c for c in corpus})]
    demos = []
    for script in demo_scripts():
        name = os.path.splitext(os.path.basename(script))[0] + ".txt"
        text = demo_stdout(script)
        demos.append((os.path.join(DEMO_GOLDEN, name), text, {name: text}))
    yield "demo outputs", DEMO_GOLDEN, demos
    frozen = {name: render_call(call) for name, call in g2alg_cases()}
    yield "g2alg calls", G2ALG_GOLDEN, [(G2ALG_GOLDEN, _json(frozen), frozen)]
    frozen = {name: render_call(call) for name, call in linking_cases()}
    yield "linking tables", LINKING_GOLDEN, [(LINKING_GOLDEN, _json(frozen), frozen)]


def first_difference(path, text, cases):
    """None when the file at path holds exactly text, else the name of the
    first case whose entry differs from (or is missing in) the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            old = fh.read()
    except FileNotFoundError:
        return "the file is missing"
    if old == text:
        return None
    if path.endswith(".json"):
        frozen = json.loads(old)
        if isinstance(frozen, list):
            frozen = {shlex.join(c["argv"]): c for c in frozen}
    else:
        frozen = {name: old for name in cases}
    for name in list(cases) + list(frozen):
        if cases.get(name) != frozen.get(name):
            return name
    return "same cases, different layout"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute in memory, write nothing, exit 1 at the first case that differs")
    args = parser.parse_args(argv)
    for what, where, files in golden_files():
        where = os.path.relpath(where, ROOT)
        count = sum(len(entries) for _, _, entries in files)
        for path, text, entries in files:
            if args.check:
                diff = first_difference(path, text, entries)
                if diff is not None:
                    print(f"{os.path.relpath(path, ROOT)} differs: {diff}")
                    return 1
            else:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
        print(f"{count} {what} {'match' if args.check else 'written to'} {where}")
    if args.check:
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "make_configs.py"),
                               "--check"], capture_output=True, text=True)
        print((proc.stdout + proc.stderr).strip().splitlines()[-1])
        return 1 if proc.returncode else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
