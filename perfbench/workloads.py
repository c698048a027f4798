"""The benchmark's workloads: named ops, the seeded op list of one pass, and
the universe of ops a seed can draw from (which the output gate records).

An op is one in-process ``tcslat.cli.main(argv)`` call or one call to a public
library function.  CLI ops are checked on (exit code, sha256 of stdout);
library ops on (0, sha256 of a canonical rendering of the returned value).
"""

import collections
import glob
import hashlib
import io
import os
import random
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

from tcslat import blocks, cli, g2alg, tcs

WORKLOADS = ("census", "invariants", "certify", "forms")

GRAM_DIR = os.path.join("perfbench", "grams")

# certify: how many of the 153 rank-1 x rank-1 pairs one run samples
CERTIFY_PAIR_SAMPLE = 21

# forms: per-pass call counts, drawn from fixed input pools of POOL_SIZE
FORMS_CALLS = {
    "cross": 24,
    "chi": 16,
    "is_associative": 16,
    "is_coassociative": 16,
    "su3_from_unit_vector": 12,
    "metric_from_3form": 16,
}
POOL_SIZE = 48
G2_VERIFY_SEEDS = 16
G2_VERIFY_SAMPLES = 20

_perf = time.perf_counter


# One timed call; run() returns (exit code, sha256 hex of the output, seconds).
Op = collections.namedtuple("Op", "name run")


def cli_op(*argv):
    argv = list(argv)

    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = _perf()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            dt = _perf() - t0
        return code, _sha(out.getvalue()), dt

    return Op("tcslat " + shlex.join(argv), call)


def lib_op(name, fn, *args):
    def call():
        t0 = _perf()
        result = fn(*args)
        dt = _perf() - t0
        return 0, _sha(canonical(result)), dt

    return Op(name, call)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(x):
    """A rendering of a library result that depends only on its value."""
    if isinstance(x, np.ndarray):
        return canonical(x.tolist())
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in x) + "]"
    if isinstance(x, dict):
        items = sorted((canonical(k), canonical(v)) for k, v in x.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, np.bool_)):
        return repr(bool(x))
    if isinstance(x, (str, type(None), float)):
        return repr(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return type(x).__name__ + canonical(vars(x))


# -- census ------------------------------------------------------------------

def census_ops():
    ops = [
        cli_op("geography", "table3"),
        cli_op("geography", "table3", "--resolutions", "all"),
        cli_op("geography", "general"),
        cli_op("geography", "general", "--filter", "rank11"),
        cli_op("geography", "general", "--filter", "rankell22"),
        cli_op("geography", "general", "--resolutions", "all"),
        cli_op("catalog", "list"),
        cli_op("catalog", "validate"),
    ]
    ops += [cli_op("catalog", "show", rid) for rid in sorted(blocks.all_catalogs().ids())]
    return ops


# -- invariants ----------------------------------------------------------------

def _torsion_linking(path):
    return tcs.torsion_linking(tcs.load_config(path, blocks.full_catalog()))


def invariants_ops():
    ops = []
    for path in sorted(glob.glob(os.path.join("configs", "*.cfg"))):
        ops.append(cli_op("invariants", "--config", path))
        ops.append(cli_op("invariants", "--config", path, "--format", "tsv"))
        ops.append(lib_op(f"tcs.torsion_linking {path}", _torsion_linking, path))
    return ops


# -- certify -------------------------------------------------------------------

EMBED_CASES = (
    # (file, search bound or None): library placement, criterion, two
    # backtracking hits, and one search that exhausts its bound
    ("library_4_4.gram", None),
    ("criterion_40_1_-2.gram", 2),
    ("backtrack_rank3_a.gram", 2),
    ("backtrack_rank3_b.gram", 2),
    ("exhaust_sig22.gram", 1),
)


def _rank1_ids():
    return sorted(blocks.rank1_catalog().ids())


def rank1_pairs():
    ids = _rank1_ids()
    return [(a, b) for i, a in enumerate(ids) for b in ids[i:]]


def _perp(plus, minus):
    return cli_op("match", "--plus", plus, "--minus", minus, "--mode", "perp")


def certify_fixed_ops():
    ops = [_perp("Ex7.7", rid) for rid in _rank1_ids()]
    ops += [_perp(a, b) for a, b in (("Ex7.6", "Ex7.6"), ("Ex7.3", "MM2-10"),
                                     ("Ex7.9", "Ex7.10"), ("Ex7.10", "Ex7.11"))]
    orth = ("match", "--plus", "Ex7.4", "--minus", "Ex7.4", "--mode", "orth", "--r", "[[-12]]")
    ops += [cli_op(*orth), cli_op(*orth, "--assert-ample"),
            cli_op("match", "--plus", "MM2-6", "--minus", "MM2-6", "--mode", "orth",
                   "--r", "[[-4]]", "--assert-ample"),
            cli_op("match", "--plus", "7.1_4^1", "--minus", "7.1_4^1", "--mode", "perp-over"),
            cli_op("pushout", "--plus", "MM2-6", "--minus", "MM2-6", "--r", "[[-4]]")]
    for fname, bound in EMBED_CASES:
        argv = ["embed", "--w", os.path.join(GRAM_DIR, fname)]
        if bound is not None:
            argv += ["--search-bound", str(bound)]
        ops.append(cli_op(*argv))
    return ops


def certify_ops(rng):
    pairs = rng.sample(rank1_pairs(), CERTIFY_PAIR_SAMPLE)
    return certify_fixed_ops() + [_perp(a, b) for a, b in pairs]


# -- forms ---------------------------------------------------------------------
# Input pools are fixed (seeded by pool index, not by the workload seed) so the
# output gate can record every input a workload seed may pick.  Every input
# stays on the exact path: metric_from_3form only sees forms whose volume is
# rational, and su3_from_unit_vector only rational unit vectors.

def _rational_vector(rng):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)]


def _unit(i):
    return [1 if k == i else 0 for k in range(7)]


def _combination(rng, basis):
    """Rows spanning the same plane as ``basis``: an invertible triangular mix."""
    k = len(basis)
    rows = []
    for i in range(k):
        coeffs = [Fraction(0)] * k
        coeffs[i] = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.randint(1, 3))
        for j in range(i + 1, k):
            coeffs[j] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        rows.append([sum(c * b[n] for c, b in zip(coeffs, basis)) for n in range(7)])
    return rows


def _calibrated_or_random(rng, form, index):
    """Even pool slots span a calibrated plane of ``form``; odd slots are random."""
    if index % 2 == 0:
        term = rng.choice(sorted(form.coeffs))
        return _combination(rng, [_unit(i) for i in term])
    return [_rational_vector(rng) for _ in range(form.degree)]


# (a, b, c, d) with a^2 + b^2 + c^2 = d^2
PYTHAGOREAN_QUADRUPLES = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9),
                          (2, 6, 9, 11), (6, 6, 7, 11))


def _unit_vector(rng):
    """A rational unit vector with three nonzero coordinates (similar cost for every slot)."""
    a, b, c, d = rng.choice(PYTHAGOREAN_QUADRUPLES)
    v = [Fraction(0)] * 7
    for pos, x in zip(rng.sample(range(7), 3), (a, b, c)):
        v[pos] = Fraction(rng.choice((1, -1)) * x, d)
    return v


def _exact_3form(rng):
    """c^3 * M^* phi0 with M rational upper triangular with four entries above
    the diagonal: det B is then a 9th power, so the volume is rational."""
    c = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) ** 3
    M = [[Fraction(0)] * 7 for _ in range(7)]
    for i in range(7):
        M[i][i] = Fraction(rng.choice((1, -1, 2)), rng.choice((1, 2)))
    above = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    for i, j in rng.sample(above, 4):
        M[i][j] = Fraction(rng.choice((1, -1, 2, -2)), rng.randint(1, 3))
    return c * g2alg.pullback(g2alg.phi0(), M)


def forms_pool(kind, index):
    """Arguments for g2alg.<kind> in pool slot ``index``; independent of the workload seed."""
    rng = random.Random(f"{kind}/{index}")
    if kind == "cross":
        return (_rational_vector(rng), _rational_vector(rng))
    if kind == "chi":
        return tuple(_rational_vector(rng) for _ in range(3))
    if kind == "is_associative":
        return tuple(_calibrated_or_random(rng, g2alg.phi0(), index))
    if kind == "is_coassociative":
        return tuple(_calibrated_or_random(rng, g2alg.psi0(), index))
    if kind == "su3_from_unit_vector":
        return (g2alg.phi0(), _unit_vector(rng))
    if kind == "metric_from_3form":
        return (_exact_3form(rng),)
    raise ValueError(kind)


def _g2alg_call(kind, *args):
    # looked up on every call, so that a traced pass calls the wrapper
    return getattr(g2alg, kind)(*args)


def _forms_op(kind, index):
    return lib_op(f"g2alg.{kind} #{index}", _g2alg_call, kind, *forms_pool(kind, index))


def _g2_verify(seed):
    return cli_op("g2", "verify", "--samples", str(G2_VERIFY_SAMPLES), "--seed", str(seed))


def forms_ops(rng):
    # half of each sample from the even pool slots and half from the odd ones,
    # so that every seed runs as many calibrated as random planes
    ops = [_g2_verify(rng.randrange(G2_VERIFY_SEEDS))]
    for kind, count in FORMS_CALLS.items():
        for parity in (0, 1):
            slots = rng.sample(range(parity, POOL_SIZE, 2), count // 2)
            ops += [_forms_op(kind, i) for i in slots]
    return ops


# -- entry points --------------------------------------------------------------

def pass_ops(workload, seed):
    """The ops of one pass of ``workload`` under ``seed`` (order not yet shuffled)."""
    rng = random.Random(seed)
    if workload == "census":
        return census_ops()
    if workload == "invariants":
        return invariants_ops()
    if workload == "certify":
        return certify_ops(rng)
    if workload == "forms":
        return forms_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload):
    """Every op any seed of ``workload`` can run."""
    if workload == "census":
        return census_ops()
    if workload == "invariants":
        return invariants_ops()
    if workload == "certify":
        return certify_fixed_ops() + [_perp(a, b) for a, b in rank1_pairs()]
    if workload == "forms":
        ops = [_g2_verify(s) for s in range(G2_VERIFY_SEEDS)]
        ops += [_forms_op(kind, i) for kind in FORMS_CALLS for i in range(POOL_SIZE)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")
