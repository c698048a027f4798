import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest

from tcslat import blocks, cli, embed
from tcslat import exactalg as xa
from tcslat import lattice as lat

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_geography_table3_first_row():
    code, out, _ = run(["geography", "table3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "48\t6\t4\t0\t1\t1\t0\t0"
    assert "distinct_b = 46" in out
    assert "distinct_types = 82" in out


def test_geography_table3_byte_identical_across_runs():
    _, out1, _ = run(["geography", "table3"])
    _, out2, _ = run(["geography", "table3"])
    assert out1 == out2


def test_geography_human_format():
    code, out, _ = run(["geography", "table3", "--format", "human"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["b", "count", "d4", "d8", "d12", "d16", "d24", "d48"]
    assert lines[2].split() == ["48", "6", "4", "0", "1", "1", "0", "0"]


def test_geography_general_filter():
    code, out, _ = run(["geography", "general", "--filter", "rank11"])
    assert code == 0
    assert "pairs = " in out


def test_match_ample_cone_unasserted_exit1():
    code, out, _ = run(["match", "--plus", "Ex7.4", "--minus", "Ex7.4",
                        "--mode", "orth", "--r", "[[-12]]"])
    assert code == 1
    assert "AmpleConeUnasserted" in out


def test_match_with_assertion_succeeds():
    code, out, _ = run(["match", "--plus", "Ex7.4", "--minus", "Ex7.4",
                        "--mode", "orth", "--r", "[[-12]]", "--assert-ample"])
    assert code == 0
    assert "mode = orthogonal" in out
    assert "triple_norms" in out


def test_match_perp():
    code, out, _ = run(["match", "--plus", "7.1_4^1", "--minus", "7.1_22^1", "--mode", "perp"])
    assert code == 0
    assert "emb_plus = " in out


def test_match_obstructed_pair_exit1():
    code, out, _ = run(["match", "--plus", "Ex7.7", "--minus", "7.1_2^1", "--mode", "perp"])
    assert code == 1
    assert "EmbeddingImpossible" in out


def test_g2_verify():
    code, out, _ = run(["g2", "verify", "--samples", "5", "--seed", "1"])
    assert code == 0
    assert "all identities hold" in out
    code, out, _ = run(["g2", "verify", "--samples", "0"])
    assert code == 0
    assert "triples_checked = 343" in out  # basis triples only


def test_main_builds_its_parser_once_and_dispatches_by_name(monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    argv = ["g2", "verify", "--samples", "3", "--seed", "2"]
    first, second = run(argv), run(argv)
    assert first == second and first[0] == 0
    assert builds == [1]
    seen = []
    monkeypatch.setattr(cli, "cmd_g2", lambda args: seen.append(args.samples) or 0)
    assert run(argv) == (0, "", "")
    assert seen == [3]


def test_invariants_config():
    path = os.path.join(CONFIG_DIR, "no8.cfg")
    code, out, _ = run(["invariants", "--config", path])
    assert code == 0
    assert "tor_h3 = 4x4" in out
    code, out, _ = run(["invariants", "--config", path, "--format", "tsv"])
    assert code == 0
    assert out.splitlines()[0].startswith("config\tpi1_trivial")


def test_catalog_commands():
    code, out, _ = run(["catalog", "list"])
    assert code == 0
    assert "7.1_4^1" in out and "polytope-3282" in out
    code, out, _ = run(["catalog", "show", "Ex7.6"])
    assert code == 0
    assert "gram = [[0, 4], [4, 4]]" in out
    code, out, _ = run(["catalog", "validate"])
    assert code == 0
    code, out, err = run(["catalog", "show", "nope"])
    assert code == 1


def test_pushout_command():
    code, out, _ = run(["pushout", "--plus", "MM2-6", "--minus", "MM2-6", "--r", "[[-4]]"])
    assert code == 0
    assert "rank = 3" in out
    assert "signature = (2, 1)" in out


def test_pushout_failure_exit1():
    # the self-gluing along <-36> of the quartic-with-a-line block is non-integral;
    # build it via a user catalog file
    import tempfile

    rec = """schema = 1

id = line-quartic
kind = semifano_small_res
minus_k3 = 4
gram = [[4, 1], [1, -2]]
A = [1, 0]
b3_Z = 10
rk_K = 0
div_c2 = {2}
e = 0
"""
    with tempfile.NamedTemporaryFile("w", suffix=".blocks", delete=False) as fh:
        fh.write(rec)
        path = fh.name
    code, out, _ = run(["--catalog", path, "pushout", "--plus", "line-quartic",
                        "--minus", "line-quartic", "--r", "[[-36]]"])
    os.unlink(path)
    assert code == 1
    assert "IntegralityFailure" in out
    assert "-9/4" in out


@pytest.mark.parametrize("argv", [
    ["match", "--plus", "7.1_4^1", "--minus", "7.1_4^1", "--mode", "orth", "--r", "[[-4]]"],
    ["pushout", "--plus", "7.1_4^1", "--minus", "7.1_4^1", "--r", "[[-4]]"],
])
def test_no_r_vector_within_search_bound_exit1(argv):
    # N = <4> is positive definite: neither side has a vector of norm -4
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["no primitive vector of norm -4 within bound 6"] * 2


def test_embed_command(tmp_path):
    f = tmp_path / "w.gram"
    f.write_text("gram = [[4, 0], [0, 4]]\n")
    code, out, _ = run(["embed", "--w", str(f)])
    assert code == 0
    assert "primitive = True" in out
    # construction out of reach at the bound, but the criterion still certifies
    f2 = tmp_path / "w2.gram"
    f2.write_text("gram = [[40, 1], [1, -2]]\n")
    code, out, _ = run(["embed", "--w", str(f2), "--search-bound", "2"])
    assert code == 0
    assert "ExistsPrimitiveByCriterion" in out
    # 4x<-2>, signature (0, 4), cannot sit in the 3U of the search, whose
    # signature is (3, 3): the search gives up at once and the criterion decides
    f5 = tmp_path / "w5.gram"
    f5.write_text("gram = [[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]\n")
    code, out, _ = run(["embed", "--w", str(f5)])
    assert code == 0
    assert out == "verdict = ExistsPrimitiveByCriterion (i)\nunique = True\n"
    # four positive directions exceed the three of the K3 lattice; an odd W
    # cannot sit in an even lattice
    for gram in ("[[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]", "[[1]]"):
        f3 = tmp_path / "w3.gram"
        f3.write_text(f"gram = {gram}\n")
        code, out, _ = run(["embed", "--w", str(f3), "--search-bound", "1"])
        assert code == 1
        assert out == "verdict = ImpossibleByNecessary\n"
    # <2>^2 + <-2>^8 + U: rank 12, signature (3, 9), l = 10; both criteria are
    # silent and rank 12 is beyond the search, an honest Unknown
    diag = [2, 2] + [-2] * 8
    rows = [[d if j == i else 0 for j in range(12)] for i, d in enumerate(diag)]
    rows += [[0] * 10 + [0, 1], [0] * 10 + [1, 0]]
    f4 = tmp_path / "w4.gram"
    f4.write_text(f"gram = {rows}\n")
    code, out, _ = run(["embed", "--w", str(f4)])
    assert code == 1
    assert out == "verdict = Unknown\n"


def test_unknown_flag_rejected():
    code, _, _ = run(["geography", "table3", "--bogus"])
    assert code == 2


def test_usage_error_exit2():
    code, _, _ = run(["match", "--plus", "Ex7.4", "--minus", "Ex7.4", "--mode", "orth"])
    assert code == 2


RECORD = """schema = 1

id = user-block
kind = semifano_small_res
minus_k3 = 4
gram = [[4, 1], [1, -2]]
A = [1, 0]
b3_Z = 10
div_c2 = {2}
"""
NO8 = open(os.path.join(CONFIG_DIR, "no8.cfg"), encoding="utf-8").read()
EMB_PLUS = "emb_plus = [[0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], " \
           "[2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]"
assert EMB_PLUS in NO8
ORTH = ["match", "--plus", "Ex7.4", "--minus", "Ex7.4", "--mode", "orth", "--assert-ample"]
PUSHOUT = ["pushout", "--plus", "MM2-6", "--minus", "MM2-6"]
GRAMLESS = "schema = 1\n\nid = user-gramless\nkind = semifano_small_res\ngramless = true\nrank = 2\nell = 1\n"
GRAMLESS_MATCH = ["--catalog", "{}", "match", "--plus", "user-gramless", "--minus", "7.1_4^1", "--mode"]
GRAMLESS_MINUS = ["--catalog", "{}", "match", "--plus", "7.1_4^1", "--minus", "user-gramless", "--mode"]
GLUE_INDEX = ["match", "--plus", "7.1_4^1", "--minus", "7.1_4^1", "--mode", "perp-over", "--glue-index"]

MALFORMED = {
    # (file name, file text or None for a missing file, argv with {} for the file path)
    "w-no-equals": ("w.gram", "gram [[4]]\n", ["embed", "--w", "{}"]),
    "w-no-gram": ("w.gram", "rank = 1\n", ["embed", "--w", "{}"]),
    "w-gram-int": ("w.gram", "gram = 5\n", ["embed", "--w", "{}"]),
    "w-gram-empty": ("w.gram", "gram = []\n", ["embed", "--w", "{}"]),
    "w-gram-asymmetric": ("w.gram", "gram = [[4, 1], [0, 4]]\n", ["embed", "--w", "{}"]),
    "w-gram-degenerate": ("w.gram", "gram = [[0]]\n", ["embed", "--w", "{}"]),
    "w-missing": ("w.gram", None, ["embed", "--w", "{}"]),
    "config-missing": ("x.cfg", None, ["invariants", "--config", "{}"]),
    "catalog-missing": ("x.blocks", None, ["--catalog", "{}", "catalog", "list"]),
    "config-duplicate-key": ("x.cfg", NO8 + "block_minus = Ex7.6\n", ["invariants", "--config", "{}"]),
    "config-emb-width": ("x.cfg", NO8.replace(EMB_PLUS, "emb_plus = [[0, 1], [2, 1]]"),
                         ["invariants", "--config", "{}"]),
    "config-emb-int": ("x.cfg", NO8.replace(EMB_PLUS, "emb_plus = 3"), ["invariants", "--config", "{}"]),
    "catalog-gram-asymmetric": ("x.blocks", RECORD.replace("[[4, 1], [1, -2]]", "[[4, 1], [0, -2]]"),
                                ["--catalog", "{}", "catalog", "list"]),
    "catalog-gram-int": ("x.blocks", RECORD.replace("[[4, 1], [1, -2]]", "4"),
                         ["--catalog", "{}", "catalog", "list"]),
    "catalog-A-length": ("x.blocks", RECORD.replace("A = [1, 0]", "A = [1, 0, 0]"),
                         ["--catalog", "{}", "catalog", "list"]),
    "catalog-div-c2-int": ("x.blocks", RECORD.replace("div_c2 = {2}", "div_c2 = 5"),
                           ["--catalog", "{}", "catalog", "list"]),
    "catalog-div-c2-str": ("x.blocks", RECORD.replace("div_c2 = {2}", "div_c2 = ['a']"),
                           ["--catalog", "{}", "catalog", "list"]),
    "catalog-rk-K-str": ("x.blocks", RECORD + "rk_K = 'x'\n", ["--catalog", "{}", "catalog", "list"]),
    "catalog-e-str": ("x.blocks", RECORD + "e = 'x'\n", ["--catalog", "{}", "catalog", "list"]),
    "catalog-div-c2-mod-Aperp-str": ("x.blocks", RECORD + "div_c2_mod_Aperp = 'y'\n",
                                     ["--catalog", "{}", "catalog", "list"]),
    "catalog-id-int": ("x.blocks", RECORD.replace("id = user-block", "id = 5"),
                       ["--catalog", "{}", "catalog", "list"]),
    "catalog-id-list": ("x.blocks", RECORD.replace("id = user-block", "id = [[]]"),
                        ["--catalog", "{}", "catalog", "list"]),
    "catalog-kind-list": ("x.blocks", RECORD.replace("kind = semifano_small_res", "kind = []"),
                          ["--catalog", "{}", "catalog", "list"]),
    "catalog-gramless-no": ("g.blocks", GRAMLESS.replace("gramless = true", "gramless = no"),
                            ["--catalog", "{}", "catalog", "show", "user-gramless"]),
    "catalog-gramless-int": ("g.blocks", GRAMLESS.replace("gramless = true", "gramless = 1"),
                             ["--catalog", "{}", "catalog", "list"]),
    "gramless-disc-int": ("g.blocks", GRAMLESS + "disc = 5\n", ["--catalog", "{}", "catalog", "list"]),
    "gramless-rank-list": ("g.blocks", GRAMLESS.replace("rank = 2", "rank = []"),
                           ["--catalog", "{}", "geography", "general", "--filter", "rankell22"]),
    "gramless-ell-list": ("g.blocks", GRAMLESS.replace("ell = 1", "ell = [[]]"),
                          ["--catalog", "{}", "geography", "general", "--filter", "rankell22"]),
    "config-ample-no": ("x.cfg", NO8 + "ample_cone_asserted = no\n", ["invariants", "--config", "{}"]),
    "config-ample-int": ("x.cfg", NO8 + "ample_cone_asserted = 0\n", ["invariants", "--config", "{}"]),
    "config-div-pair-int": ("x.cfg", NO8 + "div_c2_mod_image = 5\n", ["invariants", "--config", "{}"]),
    "config-div-pair-short": ("x.cfg", NO8 + "div_c2_mod_image = [1]\n", ["invariants", "--config", "{}"]),
    "config-div-pair-str": ("x.cfg", NO8 + "div_c2_mod_image = ['a', 'b']\n",
                            ["invariants", "--config", "{}"]),
    "config-literal-true": ("x.cfg", NO8.replace("block_plus = Ex7.6", "block_plus = [true]"),
                            ["invariants", "--config", "{}"]),
    "config-block-plus-list": ("x.cfg", NO8.replace("block_plus = Ex7.6", "block_plus = [1]"),
                               ["invariants", "--config", "{}"]),
    "config-block-minus-dict": ("x.cfg", NO8.replace("block_minus = Ex7.6", "block_minus = {1: 2}"),
                                ["invariants", "--config", "{}"]),
    "config-block-plus-int": ("x.cfg", NO8.replace("block_plus = Ex7.6", "block_plus = 5"),
                              ["invariants", "--config", "{}"]),
    "config-resolution-list": ("x.cfg", NO8 + "resolution_plus = [4]\n", ["invariants", "--config", "{}"]),
    "r-int": (None, None, PUSHOUT + ["--r", "5"]),
    "r-not-square": (None, None, PUSHOUT + ["--r", "[[1,2]]"]),
    "r-unclosed": (None, None, PUSHOUT + ["--r", "[[-4"]),
    "r-rank-2": (None, None, ORTH + ["--r", "[[-4,0],[0,-4]]"]),
    "r-positive": (None, None, ORTH + ["--r", "[[2]]"]),
    "pushout-bound-0": (None, None, PUSHOUT + ["--r", "[[-4]]", "--search-bound", "0"]),
    "match-bound-0": (None, None, ORTH + ["--r", "[[-12]]", "--search-bound", "0"]),
    "match-gramless-perp": ("g.blocks", GRAMLESS, GRAMLESS_MATCH + ["perp"]),
    "match-gramless-perp-over": ("g.blocks", GRAMLESS, GRAMLESS_MATCH + ["perp-over"]),
    "match-gramless-orth": ("g.blocks", GRAMLESS, GRAMLESS_MATCH + ["orth", "--r", "[[-4]]"]),
    "match-gramless-minus": ("g.blocks", GRAMLESS, GRAMLESS_MINUS + ["perp"]),
    "match-gramless-minus-orth": ("g.blocks", GRAMLESS, GRAMLESS_MINUS + ["orth", "--r", "[[-4]]"]),
    "glue-index-0": (None, None, GLUE_INDEX + ["0"]),
    "glue-index-1": (None, None, GLUE_INDEX + ["1"]),
    "glue-index-negative": (None, None, GLUE_INDEX + ["-3"]),
    "g2-samples-negative": (None, None, ["g2", "verify", "--samples", "-3"]),
    "catalog-show-no-id": (None, None, ["catalog", "show"]),
    "catalog-list-id": (None, None, ["catalog", "list", "7.1_4^1"]),
    "catalog-validate-id": (None, None, ["catalog", "validate", "7.1_4^1"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit2_one_error_line(case, tmp_path):
    name, text, argv = MALFORMED[case]
    path = tmp_path / name if name else None
    if text is not None:
        path.write_text(text)
    code, out, err = run([str(path) if a == "{}" else a for a in argv])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    # the same on every run: no memory address, as literal_eval's messages give for a rejected node
    assert not re.search(r"0x[0-9a-f]{6,}", err), err


@pytest.mark.parametrize("argv", [
    ["match", "--plus", "Ex7.99", "--minus", "Ex7.4", "--mode", "perp"],
    ["pushout", "--plus", "MM2-6", "--minus", "nope", "--r", "[[-4]]"],
    ["catalog", "show", "nope"],
])
def test_unknown_id_exit1(argv):
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("unknown id: ")


def test_cli_runs_without_numpy():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, tcslat.cli; tcslat.blocks.all_catalogs(); assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_catalog_option_leaves_the_shared_catalog_unchanged(tmp_path):
    f = tmp_path / "extra.blocks"
    f.write_text(RECORD)
    code, out, _ = run(["--catalog", str(f), "match", "--plus", "user-block", "--minus", "7.1_4^1", "--mode", "perp"])
    assert code in (0, 1) and out
    assert "user-block" not in blocks.full_catalog().ids()
    assert "user-block" not in blocks.all_catalogs().ids()


def test_checked_rows_are_not_checked_again(monkeypatch):
    # during an invariants op and a perp match op, count the entries that `frozen` (the check
    # under `mat` and every kernel) passes to operator.index in each call: none of them may
    # come from a row held by a Lattice Gram, a Sublattice basis or a record Gram
    made, calls = [], []
    for cls in (lat.Lattice, lat.Sublattice):
        def init(self, *args, _init=cls.__init__):
            _init(self, *args)
            made.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    real_index, real_frozen, checked = xa.index, xa.frozen, [0]

    def index(x):
        checked[0] += 1
        return real_index(x)

    def frozen(rows):
        rows, before = list(rows), checked[0]
        out = real_frozen(rows)
        calls.append((rows, checked[0] - before))
        return out
    monkeypatch.setattr(xa, "index", index)
    monkeypatch.setattr(xa, "frozen", frozen)
    for argv in (["invariants", "--config", os.path.join(CONFIG_DIR, "no10.cfg")],
                 ["match", "--plus", "7.1_10^1", "--minus", "7.1_4^1", "--mode", "perp"]):
        assert run(argv)[0] == 0
    held = [obj.gram if isinstance(obj, lat.Lattice) else obj.basis for obj in made]
    held += [embed.k3_lattice().gram] + [rec.n_gram for rec in blocks.all_catalogs() if not rec.gramless]
    held_ids = {id(row) for rows in held for row in rows}
    shared = 0
    for rows, n in calls:
        unheld = sum(len(row) for row in rows if id(row) not in held_ids)
        assert n <= unheld, (n, unheld)
        shared += any(id(row) in held_ids for row in rows)
    assert shared > 20  # the kernels do read held rows, so the bound above can fail


# the input fuzz: each literal is written as a whole value, `key = <literal>`
FUZZ_LITERALS = ("0", "-1", "1", "7" + "0" * 40, "2.5", "true", "false", "x", "", "[]", "[[]]", "[1, 2]",
                 "[[4]]", "[[1, 2], [3]]", "[2.5]", "['a']", "{}", "{2}", "{2.5}", "{1: 2}", "()", "(1, 2)")


def _raw_pairs(text, rid=None):
    """The `key = value` pairs, values as written, of the record of id `rid` in a table's
    text, or of all of a one-record file's text when `rid` is None."""
    for block in [text] if rid is None else text.split("\n\n"):
        pairs = {}
        for line in block.splitlines():
            if line.strip() and not line.startswith("#"):
                key, _, raw = line.partition("=")
                pairs[key.strip()] = raw.strip()
        if rid is None or pairs.get("id") == rid:
            return pairs


def _mutations(pairs, table):
    """`pairs` with one key of it or of `table` set to each fuzz literal, or dropped when present."""
    for key in dict.fromkeys([*pairs, *table]):
        for value in FUZZ_LITERALS + ((None,) if key in pairs else ()):
            yield {k: v for k, v in {**pairs, key: value}.items() if v is not None}


def _render(*records):
    return "\n".join("".join(f"{k} = {v}\n" for k, v in rec.items()) for rec in records)


def _fuzz_outcome(argv):
    """None when `cli.main(argv)` keeps the exit-code contract, else what broke it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return f"raised {type(exc).__name__}: {exc}"
    out, err = out.getvalue(), err.getvalue()
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    # only the shape of an error is checked: a set's repr in it depends on the hash seed
    if code == 2 and (out or len(err.splitlines()) != 1 or not err.startswith("error:") or "0x" in err):
        return f"exit 2 with stdout {out[:80]!r} and stderr {err[:200]!r}"
    return None


def test_fuzzed_input_fields_keep_the_exit_code_contract(tmp_path):
    # every key of the field tables and of a rank-1, a rank-2 and a gramless record, a catalog
    # header, a gluing config and a W file, set to each fuzz literal or dropped: `cli.main` raises
    # nothing, exits 0, 1 or 2, and exit 2 is one `error:` line on stderr with nothing on stdout
    tables = resources.files("tcslat").joinpath("tables")
    header = {"schema": "1", "table": "fuzz"}
    bases = [dict(_raw_pairs(tables.joinpath(name).read_text(encoding="utf-8"), rid), id=f"fuzz-{rid}")
             for name, rid in (("rank1.blocks", "7.1_4^1"), ("rank2.blocks", "MM2-6"),
                               ("table6.polytopes", "polytope-3282"))]
    catalogs = [(base["id"], _render(header, rec))
                for base in bases for rec in _mutations(base, blocks.RECORD_FIELDS)]
    catalogs += [(bases[0]["id"], _render(head, bases[0])) for head in _mutations(header, {})]
    no2b = _raw_pairs(open(os.path.join(CONFIG_DIR, "no2b.cfg"), encoding="utf-8").read())
    configs = [_render(cfg) for cfg in _mutations(no2b, blocks.CONFIG_FIELDS)]
    grams = [_render(w) for w in _mutations({"gram": "[[4, 0], [0, 4]]"}, {})]
    sample = set(random.Random(0).sample(range(len(catalogs)), 120))

    runs = []
    for i, (rid, text) in enumerate(catalogs):
        path = tmp_path / f"c{i}.blocks"
        path.write_text(text)
        cat = ["--catalog", str(path)]
        runs += [(text, cat + ["catalog", "validate"]), (text, cat + ["catalog", "show", rid])]
        if i in sample:
            runs += [(text, cat + ["catalog", "list"]),
                     (text, cat + ["match", "--plus", rid, "--minus", "7.1_4^1", "--mode", "perp"])]
            if i % 4 == 0:
                runs.append((text, cat + ["geography", "general", "--filter", "rankell22"]))
    for i, text in enumerate(configs):
        path = tmp_path / f"x{i}.cfg"
        path.write_text(text)
        runs.append((text, ["invariants", "--config", str(path), "--format", ("human", "tsv")[i % 2]]))
    for i, text in enumerate(grams):
        path = tmp_path / f"w{i}.gram"
        path.write_text(text)
        runs.append((text, ["embed", "--w", str(path), "--search-bound", "1"]))

    failures = [(argv[-3:], text, broke) for text, argv in runs if (broke := _fuzz_outcome(argv))]
    assert not failures, f"{len(failures)} of {len(runs)} runs broke the contract, first: {failures[:3]}"
    assert len(runs) > 2000


def test_config_unknown_block_exit1(tmp_path):
    f = tmp_path / "x.cfg"
    f.write_text(NO8.replace("block_plus = Ex7.6", "block_plus = Ex7.99"))
    code, out, err = run(["invariants", "--config", str(f)])
    assert code == 1
    assert err == "unknown id: 'Ex7.99'\n"


GEOGRAPHY_ALL = ["-m", "tcslat.cli", "geography", "general", "--resolutions", "all"]


def _cli_env(**extra):
    return dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"), **extra)


def test_stdout_closed_after_one_line_exits_quietly():
    # `tcslat geography general --resolutions all | head -1`; unbuffered, the
    # writes after the first line hit the closed pipe unless they won the race
    proc = subprocess.Popen([sys.executable, *GEOGRAPHY_ALL], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_cli_env(PYTHONUNBUFFERED="1"))
    assert proc.stdout.readline().startswith(b"b\tcount")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) in (0, 1)
    assert err == b""


def test_stdout_closed_before_output_exits_1_quietly():
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, *GEOGRAPHY_ALL], stdout=w, stderr=subprocess.PIPE,
                              env=_cli_env(), timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, b"")
