import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tcslat import cli

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
    # four positive directions: criterion silent, search exhausts, honest Unknown
    f3 = tmp_path / "w3.gram"
    f3.write_text("gram = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]\n")
    code, out, _ = run(["embed", "--w", str(f3), "--search-bound", "1"])
    assert code == 1
    assert "Unknown" in out


def test_unknown_flag_rejected():
    code, _, _ = run(["geography", "table3", "--bogus"])
    assert code == 2


def test_usage_error_exit2():
    code, _, _ = run(["match", "--plus", "Ex7.4", "--minus", "Ex7.4", "--mode", "orth"])
    assert code == 2
