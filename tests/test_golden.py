"""Replay the frozen CLI corpus (stdout and exit code must match byte for
byte), the frozen renderings of seeded g2alg calls and the frozen torsion
linking table of every config.

Both are written by tools/make_golden.py; regenerate them only when a change
to the output is intended."""

import importlib.util
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tcslat import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")

with open(os.path.join(ROOT, "tests", "golden", "corpus.json"), encoding="utf-8") as fh:
    CORPUS = json.load(fh)


@pytest.mark.parametrize("case", CORPUS, ids=lambda c: " ".join(c["argv"]))
def test_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(case["argv"]))
        except SystemExit as exc:
            code = exc.code
    assert code == case["exit"]
    assert out.getvalue() == "\n".join(case["stdout"])


def _make_golden():
    path = os.path.join(ROOT, "tools", "make_golden.py")
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_GOLDEN = _make_golden()
G2ALG_CASES = dict(MAKE_GOLDEN.g2alg_cases())

with open(os.path.join(ROOT, "tests", "golden", "g2alg.json"), encoding="utf-8") as fh:
    G2ALG = json.load(fh)


def test_g2alg_golden_covers_every_case():
    assert list(G2ALG) == list(G2ALG_CASES)


@pytest.mark.parametrize("name", list(G2ALG))
def test_g2alg_golden(name):
    """Each seeded g2alg call renders exactly as frozen by tools/make_golden.py."""
    assert MAKE_GOLDEN.render_call(G2ALG_CASES[name]) == G2ALG[name]


LINKING_CASES = dict(MAKE_GOLDEN.linking_cases())

with open(os.path.join(ROOT, "tests", "golden", "linking.json"), encoding="utf-8") as fh:
    LINKING = json.load(fh)


def test_linking_golden_covers_every_config():
    assert list(LINKING) == list(LINKING_CASES)


@pytest.mark.parametrize("name", list(LINKING))
def test_linking_golden(name):
    """Each config's torsion linking table (orders and "n/d" values) renders
    exactly as frozen by tools/make_golden.py."""
    assert MAKE_GOLDEN.render_call(LINKING_CASES[name]) == LINKING[name]


def test_make_golden_check_names_the_first_case_that_differs(tmp_path):
    cases = {f"g2 verify --seed {k}": {"argv": ["g2", "verify", "--seed", str(k)], "exit": 0,
                                        "stdout": [f"line {k}", ""]} for k in range(3)}
    text = MAKE_GOLDEN._json(list(cases.values()))
    path = tmp_path / "corpus.json"
    assert MAKE_GOLDEN.first_difference(str(path), text, cases) == "the file is missing"
    path.write_text(text)
    assert MAKE_GOLDEN.first_difference(str(path), text, cases) is None
    path.write_text(text.replace("line 1", "line one"))
    assert MAKE_GOLDEN.first_difference(str(path), text, cases) == "g2 verify --seed 1"
    path.write_text(text.replace("\n", "\n\n", 1))
    assert MAKE_GOLDEN.first_difference(str(path), text, cases) == "same cases, different layout"
