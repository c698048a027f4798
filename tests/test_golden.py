"""Replay the frozen CLI corpus: stdout and exit code must match byte for byte.

The corpus is written by tools/make_golden.py; regenerate it only when a change
to the output is intended."""

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
