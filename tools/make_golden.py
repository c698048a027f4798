#!/usr/bin/env python3
"""Freeze the stdout and exit code of deterministic CLI invocations into
tests/golden/corpus.json, which tests/test_golden.py replays, and the stdout
of every demo into tests/golden/demos/, which tests/test_demos.py compares.

Every case runs in-process through ``tcslat.cli.main`` with the repository
root as the working directory, so file arguments are repository-relative.
Re-running must reproduce the corpus byte-for-byte; regenerate it only when a
change to the output is intended.

    python3 tools/make_golden.py
"""

import glob
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tcslat import blocks, cli  # noqa: E402

GOLDEN = os.path.join("tests", "golden")
CORPUS = os.path.join(ROOT, GOLDEN, "corpus.json")
DEMO_GOLDEN = os.path.join(ROOT, GOLDEN, "demos")


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


def main():
    corpus = []
    for argv in cases():
        code, stdout = run(argv)
        corpus.append({"argv": argv, "exit": code, "stdout": stdout.split("\n")})
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    print(f"{len(corpus)} cases written to {os.path.relpath(CORPUS, ROOT)}")
    os.makedirs(DEMO_GOLDEN, exist_ok=True)
    for script in demo_scripts():
        name = os.path.splitext(os.path.basename(script))[0] + ".txt"
        with open(os.path.join(DEMO_GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(demo_stdout(script))
    print(f"{len(demo_scripts())} demo outputs written to {os.path.relpath(DEMO_GOLDEN, ROOT)}")


if __name__ == "__main__":
    main()
