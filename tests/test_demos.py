import glob
import os
import subprocess
import sys

import pytest

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "demos")


@pytest.mark.parametrize("script", sorted(glob.glob(os.path.join(DEMO_DIR, "0*.py"))),
                         ids=os.path.basename)
def test_demo_runs(script):
    """Each demo's stdout matches its frozen copy, written by tools/make_golden.py."""
    # the demo runs as its own process, so src/ goes on its import path here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    name = os.path.splitext(os.path.basename(script))[0] + ".txt"
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
