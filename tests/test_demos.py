"""Every script in ``demos/`` runs to completion against this checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    # Every warning is an error, and one that is only printed (as a
    # ResourceWarning from a file left open is) still fails the test.
    # A demo prints nothing that changes between runs: two runs print
    # the same.
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    printed = []
    for _ in range(2):
        done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stderr == ""
        printed.append(done.stdout)
    assert printed[0] == printed[1]
