"""The scripts under ``examples/`` run to completion against the library."""

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_every_example_script_exits_zero():
    assert len(EXAMPLES) == 3
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    for script in EXAMPLES:
        done = subprocess.run(
            [sys.executable, str(script)], cwd=REPO_ROOT, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, f"{script.name} exited {done.returncode}:\n{done.stderr}"
        assert done.stdout, f"{script.name} printed nothing"
