"""``tools.work_proxy``: the count is a function of the seed, not the host."""

import pathlib
import platform
import subprocess
import sys

import numpy

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_same_seed_in_two_fresh_processes_counts_the_same_calls():
    cmd = [sys.executable, "-m", "tools.work_proxy", "--smoke", "--workload", "serve_reads"]
    first, second = (
        subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    )
    assert first == second
    assert first.startswith("serve_reads") and "calls=" in first and "failed=0" in first
    assert " gc=" in first  # collector passes, counted without the profile hook
    # The count depends on the interpreter and on numpy too, so each
    # line names both.
    versions = f" py={platform.python_version()} np={numpy.__version__}"
    assert all(line.endswith(versions) for line in first.splitlines())
