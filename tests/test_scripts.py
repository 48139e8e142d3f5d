"""The repository's scripts run against the package as it stands."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_repr_dump_runs_quietly():
    # the dump is the bit-identity check of a refactor: it must still import
    # the private names it calls, and write nothing but its lines, so that a
    # warning or a traceback cannot hide among thousands of them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "default", os.path.join(ROOT, "scripts", "repr_dump.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.count("\n") > 1000
