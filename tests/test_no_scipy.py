"""The package imports and runs with scipy blocked."""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import sys
sys.modules["scipy"] = None         # every import of scipy now fails
import qbrownian
import qbrownian.cli as cli
qbrownian.moments(1.0, 1.0)
qbrownian.spectral_energy(0.5, 2.0)
code = cli.main(["curve", "--model", "oscillator", "--quantities", "C,S,E",
                 "--points", "3", "--out", sys.argv[1]])
assert code == 0, code
assert sys.modules.pop("scipy") is None
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_package_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "curve.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curve.csv").read_text().count("\n") >= 4
