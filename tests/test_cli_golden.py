"""Byte-for-byte golden outputs of the canonical CLI commands.

Each case runs main() on a short grid and compares every file it writes with
a stored copy in tests/golden/.  A refactor must leave these bytes unchanged;
a change that alters output on purpose regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py

and states the change.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

import pytest

from qbrownian.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> (argv without --out, files written relative to the --out target)
CASES = {
    "curve_osc_ohmic_cse": (
        ["curve", "--model", "oscillator", "--alpha", "1", "--route", "both",
         "--quantities", "C,S,E", "--log", "--tmin", "0.01", "--tmax", "10",
         "--points", "6"], [".csv"]),
    "curve_osc_drude_both": (
        ["curve", "--model", "oscillator", "--kernel", "drude",
         "--cutoff-ratio", "10", "--route", "both", "--quantities", "C,E",
         "--log", "--tmin", "0.1", "--tmax", "5", "--points", "5"], [".csv"]),
    "curve_free_drude_ce": (
        ["curve", "--model", "free", "--kernel", "drude", "--cutoff-ratio", "10",
         "--quantities", "C,E", "--log", "--tmin", "0.05", "--tmax", "5",
         "--points", "6"], [".csv"]),
    "curve_free_drude_both": (
        ["curve", "--model", "free", "--kernel", "drude", "--cutoff-ratio", "0.1",
         "--route", "both", "--quantities", "C,S,E", "--log", "--tmin", "1e-3",
         "--tmax", "1", "--points", "6"], [".csv"]),
    "fig1": (["fig1", "--points", "7"], ["_main.csv", "_inset.csv"]),
    "compare_free_ohmic": (
        ["compare", "--model", "free", "--tmin", "0.5", "--tmax", "2",
         "--points", "5"], [".json"]),
    "compare_osc_drude": (
        ["compare", "--model", "oscillator", "--kernel", "drude",
         "--cutoff-ratio", "10", "--log", "--tmin", "0.2", "--tmax", "5",
         "--points", "5"], [".json"]),
    "expansions_osc": (
        ["expansions", "--model", "oscillator", "--alpha", "0.5",
         "--tmin", "0.01", "--tmax", "20", "--points", "8"], [".csv"]),
    "expansions_free": (
        ["expansions", "--model", "free", "--tmin", "0.005", "--tmax", "0.1",
         "--points", "6"], [".csv"]),
}


def run_case(name: str, outdir: pathlib.Path) -> dict[str, bytes]:
    """Run one case into outdir and return {golden file name: bytes}."""
    argv, suffixes = CASES[name]
    # fig1 takes an output prefix, the other commands a file name
    out = str(outdir / name) + ("" if argv[0] == "fig1" else suffixes[0])
    assert main(argv + ["--out", out]) == 0
    return {name + s: (outdir / (name + s)).read_bytes() for s in suffixes}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    for filename, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / filename).read_bytes(), filename


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for filename, data in run_case(case, pathlib.Path(tmp)).items():
                (GOLDEN / filename).write_bytes(data)
                print(f"wrote {GOLDEN / filename}", file=sys.stderr)
