"""End-to-end tests of the command-line interface.

Each test drives main() with an argv list and inspects the files or streams
it produces, including exit codes for usage and numerical failures.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
import pytest

import qbrownian.cli
from qbrownian.cli import main
from qbrownian.free_particle import ohmic_specific_heat
from qbrownian.matsubara import DampingKernel, PoleSum, Prescription, energy_sum
from qbrownian.oscillator import undamped_thermo


def read_csv(path):
    lines = path.read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    assert lines[1].startswith("# ")
    rows = [line.split(",") for line in lines[2:]]
    return header, lines[1], rows


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_curve_free_particle_csv(tmp_path):
    out = tmp_path / "free.csv"
    assert main(["curve", "--model", "free", "--points", "40", "--log",
                 "--tmin", "0.001", "--tmax", "50", "--out", str(out)]) == 0
    header, comment, rows = read_csv(out)
    assert header == ["theta", "C_energy"]
    assert "model=free" in comment and "version=" in comment
    assert len(rows) == 40
    heats = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(heats, heats[1:]))
    # the classical plateau is approached like 1/(2 pi theta)
    assert heats[-1] == pytest.approx(0.5, abs=2.0 / (2.0 * math.pi * 50.0))


def test_curve_free_particle_at_critical_cutoff(tmp_path):
    # r = 4 makes the Drude pair degenerate; the closed form's confluent
    # limit holds down to the grid's low end and matches the pole form
    out = tmp_path / "critical.csv"
    assert main(["curve", "--model", "free", "--kernel", "drude",
                 "--cutoff-ratio", "4", "--tmin", "0.01", "--tmax", "1",
                 "--points", "5", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    poles = PoleSum(0.0, DampingKernel.drude(1.0, 4.0), Prescription.ENERGY)
    assert len(rows) == 5
    for theta, heat in rows:
        assert float(heat) == pytest.approx(poles.heat(float(theta)), abs=1e-11)


def test_curve_values_round_trip_exactly(tmp_path):
    out = tmp_path / "free.csv"
    main(["curve", "--model", "free", "--points", "5", "--out", str(out)])
    _, _, rows = read_csv(out)
    for row in rows:
        theta = float(row[0])
        # 17 significant digits reproduce the double bit for bit
        assert float(row[1]) == ohmic_specific_heat(theta).C


@pytest.mark.parametrize("extra, header, c_abs", [
    (["--quantities", "C,S,E"], ["theta", "C_energy", "S", "E"], 1e-12),
    # zero coupling leaves no bath to cut off; C comes from the pole form
    (["--kernel", "drude", "--cutoff-ratio", "10", "--route", "both",
      "--quantities", "C,E"],
     ["theta", "C_energy", "C_partition", "E_energy", "E_partition"], 1e-8),
], ids=["ohmic", "drude"])
def test_curve_zero_alpha_matches_undamped(tmp_path, extra, header, c_abs):
    out = tmp_path / "undamped.csv"
    assert main(["curve", "--model", "oscillator", "--alpha", "0",
                 "--tmin", "0.5", "--tmax", "2.0", "--points", "4",
                 "--out", str(out)] + extra) == 0
    got_header, _, rows = read_csv(out)
    assert got_header == header
    for row in rows:
        want = undamped_thermo(float(row[0]))
        for name, value in zip(header[1:], map(float, row[1:])):
            if name.startswith("C"):
                assert value == pytest.approx(want.C, abs=c_abs)
            elif name == "S":
                assert value == pytest.approx(want.S, abs=1e-12)
            else:
                assert value == pytest.approx(want.E, rel=1e-9)


def test_curve_both_routes_agree_for_ohmic(tmp_path):
    out = tmp_path / "both.csv"
    assert main(["curve", "--model", "oscillator", "--route", "both",
                 "--tmin", "0.05", "--tmax", "20", "--points", "30", "--log",
                 "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header == ["theta", "C_energy", "C_partition"]
    for row in rows:
        assert abs(float(row[1]) - float(row[2])) < 1e-11


def test_curve_is_deterministic(tmp_path):
    argv = ["curve", "--model", "oscillator", "--kernel", "drude",
            "--cutoff-ratio", "5", "--quantities", "C,E", "--points", "3",
            "--tmin", "0.5", "--tmax", "2.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_free_ohmic(tmp_path):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--model", "free", "--tmin", "0.5", "--tmax", "2.0",
                 "--points", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["model"] == "free"
    assert report["alpha"] is None
    assert report["cutoff_ratio"] is None
    assert len(report["points"]) == 3
    for point in report["points"]:
        assert set(point) == {"theta", "E_direct", "E_partition", "gap",
                              "C_closed", "C_fd_direct", "C_fd_partition",
                              "status"}
        assert point["status"] == "regularized"
        assert point["gap"] == 0.0
        assert point["E_direct"] == point["E_partition"]
        assert point["C_fd_direct"] == pytest.approx(point["C_closed"], abs=1e-5)


def test_compare_oscillator_drude(tmp_path):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--model", "oscillator", "--kernel", "drude",
                 "--cutoff-ratio", "10", "--tmin", "0.5", "--tmax", "2.0",
                 "--points", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["cutoff_ratio"] == 10.0
    for point in report["points"]:
        assert point["status"] == "ok"
        assert point["C_closed"] is None
        assert point["gap"] > 0.0
        residual = (point["E_partition"] - point["E_direct"]) - point["gap"]
        assert abs(residual) < 1e-9
        # the two prescriptions disagree measurably at finite cutoff
        assert point["C_fd_partition"] != pytest.approx(point["C_fd_direct"],
                                                        abs=1e-4)
        for key in ("C_fd_direct", "C_fd_partition"):
            assert 0.0 < point[key] < 1.2


def test_compare_drude_zero_alpha_has_no_gap(tmp_path):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--model", "oscillator", "--kernel", "drude",
                 "--alpha", "0", "--tmin", "0.5", "--tmax", "2.0",
                 "--points", "2", "--out", str(out)]) == 0
    for point in json.loads(out.read_text())["points"]:
        assert point["gap"] == 0.0
        assert point["C_fd_direct"] == pytest.approx(
            undamped_thermo(point["theta"]).C, abs=1e-8)


@pytest.mark.parametrize("argv", [
    ["curve", "--model", "free", "--route", "partition"],
    ["curve", "--model", "free", "--alpha", "1.0"],
    ["curve", "--model", "free", "--quantities", "S"],
    ["curve", "--model", "oscillator", "--quantities", "C,X"],
    ["curve", "--model", "oscillator", "--cutoff-ratio", "5"],
    ["curve", "--model", "oscillator", "--kernel", "drude",
     "--cutoff-ratio", "-1"],
    ["curve", "--model", "oscillator", "--kernel", "drude", "--quantities", "S"],
    ["curve", "--model", "oscillator", "--tmin", "2", "--tmax", "1"],
    ["compare", "--model", "oscillator", "--tol", "2.0"],
    ["expansions", "--model", "free", "--alpha", "1"],
    ["curve", "--model", "oscillator", "--cutoff-ratio", "nan"],
    ["curve", "--model", "oscillator", "--quantities", ","],
    ["expansions", "--model", "free", "--log"],
    # curve sums in pole form and takes no tolerance
    ["curve", "--model", "oscillator", "--tol", "1e-10"],
])
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage error:" in captured.err


def test_unresolvable_sum_exits_3(capsys, monkeypatch):
    # at theta = 1e-8 the Drude knee sits beyond the term cap, so the tail
    # model never applies and compare's term-by-term sum must report
    # failure, tagged by point; a lower cap reaches that failure sooner
    monkeypatch.setattr(qbrownian.cli, "energy_sum",
                        functools.partial(energy_sum, max_terms=2 ** 20))
    ret = main(["compare", "--model", "oscillator", "--kernel", "drude",
                "--points", "2", "--tmin", "1e-8", "--tmax", "1e-7"])
    captured = capsys.readouterr()
    assert ret == 3
    assert "numerical failure:" in captured.err
    assert "theta" in captured.err


def test_curve_energy_reaches_far_below_the_sums(tmp_path):
    # the same inputs in pole form: no term cap, the ground-state energy
    out = tmp_path / "low.csv"
    assert main(["curve", "--model", "oscillator", "--kernel", "drude",
                 "--quantities", "E", "--points", "2", "--tmin", "1e-8",
                 "--tmax", "1e-7", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    energies = [float(row[1]) for row in rows]
    assert all(math.isfinite(e) and e > 0.5 for e in energies)
    assert energies[0] == pytest.approx(energies[1], abs=1e-12)


def test_closed_form_cancellation_exits_3(capsys):
    # C and S at theta = 1e-300 used to come out as nan and 3.5e285
    ret = main(["curve", "--model", "oscillator", "--tmin", "1e-300",
                "--tmax", "1e-299", "--points", "2", "--quantities", "C,S"])
    captured = capsys.readouterr()
    assert ret == 3
    assert "numerical failure:" in captured.err
    assert "theta=1e-300" in captured.err


@pytest.mark.parametrize("model, theta", [("oscillator", "1e+200"), ("free", "1e+150")])
def test_expansion_overflow_exits_3(model, theta, capsys):
    # the exact undamped C is nan from theta ~ 1e154 and theta**3 overflows
    # from theta ~ 1e102, where the float calls raise
    ret = main(["expansions", "--model", model, "--tmin", "1e100", "--tmax", "1e200",
                "--points", "3"])
    captured = capsys.readouterr()
    assert ret == 3
    assert "numerical failure:" in captured.err
    assert f"theta={theta}:" in captured.err
    assert captured.out == ""


def test_overflowing_alpha_is_a_usage_error(capsys):
    assert main(["curve", "--model", "oscillator", "--alpha", "1e300",
                 "--points", "2"]) == 2
    captured = capsys.readouterr()
    assert "usage error:" in captured.err
    assert "alpha" in captured.err


def test_fig1_writes_main_and_inset(tmp_path):
    prefix = tmp_path / "fig1"
    assert main(["fig1", "--points", "30", "--out", str(prefix)]) == 0
    header, comment, rows = read_csv(tmp_path / "fig1_main.csv")
    assert header == ["theta_gamma", "C_exact", "C_lowT"]
    assert "model=free" in comment
    assert len(rows) == 30
    assert float(rows[0][0]) == pytest.approx(1e-3)
    assert float(rows[-1][0]) == pytest.approx(10.0)

    header, _, rows = read_csv(tmp_path / "fig1_inset.csv")
    assert header == ["theta_gamma", "C_cutoff_0.01", "C_cutoff_0.1",
                      "C_cutoff_1", "C_cutoff_inf", "C_lowT"]
    for row in rows:
        theta = float(row[0])
        if theta < 0.3:
            heats = [float(x) for x in row[1:5]]
            # softer cutoffs damp less, ordering strict until the curves cross
            assert heats[0] > heats[1] > heats[2] > heats[3]


def test_expansions_oscillator(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["expansions", "--model", "oscillator", "--tmin", "0.01",
                 "--tmax", "64", "--points", "8", "--out", str(out)]) == 0
    lines = out.read_text().rstrip("\n").split("\n")
    assert lines[0] == "kind,theta,exact,expansion,abs_error,error_exponent"
    rows = [line.split(",") for line in lines[2:]]
    kinds = {row[0] for row in rows}
    assert kinds == {"undamped_lowT", "undamped_highT", "damped_lowT",
                     "damped_highT"}
    for row in rows:
        kind, theta = row[0], float(row[1])
        exact, approx = float(row[2]), float(row[3])
        if kind == "damped_lowT" and theta <= 0.02:
            assert float(row[5]) == pytest.approx(5.0, abs=1.0)
        if kind == "undamped_lowT" and theta <= 0.1:
            assert approx == pytest.approx(exact, rel=0.1)


def test_expansions_evaluates_each_exact_value_once(tmp_path, monkeypatch):
    # the lowT and highT kinds of a family share their exact values at theta
    # and theta/2, so each family evaluates two exact values per grid point,
    # counted as the points of the arrays it is called with
    points_evaluated = {"damped": 0, "undamped": 0}

    def counted(name, fn):
        def wrapper(theta, *args):
            points_evaluated[name] += np.size(theta)
            return fn(theta, *args)
        return wrapper

    monkeypatch.setattr(qbrownian.cli, "damped_specific_heat",
                        counted("damped", qbrownian.cli.damped_specific_heat))
    monkeypatch.setattr(qbrownian.cli, "undamped_thermo",
                        counted("undamped", qbrownian.cli.undamped_thermo))
    points = 7
    assert main(["expansions", "--model", "oscillator", "--points", str(points),
                 "--out", str(tmp_path / "exp.csv")]) == 0
    assert points_evaluated == {"damped": 2 * points, "undamped": 2 * points}


def test_expansions_free(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["expansions", "--model", "free", "--tmin", "0.01",
                 "--tmax", "0.05", "--points", "4", "--out", str(out)]) == 0
    lines = out.read_text().rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[2:]]
    assert {row[0] for row in rows} == {"free_lowT"}
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[2]), rel=0.01)


def test_curve_writes_to_stdout_by_default(capsys):
    assert main(["curve", "--model", "free", "--points", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("theta,C_energy\n# ")
