"""End-to-end tests of the command-line interface.

Each test drives main() with an argv list and inspects the files or streams
it produces, including exit codes for usage and numerical failures.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

import qbrownian.cli
from qbrownian.cli import main
from qbrownian.free_particle import ohmic_specific_heat
from qbrownian.matsubara import DampingKernel, PoleSum, Prescription
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


@pytest.mark.parametrize("extra, omega0, kernel, routes", [
    (["--model", "free"], 0.0, DampingKernel.ohmic(1.0), {"S": "energy"}),
    (["--model", "free", "--kernel", "drude", "--cutoff-ratio", "0.1"], 0.0,
     DampingKernel.drude(1.0, 0.1), {"S": "energy"}),
    (["--model", "oscillator", "--kernel", "drude"], 1.0,
     DampingKernel.drude(1.0, 10.0), {"S": "energy"}),
    (["--model", "oscillator", "--kernel", "drude", "--route", "both"], 1.0,
     DampingKernel.drude(1.0, 10.0), {"S_energy": "energy", "S_partition": "partition"}),
], ids=["free-ohmic", "free-drude", "osc-drude", "osc-drude-both"])
def test_curve_entropy_for_every_model_and_kernel(tmp_path, extra, omega0, kernel,
                                                  routes):
    # S columns follow the E columns' rule, from the pole form; a grid and a
    # float call may differ by G's roundoff, some 1e-13 relative below |z| = 12
    out = tmp_path / "entropy.csv"
    assert main(["curve", *extra, "--quantities", "S", "--log", "--tmin", "1e-3",
                 "--tmax", "10", "--points", "5", "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header == ["theta", *routes]
    for row in rows:
        theta = float(row[0])
        for route, value in zip(routes.values(), map(float, row[1:])):
            want = PoleSum(omega0, kernel, Prescription(route)).entropy(theta)
            assert value == pytest.approx(want, rel=1e-12, abs=0.0)


# C of the Drude free particle at theta = 1e-3, 40-digit pole form
# (scripts/freeze_oracles.py): near (pi/3) theta on the energy route for every
# cutoff ratio r, and below r = 1 negative on the partition route, the
# specific-heat anomaly of Haenggi, Ingold and Talkner (NJP 10, 115008 (2008))
C_FREE_DRUDE_ROUTES = {
    (0.01, "energy"): 0.001048849903480874460489089,
    (0.01, "partition"): -0.09699573521729640865004326,
    (0.1, "energy"): 0.001047354710558768593185566,
    (0.1, "partition"): -0.009416292921281900887222551,
    (1.0, "energy"): 0.001047205819537032960165286,
    (1.0, "partition"): 2.480502134423638899426061e-8,
    (10.0, "energy"): 0.001047190936671122361393857,
    (10.0, "partition"): 0.0009424720166351936924879813,
}


@pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 10.0])
def test_curve_free_particle_on_both_prescriptions(ratio, capsys):
    assert main(["curve", "--model", "free", "--kernel", "drude", "--cutoff-ratio",
                 repr(ratio), "--route", "both", "--quantities", "C,S",
                 "--tmin", "1e-3", "--tmax", "1", "--points", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert header == ["theta", "C_energy", "C_partition", "S_energy", "S_partition"]
    row = dict(zip(header, map(float, lines[2].split(","))))
    assert row["theta"] == 1e-3
    unit = math.pi / 3.0 * 1e-3
    for route in ("energy", "partition"):
        # at r = 1 the partition route's C is O(theta^3) from O(theta) terms
        rel = 1e-9 if (ratio, route) == (1.0, "partition") else 1e-12
        assert row[f"C_{route}"] / unit == pytest.approx(
            C_FREE_DRUDE_ROUTES[ratio, route] / unit, rel=rel, abs=0.0), route
    assert row["C_energy"] / unit == pytest.approx(1.0, abs=2e-3)
    if ratio < 1.0:
        assert row["C_partition"] < 0.0 and row["S_partition"] < 0.0


# every model and kernel: the free particle, and the oscillator at the default
# alpha, at zero coupling and at critical damping; Drude ratios on both sides
# of the free particle's r = 4
CURVE_MODELS = {"free": ["--model", "free"], "osc": ["--model", "oscillator"],
                "osc-alpha0": ["--model", "oscillator", "--alpha", "0"],
                "osc-alpha2": ["--model", "oscillator", "--alpha", "2"]}
CURVE_KERNELS = {"ohmic": [], "drude": ["--kernel", "drude"],
                 "drude-r0.3": ["--kernel", "drude", "--cutoff-ratio", "0.3"],
                 "drude-r4": ["--kernel", "drude", "--cutoff-ratio", "4"]}
CURVE_SYSTEMS = {f"{model}-{kernel}": model_argv + kernel_argv
                 for model, model_argv in CURVE_MODELS.items()
                 for kernel, kernel_argv in CURVE_KERNELS.items()}


@pytest.mark.parametrize("route", ["energy", "partition", "both"])
@pytest.mark.parametrize("system", sorted(CURVE_SYSTEMS))
def test_curve_answers_for_every_combination(system, route, capsys):
    # C has a column per route; S and E one, unless a Drude kernel is asked
    # for both routes
    argv = CURVE_SYSTEMS[system]
    routes = ["energy", "partition"] if route == "both" else [route]
    split = "--kernel" in argv and route == "both"
    for quantities in ("C", "S", "E", "C,S,E"):
        assert main(["curve", *argv, "--route", route, "--quantities", quantities,
                     "--log", "--tmin", "1e-4", "--tmax", "1e4", "--points", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = [f"C_{r}" for r in routes] if "C" in quantities else []
        for q in "SE":
            if q in quantities:
                want += [f"{q}_{r}" for r in routes] if split else [q]
        assert lines[0].split(",") == ["theta", *want]
        cells = [list(map(float, line.split(","))) for line in lines[2:]]
        assert len(cells) == 5 and all(map(math.isfinite, sum(cells, []))), quantities


def test_curve_both_routes_agree_for_ohmic(tmp_path):
    out = tmp_path / "both.csv"
    assert main(["curve", "--model", "oscillator", "--route", "both",
                 "--tmin", "0.05", "--tmax", "20", "--points", "30", "--log",
                 "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header == ["theta", "C_energy", "C_partition"]
    for row in rows:
        assert abs(float(row[1]) - float(row[2])) < 1e-11


def test_curve_evaluates_a_shared_closed_form_once(tmp_path, monkeypatch):
    # an ohmic kernel has one closed-form C for both routes: it is evaluated
    # once, on the whole grid, and fills both columns
    calls = []

    def counted(theta, *args):
        calls.append(np.size(theta))
        return heat(theta, *args)

    heat = qbrownian.cli.damped_specific_heat
    monkeypatch.setattr(qbrownian.cli, "damped_specific_heat", counted)
    out = tmp_path / "both.csv"
    assert main(["curve", "--model", "oscillator", "--route", "both",
                 "--quantities", "C,S", "--points", "9", "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header == ["theta", "C_energy", "C_partition", "S"]
    assert calls == [9]
    assert all(row[1] == row[2] for row in rows)


def test_fig1_evaluates_each_shared_column_once(tmp_path, monkeypatch):
    # the strict-ohmic C fills C_exact and C_cutoff_inf, and the expansion
    # C_lowT in both files: each is evaluated once, on the whole grid, and
    # the columns the two files share are written as the same strings
    calls = {"ohmic": [], "drude": [], "lowT": []}

    def counted(name, fn):
        def wrapper(theta, *args):
            calls[name].append((np.size(theta), *args))
            return fn(theta, *args)
        return wrapper

    for name, attr in (("ohmic", "ohmic_specific_heat"), ("drude", "drude_specific_heat"),
                       ("lowT", "ohmic_lowT_expansion")):
        monkeypatch.setattr(qbrownian.cli, attr, counted(name, getattr(qbrownian.cli, attr)))
    points = 11
    assert main(["fig1", "--points", str(points), "--out", str(tmp_path / "fig1")]) == 0
    assert calls["ohmic"] == [(points,)]
    assert calls["drude"] == [(points, 0.01), (points, 0.1), (points, 1.0)]
    assert calls["lowT"] == [(points,)]
    main_header, _, main_rows = read_csv(tmp_path / "fig1_main.csv")
    inset_header, _, inset_rows = read_csv(tmp_path / "fig1_inset.csv")
    pairs = [("theta_gamma", "theta_gamma"), ("C_lowT", "C_lowT"),
             ("C_exact", "C_cutoff_inf")]
    for main_name, inset_name in pairs:
        i, j = main_header.index(main_name), inset_header.index(inset_name)
        assert [row[i] for row in main_rows] == [row[j] for row in inset_rows]


@pytest.mark.parametrize("argv", [
    ["curve", "--model", "free", "--points", "3"],
    ["fig1", "--points", "3"],
])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: cannot write {out}")
    assert "No such file or directory" in captured.err
    assert not (tmp_path / "missing").exists()


# curve writes one file at the --out path, fig1 two at --out plus a suffix
OUT_COMMANDS = {"curve": (["curve", "--model", "free", "--points", "40"], [""]),
                "fig1": (["fig1", "--points", "30"], ["_main.csv", "_inset.csv"])}


@pytest.mark.parametrize("old_size", [5_000_000, 3])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_over_other_bytes_gets_a_fresh_paths_bytes(command, old_size, tmp_path):
    # an --out file is written over in place and cut to length, so whatever it
    # held before, longer or shorter, it ends up with a fresh path's bytes
    argv, suffixes = OUT_COMMANDS[command]
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    for suffix in suffixes:
        (tmp_path / f"used{suffix}").write_bytes(b"\xff" * old_size)
    assert main(argv + ["--out", str(fresh)]) == 0
    assert main(argv + ["--out", str(used)]) == 0
    for suffix in suffixes:
        want = (tmp_path / f"fresh{suffix}").read_bytes()
        assert (tmp_path / f"used{suffix}").read_bytes() == want


def test_rewritten_out_keeps_its_inode_and_mode(tmp_path):
    # as open(path, "w") does: the same file, written over, with its mode bits
    argv, _ = OUT_COMMANDS["curve"]
    out = tmp_path / "c.csv"
    out.write_bytes(b"x" * 100_000)
    out.chmod(0o640)
    before = os.stat(out)
    assert main(argv + ["--out", str(out)]) == 0
    after = os.stat(out)
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert after.st_size < before.st_size
    assert out.read_text().startswith("theta,C_energy\n# ")


def test_symlinked_out_writes_through_to_its_target(tmp_path):
    argv, _ = OUT_COMMANDS["curve"]
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"y" * 1_000_000)
    link.symlink_to(target)
    assert main(argv + ["--out", str(fresh)]) == 0
    assert main(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_out_to_the_null_device_succeeds():
    # a device is written as it is and not cut to length, which would fail
    argv, _ = OUT_COMMANDS["curve"]
    assert main(argv + ["--out", os.devnull]) == 0


def test_curve_is_deterministic(tmp_path):
    argv = ["curve", "--model", "oscillator", "--kernel", "drude",
            "--cutoff-ratio", "5", "--quantities", "C,E", "--points", "3",
            "--tmin", "0.5", "--tmax", "2.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_an_option_does_not_become_the_next_calls_default(tmp_path):
    # main keeps one parser per process: a call without --alpha after one
    # with it writes the default alpha's file, as the first call did
    outputs = []
    for extra in ([], ["--alpha", "2"], []):
        out = tmp_path / f"{len(outputs)}.csv"
        assert main(["curve", "--model", "oscillator", "--points", "3", *extra,
                     "--out", str(out)]) == 0
        outputs.append(out.read_text())
    assert " alpha=2 " in outputs[1].split("\n")[1]
    assert " alpha=none " in outputs[2].split("\n")[1]
    assert outputs[2] == outputs[0] != outputs[1]


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
    # the free particle takes every route, but an ohmic kernel no finite
    # cutoff and a Drude kernel no zero ratio on any of them
    ["curve", "--model", "free", "--route", "partition", "--cutoff-ratio", "0.1"],
    ["curve", "--model", "free", "--alpha", "1.0"],
    ["curve", "--model", "free", "--kernel", "drude", "--route", "both",
     "--quantities", "S", "--cutoff-ratio", "0"],
    ["curve", "--model", "oscillator", "--quantities", "C,X"],
    ["curve", "--model", "oscillator", "--cutoff-ratio", "5"],
    ["curve", "--model", "oscillator", "--kernel", "drude",
     "--cutoff-ratio", "-1"],
    ["curve", "--model", "oscillator", "--kernel", "drude", "--quantities", "S",
     "--cutoff-ratio", "0"],
    ["curve", "--model", "oscillator", "--tmin", "2", "--tmax", "1"],
    # the sums' error bar is fixed, so compare takes no tolerance either
    ["compare", "--model", "oscillator", "--tol", "2.0"],
    ["expansions", "--model", "free", "--alpha", "1"],
    ["curve", "--model", "oscillator", "--cutoff-ratio", "nan"],
    ["curve", "--model", "oscillator", "--quantities", ","],
    ["expansions", "--model", "free", "--log"],
    # curve sums in pole form and takes no tolerance
    ["curve", "--model", "oscillator", "--tol", "1e-10"],
    ["curve", "--model", "oscillator", "--points", "1"],
])
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage error:" in captured.err
    if "--tol" in argv:
        assert "unrecognized arguments: --tol" in captured.err


def test_unresolvable_sum_exits_3(capsys):
    # at theta = 1e-8 the Drude poles sit beyond the term cap, so compare's
    # term-by-term sum refuses before adding a term and must report failure,
    # naming the temperature
    ret = main(["compare", "--model", "oscillator", "--kernel", "drude",
                "--points", "2", "--tmin", "1e-8", "--tmax", "1e-7"])
    captured = capsys.readouterr()
    assert ret == 3
    assert "numerical failure: at theta=1e-08: frequency sum needs" in captured.err
    assert captured.out == ""


def test_compare_sums_each_column_once(tmp_path, monkeypatch):
    # E_direct, E_partition and the four energies of each FD column: one
    # call of the energy sum per column and step, each on the whole grid
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[2]))
        return energy_kernel(*args, **kwargs)

    energy_kernel = qbrownian.cli._energy_sum
    monkeypatch.setattr(qbrownian.cli, "_energy_sum", counted)
    assert main(["compare", "--model", "oscillator", "--kernel", "drude",
                 "--points", "20", "--out", str(tmp_path / "compare.json")]) == 0
    assert calls == [20] * 10


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


# C and S at alpha = 1 (scripts/freeze_oracles.py), where the terms of their
# definitions cancel; each is (pi/3) theta to every digit a double holds
LOW_THETA_CS = {
    ("C", 1e-300): 1.047197551196597772396034e-300,
    ("S", 1e-300): 1.047197551196597772396034e-300,
    ("C", 1e-299): 1.047197551196597737674959e-299,
    ("S", 1e-299): 1.047197551196597737674959e-299,
    ("S", 1e-307): 1.047197551196597651201279e-307,
    ("S", 1e-306): 1.047197551196597775373519e-306,
}


@pytest.mark.parametrize("quantities, tmin, tmax", [
    ("C,S", "1e-300", "1e-299"), ("S", "1e-307", "1e-306")], ids=["1e-300", "1e-307"])
def test_closed_form_cancellation_exits_3(quantities, tmin, tmax, tmp_path, capsys):
    # as sums of h and G, C and S keep their digits at theta = 1e-300 and
    # 1e-307; where 1/(2 pi theta) overflows, at 1e-320, the command exits 3
    out = tmp_path / "low.csv"
    assert main(["curve", "--model", "oscillator", "--tmin", tmin, "--tmax", tmax,
                 "--points", "2", "--quantities", quantities, "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert [float(row[0]) for row in rows] == [float(tmin), float(tmax)]
    for row in rows:
        for name, value in zip(header[1:], row[1:]):
            want = LOW_THETA_CS[name[0], float(row[0])]
            assert float(value) == pytest.approx(want, rel=1e-13, abs=0.0), name
    ret = main(["curve", "--model", "oscillator", "--tmin", "1e-320",
                "--tmax", tmax, "--points", "2", "--quantities", quantities])
    captured = capsys.readouterr()
    assert ret == 3
    assert "numerical failure:" in captured.err
    assert "theta=1e-320," in captured.err


@pytest.mark.parametrize("model, theta", [("oscillator", "1e+150"), ("free", "1e+150")])
def test_expansion_overflow_exits_3(model, theta, capsys):
    # theta**3 overflows from theta ~ 1e102, where the float calls raise; the
    # exact values stay finite (the undamped C is 1 up to theta = 1e300)
    ret = main(["expansions", "--model", model, "--tmin", "1e100", "--tmax", "1e200",
                "--points", "3"])
    captured = capsys.readouterr()
    assert ret == 3
    assert "numerical failure:" in captured.err
    assert f"theta={theta}:" in captured.err
    assert captured.out == ""


# the Drude oscillator's triple point, alpha = 8/(3 sqrt 3) and ratio 27/8
TRIPLE_POINT = ["curve", "--model", "oscillator", "--kernel", "drude",
                "--alpha", "1.5396007178390021", "--cutoff-ratio", "3.375"]
# its ground-state energy (1/2 pi) int_0^inf R(nu) dnu, R the energy-route
# summand, by mpmath quadrature (scripts/freeze_oracles.py)
TRIPLE_POINT_E0 = 0.7351051938957227446185738


def test_pole_energy_at_theta_1e_307_is_the_ground_state(tmp_path):
    # E - E0 ~ theta^2: the K sum's terms underflow to 0 and E0 is left
    out = tmp_path / "triple.csv"
    assert main(TRIPLE_POINT + ["--quantities", "E", "--tmin", "1e-307",
                                "--tmax", "1e-300", "--points", "3",
                                "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][0]) == 1e-307
    for row in rows:
        assert float(row[1]) == pytest.approx(TRIPLE_POINT_E0, rel=1e-13)


def test_triple_point_energy_reaches_the_ground_state(tmp_path):
    # the coincident poles' energy far below every pole (it was nan here)
    out = tmp_path / "triple.csv"
    assert main(TRIPLE_POINT + ["--quantities", "E", "--tmin", "1e-160",
                                "--tmax", "1e-150", "--points", "3",
                                "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][0]) == 1e-160
    for row in rows:
        assert float(row[1]) == pytest.approx(TRIPLE_POINT_E0, rel=1e-12)


# the triple point's C on the energy route at theta = 1e-9, 1e-8, .., 1e-3:
# the coincident-pole oracles of scripts/freeze_oracles.py (every root its own
# simple pole, 60 digits), as in tests/test_pole_sum.py
TRIPLE_POINT_C = [1.6122661015415271e-9, 1.6122661015415271e-8, 1.612266101541527e-7,
                  1.612266101541527e-6, 1.6122661015415272e-5, 0.00016122661015415152,
                  0.0016122661014218763]


def test_triple_point_heat_cancellation_exits_3(tmp_path, capsys):
    # the coincident poles' circle terms -R h(-nu/s)/nu are O(theta), as
    # C ~ 1.6e-9 at theta = 1e-9 is, so C keeps its digits down to there
    out = tmp_path / "triple.csv"
    assert main(TRIPLE_POINT + ["--tmin", "1e-9", "--tmax", "1e-3", "--log",
                                "--points", "7", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    for (theta, heat), want in zip(rows, TRIPLE_POINT_C):
        assert float(heat) == pytest.approx(want, rel=1e-13, abs=0.0), theta
    assert capsys.readouterr().err == ""


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
