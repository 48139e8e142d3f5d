"""The repository's scripts and the benchmark's tracer run against the package
as it stands."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    # a script of scripts/ on the package's source, with every warning shown
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "default", os.path.join(ROOT, "scripts", name), *args],
        env=env, capture_output=True, text=True, timeout=120)


def test_repr_dump_runs_quietly():
    # the dump is the bit-identity check of a refactor: it must still import
    # the private names it calls, and write nothing but its lines, so that a
    # warning or a traceback cannot hide among thousands of them
    proc = _run_script("repr_dump.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.count("\n") > 1000


def test_call_costs_prints_one_time_per_call():
    # scripts/call_costs.py is the source of the per-call costs quoted in the
    # docs: one `name us cal_us` line per float call, here with one repeat,
    # the time as measured and scaled by the benchmark's calibration kernel
    proc = _run_script("call_costs.py", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert {len(fields) for fields in lines} == {3}
    crosscheck = ["energy_sum", "specific_heat_fd(energy_sum)", "prescription_gap",
                  "position_variance_sum", "moments", "spectral_energy",
                  "specific_heat_fd(spectral_energy)", "damped_specific_heat",
                  "damped_specific_heat_via_entropy", "damped_entropy"]
    assert {f"{name}[theta={theta}]" for name in crosscheck
            for theta in ("0.05", "1", "10")} | {
        "ohmic_specific_heat[theta=1]", "drude_specific_heat[theta=1]", "PoleSum",
        "PoleSum.energy[theta=1]", "PoleSum.heat[theta=1]"} == {name for name, _, _ in lines}
    assert all(0.0 < float(us) < 1e6 for _, *times in lines for us in times)


def test_theta_scaling_prints_every_route_and_decade():
    # scripts/theta_scaling.py on a coarse grid of decades, one repeat: a line
    # per route and decade, then the route's answered decades and exponent;
    # the closed C and S answer at every decade within 1e-10 of their
    # frozen references, PoleSum's E and S within 1e-13, and the
    # term-by-term sum refuses at theta = 1e-9
    decades = ["-9", "-3", "0", "3", "9"]
    proc = _run_script("theta_scaling.py", *decades, "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows, summaries = {}, {}
    for line in proc.stdout.splitlines():
        name, *fields = line.split(" ")
        if fields[0].startswith("decades="):
            summaries[name] = fields
        else:
            rows[name, fields[0]] = fields[1:]
    closed = ["damped_specific_heat", "damped_entropy", "ohmic_specific_heat",
              "drude_specific_heat"]
    poles = ["PoleSum.energy", "PoleSum.entropy"]
    routes = closed + ["PoleSum.heat", *poles, "energy_sum"]
    assert set(summaries) == set(routes)
    assert set(rows) == {(name, k) for name in routes for k in decades}
    for name in closed + poles:
        assert summaries[name][0] == "decades=" + ",".join(decades)
        for k in decades:
            answered, us_float, us_grid, error = rows[name, k]
            assert answered == "yes" and 0.0 < float(us_float) < float(us_grid)
            assert float(error) <= (1e-13 if name in poles else 1e-10), (name, k)
    assert rows["energy_sum", "-9"] == ["no", "-", "-", "-"]
    assert summaries["energy_sum"][0] == "decades=-3,0,3,9"


def test_benchmark_tracer_sees_the_library_calls(tmp_path):
    # benchmarks/tracing.py wraps every public function of the library's
    # layers, and its hooks read their positional arguments (energy_sum's
    # third as a float beta), so a call the untraced run takes can fail only
    # when traced: run the canonical commands and the library calls of the
    # benchmark's route cross-check under it.  A change to the tracer on the
    # benchmark's side updates this test.
    import importlib.util

    # the tracer wraps the layers imported when it is installed
    from qbrownian import (cli, free_particle, matsubara, oscillator,  # noqa: F401
                           quadrature)

    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "benchmarks", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["compare", "--model", "oscillator", "--kernel", "drude",
                         "--cutoff-ratio", "10", "--log", "--tmin", "0.2", "--tmax", "5",
                         "--points", "5", "--out", str(tmp_path / "compare.json")]) == 0
        assert cli.main(["curve", "--model", "free", "--kernel", "drude", "--quantities",
                         "C,E", "--out", str(tmp_path / "curve.csv")]) == 0
        kernel = matsubara.DampingKernel
        ohmic, drude = kernel.ohmic(1.0), kernel.drude(1.0, 10.0)
        for theta in (0.05, 1.0, 20.0):
            matsubara.specific_heat_fd(lambda u: matsubara.energy_sum(
                1.0, ohmic, 1.0 / u, matsubara.Prescription.ENERGY).value, theta)
            matsubara.prescription_gap(1.0, drude, 1.0 / theta)
            matsubara.position_variance_sum(theta, 1.0)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert metrics["matsubara.energy_sum.calls"] > 0
    assert metrics["matsubara.failures"] == 0
