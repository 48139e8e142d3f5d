"""The benchmark's three workloads, generated from a seed.

Each workload is a list of operations run as a closed loop with one caller:
every CLI command or library call starts after the previous one returns.  An
operation knows how to run itself and which of its outputs to compare with
which reference (see reference.py).  The program under test receives only the
generated argv or call arguments.

The default seed gives the canonical inputs below.  Any other seed moves the
upper endpoint of each grid by up to 0.02 decades and, in closed_forms and
route_crosscheck, draws alpha and the cutoff ratio from the stated ranges.
What stays fixed, and why:

- lower grid endpoints, where frequency sums are longest and closed forms
  cancel most, so every seed exercises the same hardest points;
- the degenerate points: critical damping alpha = 2, and the r = 4
  free-particle curve, whose grid is also fixed so that all of its rows are
  checked against frozen references;
- alpha and r in sum_datasets: a sum's length doubles in blocks, so a draw
  that moves every summand at once would move the cost of the longest sums
  by whole factors of two between seeds.

No operation of the three workloads fails on any seed: each of them stays
out of the inputs where the program is known to be wrong today.  Those
inputs are kept in known_defects instead, a fixed set of library calls that
run.py runs once per run, untimed, and reports as a count of failed calls
(check.known_defect_ops_failed in the traced run), so a change that fixes or
widens a defect shows there without making the timed workloads incorrect:

- drude_specific_heat at the critical cutoff r = 4 below theta ~ 1, where
  the psi'' finite difference of its degenerate band is lost to
  cancellation (off by a factor ~5 at theta = 1e-4); the r = 4 curve of
  closed_forms spans [2, 1e4], where its error stays below a fifth of the
  tolerance;
- damped_entropy at alpha in [4, 6] below theta ~ 2.5e-4, the
  low-temperature cancellation of the closed forms; the large-alpha curve of
  closed_forms starts at 5e-4, where the error of every closed form stays
  below a third of the tolerance for alpha in [4, 6];
- spectral_energy at quad_abs = 1e-11, which raises ConvergenceError at some
  theta above 15; route_crosscheck takes the spectral specific heat up to
  theta = 10 (test_acceptance checks it up to 5).
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import Check, key

# qbrownian modules are imported inside the builders and operations, so a
# process that runs one workload (the peak_rss_mb child) loads only what that
# workload's entry point loads: the CLI workloads import qbrownian.cli and the
# library workload the modules it calls.

DEFAULT_SEED = 0
SAMPLE_ROWS = 40           # seeded rows checked per CLI output, plus both ends
GRID_JITTER_DECADES = 0.02

# spectral-energy settings of the acceptance test for the moment route
SPECTRAL_QUAD_ABS = 1e-11
SPECTRAL_STEP = 3e-4
SPECTRAL_THETA_MAX = 10.0

@dataclass
class Op:
    """One CLI command or library call, and how to check what it produced."""

    label: str
    run: Callable[[], object]
    checks: Callable[[object], list[Check]]
    files: tuple[str, ...] = ()


class OpFailed(ValueError):
    """A CLI command exited non-zero or its output could not be read."""


class Draw:
    """Seeded parameter draws; the default seed returns canonical values."""

    def __init__(self, seed: int):
        self.canonical = seed == DEFAULT_SEED
        self.rng = np.random.default_rng(seed)

    def value(self, canonical: float, low: float, high: float) -> float:
        drawn = float(self.rng.uniform(low, high))
        return canonical if self.canonical else round(drawn, 6)

    def grid(self, t_min: float, t_max: float) -> tuple[float, float]:
        jitter = self.rng.uniform(-GRID_JITTER_DECADES, GRID_JITTER_DECADES)
        if self.canonical:
            return t_min, t_max
        return t_min, float(f"{t_max * 10 ** jitter:.6g}")


def _fmt(x: float) -> str:
    return repr(float(x))


# ----------------------------------------------------------- CLI outputs

def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().rstrip("\n").split("\n")
    if len(lines) < 3 or not lines[1].startswith("# "):
        raise OpFailed(f"{os.path.basename(path)}: not a header/comment/data CSV")
    return lines[0].split(","), [line.split(",") for line in lines[2:]]


def _rows(path: str, rows: list, seed: int, check_all: bool) -> list[int]:
    """Indices of the rows to check: all, or a seeded sample plus both ends."""
    if check_all:
        return list(range(len(rows)))
    rng = np.random.default_rng([seed, zlib.crc32(os.path.basename(path).encode())])
    inner = rng.choice(np.arange(1, len(rows) - 1),
                       size=min(SAMPLE_ROWS, len(rows) - 2), replace=False)
    return sorted({0, len(rows) - 1, *map(int, inner)})


def _cli_op(label: str, argv: list[str], files: list[str],
            checker: Callable[[list], list[Check]]) -> Op:
    import qbrownian.cli

    def run():
        code = qbrownian.cli.main(argv)
        if code != 0:
            raise OpFailed(f"{label}: exit code {code}")
        return code

    def checks(_):
        return checker(files)

    return Op(label=label, run=run, checks=checks, files=tuple(files))


def _curve_checks(path: str, columns: dict, seed: int, points: int,
                  check_all: bool = False,
                  regularized: tuple[str, ...] = ()) -> list[Check]:
    """Checks for a CSV whose first column is theta.

    columns maps a header name to (tolerance class, theta -> reference key);
    names in regularized are compared through differences from the first row.
    """
    header, rows = _read_csv(path)
    if len(rows) != points:
        raise OpFailed(f"{os.path.basename(path)}: {len(rows)} rows, want {points}")
    out = []
    index = {name: header.index(name) for name in columns if name in header}
    if len(index) != len(columns):
        raise OpFailed(f"{os.path.basename(path)}: columns {header}")
    first = rows[0]
    for i in _rows(path, rows, seed, check_all):
        row = rows[i]
        theta = float(row[0])
        for name, (tol, ref) in columns.items():
            got = float(row[index[name]])
            if name in regularized:
                if i == 0:
                    continue
                out.append(Check(tol, got, ref(theta),
                                 anchor_got=float(first[index[name]]),
                                 anchor_key=ref(float(first[0]))))
            else:
                out.append(Check(tol, got, ref(theta)))
    return out


def _curve_cmd(ops: list[Op], label: str, argv: list[str], path: str,
               columns: dict, seed: int, points: int, check_all: bool = False,
               regularized: tuple[str, ...] = ()) -> None:
    ops.append(_cli_op(label, argv + ["--out", path], [path],
                       lambda files: _curve_checks(files[0], columns, seed, points,
                                                   check_all, regularized)))


def closed_forms(seed: int, outdir: str, points: int = 2000) -> list[Op]:
    draw = Draw(seed)
    ops: list[Op] = []

    t_lo, t_hi = draw.grid(1e-3, 10.0)
    prefix = os.path.join(outdir, "fig1")

    def fig1_checks(files):
        main_cols = {"C_exact": ("closed", lambda t: key("c_free_ohmic", t)),
                     "C_lowT": ("expansion", lambda t: key("exp_free_lowT", t))}
        inset_cols = {f"C_cutoff_{name}": ("closed", lambda t, r=r: key("c_free_drude", t, r))
                      for name, r in (("0.01", 0.01), ("0.1", 0.1), ("1", 1.0))}
        inset_cols["C_cutoff_inf"] = ("closed", lambda t: key("c_free_ohmic", t))
        inset_cols["C_lowT"] = main_cols["C_lowT"]
        return (_curve_checks(files[0], main_cols, seed, points)
                + _curve_checks(files[1], inset_cols, seed, points))

    ops.append(_cli_op("fig1", ["fig1", "--tmin", _fmt(t_lo), "--tmax", _fmt(t_hi),
                                "--points", str(points), "--out", prefix],
                       [prefix + "_main.csv", prefix + "_inset.csv"], fig1_checks))

    for canonical, low, high, t_min in ((0.5, 0.4, 0.6, 1e-4), (2.0, 2.0, 2.0, 1e-4),
                                        (5.0, 4.0, 6.0, 5e-4)):
        alpha = draw.value(canonical, low, high)
        t_lo, t_hi = draw.grid(t_min, 1e4)
        c_ref = ("closed", lambda t, a=alpha: key("c_damped", t, a))
        _curve_cmd(ops, f"curve oscillator ohmic alpha={alpha:g}",
                   ["curve", "--model", "oscillator", "--alpha", _fmt(alpha),
                    "--route", "both", "--quantities", "C,S", "--log",
                    "--tmin", _fmt(t_lo), "--tmax", _fmt(t_hi),
                    "--points", str(points)],
                   os.path.join(outdir, f"osc_ohmic_{len(ops)}.csv"),
                   {"C_energy": c_ref, "C_partition": c_ref,
                    "S": ("closed", lambda t, a=alpha: key("s_damped", t, a))},
                   seed, points)

    _curve_cmd(ops, "curve free drude r=4",
               ["curve", "--model", "free", "--kernel", "drude",
                "--cutoff-ratio", "4", "--log", "--tmin", "2",
                "--tmax", "10000", "--points", str(points)],
               os.path.join(outdir, "free_drude_r4.csv"),
               {"C_energy": ("closed", lambda t: key("c_free_drude", t, 4.0))},
               seed, points, check_all=True)

    alpha = draw.value(1.0, 0.8, 1.2)
    exp_points = points // 4
    for model, (t_lo, t_hi) in (("oscillator", draw.grid(0.01, 20.0)),
                                ("free", draw.grid(0.005, 0.1))):
        path = os.path.join(outdir, f"expansions_{model}.csv")
        argv = ["expansions", "--model", model, "--tmin", _fmt(t_lo),
                "--tmax", _fmt(t_hi), "--points", str(exp_points), "--out", path]
        if model == "oscillator":
            argv[3:3] = ["--alpha", _fmt(alpha)]

        def exp_checks(files, a=alpha, model=model):
            header, rows = _read_csv(files[0])
            want = exp_points * (4 if model == "oscillator" else 1)
            if len(rows) != want:
                raise OpFailed(f"expansions {model}: {len(rows)} rows, want {want}")
            out = []
            for i in _rows(files[0], rows, seed, False):
                kind, theta, exact, approx = rows[i][:4]
                theta = float(theta)
                if kind == "free_lowT":
                    exact_key, exp_key = key("c_free_ohmic", theta), key("exp_free_lowT", theta)
                elif kind.startswith("undamped"):
                    exact_key, exp_key = key("c_undamped", theta), key(f"exp_{kind}", theta)
                else:
                    exact_key = key("c_damped", theta, a)
                    exp_key = key(f"exp_{kind}", theta, a)
                out.append(Check("closed", float(exact), exact_key))
                out.append(Check("expansion", float(approx), exp_key))
            return out

        ops.append(_cli_op(f"expansions {model}", argv, [path], exp_checks))
    return ops


def _json_checks(path: str, fields: dict, points: int) -> list[Check]:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    rows = report["points"]
    if len(rows) != points:
        raise OpFailed(f"{os.path.basename(path)}: {len(rows)} points, want {points}")
    out = []
    for row in rows:
        theta = row["theta"]
        for name, spec in fields.items():
            if spec is None:
                if row[name] is not None:
                    raise OpFailed(f"{name} should be null, got {row[name]!r}")
                continue
            tol, ref = spec
            out.append(Check(tol, float(row[name]), ref(theta)))
    return out


def sum_datasets(seed: int, outdir: str) -> list[Op]:
    draw = Draw(seed)
    ops: list[Op] = []
    alpha = alpha_d = 1.0
    r_osc = r_free = 10.0
    t_lo, t_hi = draw.grid(1e-3, 100.0)
    _curve_cmd(ops, "curve oscillator ohmic C,S,E",
               ["curve", "--model", "oscillator", "--alpha", _fmt(alpha),
                "--quantities", "C,S,E", "--log", "--tmin", _fmt(t_lo),
                "--tmax", _fmt(t_hi), "--points", "200"],
               os.path.join(outdir, "osc_ohmic_cse.csv"),
               {"C_energy": ("closed", lambda t: key("c_damped", t, alpha)),
                "S": ("closed", lambda t: key("s_damped", t, alpha)),
                "E": ("sum", lambda t: key("e_reg_osc", t, alpha))},
               seed, 200, check_all=True, regularized=("E",))

    t_lo, t_hi = draw.grid(3e-3, 10.0)
    _curve_cmd(ops, "curve oscillator drude both C,E",
               ["curve", "--model", "oscillator", "--kernel", "drude",
                "--alpha", _fmt(alpha_d), "--cutoff-ratio", _fmt(r_osc),
                "--route", "both", "--quantities", "C,E", "--log",
                "--tmin", _fmt(t_lo), "--tmax", _fmt(t_hi), "--points", "50"],
               os.path.join(outdir, "osc_drude_both.csv"),
               {f"{q}_{route}": ("fd_sum" if q == "C" else "sum",
                                 lambda t, q=q, p=float(route == "partition"):
                                 key("c_osc_drude" if q == "C" else "e_osc_drude",
                                     t, alpha_d, r_osc, p))
                for q in ("C", "E") for route in ("energy", "partition")},
               seed, 50, check_all=True)

    for model, ratio in (("oscillator", r_osc), ("free", r_free)):
        t_lo, t_hi = draw.grid(0.1, 10.0)
        path = os.path.join(outdir, f"compare_{model}.json")
        argv = ["compare", "--model", model, "--kernel", "drude",
                "--cutoff-ratio", _fmt(ratio), "--log", "--tmin", _fmt(t_lo),
                "--tmax", _fmt(t_hi), "--points", "20", "--out", path]
        if model == "oscillator":
            argv[5:5] = ["--alpha", _fmt(alpha_d)]
            args = (alpha_d, ratio)
            kinds = ("e_osc_drude", "c_osc_drude", "gap_osc_drude")
            closed = None
        else:
            args = (ratio,)
            kinds = ("e_free_drude", "c_free_drude_sum", "gap_free_drude")
            closed = ("closed", lambda t, r=ratio: key("c_free_drude", t, r))
        # C_closed is None for the Drude oscillator, which has no closed form
        fields = {
            "E_direct": ("sum", lambda t, a=args, k=kinds: key(k[0], t, *a, 0.0)),
            "E_partition": ("sum", lambda t, a=args, k=kinds: key(k[0], t, *a, 1.0)),
            "gap": ("sum", lambda t, a=args, k=kinds: key(k[2], t, *a)),
            "C_closed": closed,
            "C_fd_direct": ("fd_sum", lambda t, a=args, k=kinds: key(k[1], t, *a, 0.0)),
            "C_fd_partition": ("fd_sum", lambda t, a=args, k=kinds: key(k[1], t, *a, 1.0)),
        }
        ops.append(_cli_op(f"compare {model} drude", argv, [path],
                           lambda files, f=fields: _json_checks(files[0], f, 20)))

    t_lo, t_hi = draw.grid(1e-3, 10.0)
    _curve_cmd(ops, "curve free drude C,E",
               ["curve", "--model", "free", "--kernel", "drude",
                "--cutoff-ratio", _fmt(r_free), "--quantities", "C,E", "--log",
                "--tmin", _fmt(t_lo), "--tmax", _fmt(t_hi), "--points", "100"],
               os.path.join(outdir, "free_drude_ce.csv"),
               {"C_energy": ("closed", lambda t: key("c_free_drude", t, r_free)),
                "E": ("sum", lambda t: key("e_free_drude", t, r_free, 0.0))},
               seed, 100, check_all=True)
    return ops


def route_crosscheck(seed: int, outdir: str, points: int = 150) -> list[Op]:
    import qbrownian.matsubara as mats
    import qbrownian.oscillator as osc
    import qbrownian.quadrature as quad
    from qbrownian.core import Tolerances

    spectral_tol = Tolerances(quad_abs=SPECTRAL_QUAD_ABS)
    draw = Draw(seed)
    alpha = draw.value(1.0, 0.95, 1.05)
    ratio = draw.value(10.0, 9.5, 10.5)
    t_lo, t_hi = draw.grid(0.05, 20.0)
    ohmic = mats.DampingKernel.ohmic(alpha)
    drude = mats.DampingKernel.drude(alpha, ratio * alpha)
    energy = mats.Prescription.ENERGY
    ops: list[Op] = []

    def add(label, theta, fn, tol, ref_key):
        ops.append(Op(label=f"{label} theta={theta:.6g}", run=fn,
                      checks=lambda value: [Check(tol, float(value), ref_key)]))

    # module attributes are looked up at call time, so the traced run can
    # wrap them in place
    for theta in np.logspace(math.log10(t_lo), math.log10(t_hi), points):
        t = float(theta)
        c_key = key("c_damped", t, alpha)
        q2_key = key("q2", t, alpha)
        add("damped_specific_heat", t,
            lambda t=t: osc.damped_specific_heat(t, alpha).C, "closed", c_key)
        add("damped_specific_heat_via_entropy", t,
            lambda t=t: osc.damped_specific_heat_via_entropy(t, alpha).C,
            "closed", c_key)
        add("damped_entropy", t, lambda t=t: osc.damped_entropy(t, alpha).S,
            "closed", key("s_damped", t, alpha))
        add("specific_heat_fd(energy_sum)", t,
            lambda t=t: mats.specific_heat_fd(
                lambda u: mats.energy_sum(1.0, ohmic, 1.0 / u, energy).value, t).value,
            "fd_sum", c_key)
        if t <= SPECTRAL_THETA_MAX:
            add("specific_heat_fd(spectral_energy)", t,
                lambda t=t: mats.specific_heat_fd(
                    lambda u: quad.spectral_energy(u, alpha, spectral_tol)[0], t,
                    rel_step=SPECTRAL_STEP).value,
                "fd_spectral", c_key)
        add("position_variance_sum", t,
            lambda t=t: mats.position_variance_sum(t, alpha).value, "variance", q2_key)
        add("moments", t, lambda t=t: quad.moments(t, alpha).q2, "variance", q2_key)
        add("prescription_gap", t,
            lambda t=t: mats.prescription_gap(1.0, drude, 1.0 / t).value,
            "sum", key("gap_osc_drude", t, alpha, ratio))
    return ops


def known_defects() -> list[Op]:
    """Library calls at fixed inputs where the program is known to be wrong.

    See the module docstring; every call here that fails is a known defect,
    and the count drops as the defects are fixed.
    """
    import qbrownian.free_particle as fp
    import qbrownian.matsubara as mats
    import qbrownian.oscillator as osc
    import qbrownian.quadrature as quad
    from qbrownian.core import Tolerances

    spectral_tol = Tolerances(quad_abs=SPECTRAL_QUAD_ABS)
    ops: list[Op] = []

    def add(label, fn, tol, ref_key):
        ops.append(Op(label=label, run=fn,
                      checks=lambda value: [Check(tol, float(value), ref_key)]))

    for theta in np.logspace(-4.0, math.log10(2.0), 40, endpoint=False):
        t = float(theta)
        add(f"drude_specific_heat r=4 theta={t:.6g}",
            lambda t=t: fp.drude_specific_heat(t, 4.0).C,
            "closed", key("c_free_drude", t, 4.0))
    for alpha in (4.0, 4.5, 5.0, 5.5, 6.0):
        for theta in np.logspace(-4.0, math.log10(5e-4), 8, endpoint=False):
            t = float(theta)
            add(f"damped_entropy alpha={alpha:g} theta={t:.6g}",
                lambda t=t, a=alpha: osc.damped_entropy(t, a).S,
                "closed", key("s_damped", t, alpha))
    for theta in np.logspace(1.0, math.log10(21.0), 40):
        t = float(theta)
        add(f"specific_heat_fd(spectral_energy) theta={t:.6g}",
            lambda t=t: mats.specific_heat_fd(
                lambda u: quad.spectral_energy(u, 1.0, spectral_tol)[0], t,
                rel_step=SPECTRAL_STEP).value,
            "fd_spectral", key("c_damped", t, 1.0))
    return ops


BUILDERS = {
    "closed_forms": closed_forms,
    "sum_datasets": sum_datasets,
    "route_crosscheck": route_crosscheck,
}
# the library workload's entry point is the package, the others' the CLI
ENTRY = {"closed_forms": "cli", "sum_datasets": "cli", "route_crosscheck": "lib"}
