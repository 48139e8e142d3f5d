"""Print one `label repr(value-or-exception)` line per library call.

Diffing the output of two checkouts is a bit-identity check for a refactor:
a change that keeps every value and every error keeps every line.  The calls
cover the special-function kernels on complex numbers and on arrays, every
closed form, characteristic pair and expansion as a float call and on a
grid (grids with non-positive elements included; the damping and cutoff
ratios on both sides of where the pair stops being conjugate, alpha = 2 and
r = 4), PoleSum.energy/.heat for
ten systems under both prescriptions (one with a float32 cutoff), with theta
out to 1e-320 and 1e300, each function of theta also at numpy temperatures
(float32 and float64 scalars, a 0-d float32 array, a float32 grid), the
term-by-term frequency sums and their finite-difference specific heat as
(value, err, terms_used) out to theta = 1e300, the same sums at zero
coupling under either kernel, the variance sum on grids, PoleSum.energy/.heat
of eight of the systems with rates and theta scaled by 2^+-500 and 1e+-150,
and their term-by-term sums and gap scaled by 1e250 and 1e300,
the finite difference of energies that are not finite or whose difference
overflows, the points of `compare` through cli.main (which sums on whole
grids), and the spectral moments and energy of the quadrature route.  Last
come the forms whose small root or underflow-prone factor once lost digits:
drude_specific_heat at cutoff ratios 1e10, 1e17 and 1e300, PoleSum for the
free particle at 1e300, and undamped_thermo at 1/theta = 705, 710 and 720,
then drude_specific_heat at r = 4 (1 +- 10^-k), k = 6, 8, 10 and 12, for
theta = 1e-4, 1e-3 and 1e-2, and the lines of `curve --quantities C,S,E`
through cli.main for each model, kernel (Drude ratios 0.1, 4 and 10) and
route on a 5-point log grid over [1e-4, 1e4], which show the closed form or
pole form that curve picks per column, and last the kernels on real floats
and float64 arrays and PoleSum.energy/.heat/.entropy of two systems whose
poles are all real (the free particle at cutoff ratio 10, the ohmic
oscillator at alpha = 5); each appended, so that a dump still lines up with
an older checkout's.  Arrays print through tolist(), so each element shows its
full repr; an error prints as its class and message, and a failing command
as its exit code and message.

    PYTHONPATH=src python3 scripts/repr_dump.py > dump.txt
"""

import contextlib
import io
import json
import math

import numpy as np

from qbrownian import (DampingKernel, PoleSum, Prescription, ThermoPoint,
                       Tolerances, damped_entropy, damped_specific_heat,
                       damped_specific_heat_via_entropy, drude_specific_heat,
                       energy_sum, ohmic_lowT_expansion, moments,
                       ohmic_specific_heat, oscillator_expansion,
                       position_variance_sum, prescription_gap,
                       specific_heat_fd, spectral_energy, undamped_thermo)
from qbrownian.cli import main as cli_main
from qbrownian.core import where
from qbrownian.free_particle import _drude_pair
from qbrownian.oscillator import _lambda_pm
from qbrownian.specfun import (_G, _HALF_LOG_TWO_PI, _K, _LN_GAMMA, _digamma, _g_terms,
                               _h, _log, _push, _series)

ARGUMENTS = [0.5, 1.0, 10.0, 25.5, 1e-300, 1e200, -0.5, 3.7 + 2.1j, 0.5 + 5j,
             2.5 - 1.3j, -3.5 + 0.1j, 1e-10j, 1e8 + 1e8j, 1e300 + 1e300j]
BAD_ARGUMENTS = [0.0, -2.0, math.nan, math.inf, complex(math.inf, math.nan)]

THETAS = [1e-320, 1e-307, 1e-300, 1e-200, 1e-163, 3e-163, 1e-162, 1e-160, 1e-155,
          1e-120, 1e-100, 1e-20, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1,
          0.37, 0.5, 1.0, 1.5, 2.0, 7.3, 10.0, 100.0, 1e4, 1e6, 1e9, 1e12, 1e16,
          1e17, 1e100, 1e154, 1e200, 1e300]
BAD_THETAS = [0.0, -1.0, math.inf, math.nan]
GRID = np.logspace(-4.0, 4.0, 41)
# grids with more than one non-positive element: the error names the first
# in C order
NON_POSITIVE_GRIDS = [[0.5, -1.0, 0.0], [[2.0, 0.0], [-1.0, 0.5]]]

# at 1e-4 a Drude system's head (127324 terms) is added in two chunks
SUM_THETAS = [1e-8, 1e-4, 1e-3, 0.05, 0.37, 1.0, 20.0]
# temperatures at which nu^2 overflows in the head of every sum, from about
# theta = 1e154 on
HOT_SUM_THETAS = [1e154, 1e200, 1e300]

# the two golden inputs of compare, the two of the benchmark's sum_datasets
# at seed 0, a grid over four decades, whose rows sum heads of different
# lengths, and a grid whose sums refuse at their term cap
COMPARE_ARGS = {
    "golden-free-ohmic": ["--model", "free", "--tmin", "0.5", "--tmax", "2",
                          "--points", "5"],
    "golden-osc-drude": ["--model", "oscillator", "--kernel", "drude",
                         "--cutoff-ratio", "10", "--log", "--tmin", "0.2",
                         "--tmax", "5", "--points", "5"],
    "sum-datasets-osc-drude": ["--model", "oscillator", "--kernel", "drude",
                               "--alpha", "1.0", "--cutoff-ratio", "10.0", "--log",
                               "--tmin", "0.1", "--tmax", "10.0", "--points", "20"],
    "sum-datasets-free-drude": ["--model", "free", "--kernel", "drude",
                                "--cutoff-ratio", "10.0", "--log", "--tmin", "0.1",
                                "--tmax", "10.0", "--points", "20"],
    "multi-decade-osc-drude": ["--model", "oscillator", "--kernel", "drude", "--log",
                               "--tmin", "1e-3", "--tmax", "10", "--points", "20"],
    "refusing": ["--model", "oscillator", "--kernel", "drude", "--points", "2",
                 "--tmin", "1e-8", "--tmax", "1e-7"],
}

# zero coupling under either kernel: no bath, so the free particle's sums
# vanish term by term and the gap is zero
UNCOUPLED = {
    "osc-ohmic-0": (1.0, DampingKernel.ohmic(0.0)),
    "osc-drude-0": (1.0, DampingKernel.drude(0.0, 10.0)),
    "free-ohmic-0": (0.0, DampingKernel.ohmic(0.0)),
    "free-drude-0": (0.0, DampingKernel.drude(0.0, 10.0)),
}
UNCOUPLED_THETAS = [1e-300, 1e-200, 1e-163, 1e-9, 1e-3, 1.0, 1e200, 1e300]

SPECTRAL_THETAS = [1e-295, 1e-3, 0.05, 0.37, 1.0, 7.3, 15.8, 20.0, 21.0, 1e3, 1e300]
SPECTRAL_ALPHAS = [1e-10, 1e-3, 1.0, 2.0, 5.0, 1e136]
QUAD_ABS = [1e-10, 1e-11, 1e-16]

# cutoff ratios where 1 - sqrt(1 - 4/r) would cancel, and 1/theta where the
# undamped S and C are (nearly) the smallest normal doubles
LARGE_RATIOS = [1e10, 1e17, 1e300]
COLD_X = [705, 710, 720]
# cutoff ratios within 1e-6 to 1e-12 of the critical r = 4, on either side,
# at the temperatures where the pair's terms cancel most
NEAR_CRITICAL_RATIOS = [4.0 * (1.0 + sign * 10.0 ** -k)
                        for k in (6, 8, 10, 12) for sign in (-1.0, 1.0)]
NEAR_CRITICAL_THETAS = [1e-4, 1e-3, 1e-2]

CURVE_KERNELS = {"ohmic": [], **{f"drude-r{ratio}": ["--kernel", "drude",
                                                    "--cutoff-ratio", ratio]
                                 for ratio in ("0.1", "4", "10")}}

ALPHA_TRIPLE = 8.0 / (3.0 * math.sqrt(3.0))
SYSTEMS = {
    "osc-ohmic-1": (1.0, DampingKernel.ohmic(1.0)),
    "osc-ohmic-critical": (1.0, DampingKernel.ohmic(2.0)),
    "osc-undamped": (1.0, DampingKernel.ohmic(0.0)),
    "osc-drude": (1.0, DampingKernel.drude(1.0, 10.0)),
    "osc-drude-triple": (1.0, DampingKernel.drude(ALPHA_TRIPLE, 3.0 * math.sqrt(3.0))),
    "free-ohmic": (0.0, DampingKernel.ohmic(1.0)),
    "free-drude-critical": (0.0, DampingKernel.drude(1.0, 4.0)),
    "free-drude-1": (0.0, DampingKernel.drude(1.0, 1.0)),
    # a single-precision cutoff, taken as the double of its value: the same
    # lines as its float twin's
    "osc-drude-0.37": (1.0, DampingKernel.drude(0.37, 10.0)),
    "osc-drude-0.37-float32": (1.0, DampingKernel.drude(0.37, np.float32(10.0))),
}

# rates and theta scaled by one factor scale the energies and the gap by it
# and leave C as it is; the float32 cutoff's twin would overflow
SCALED_SYSTEMS = list(SYSTEMS)[:8]
POLE_SCALES = [2.0 ** 500, 2.0 ** -500, 1e150, 1e-150]
SUM_SCALES = [1e250, 1e300]


def show(value) -> str:
    if isinstance(value, np.ndarray):
        return repr(value.tolist())
    if isinstance(value, ThermoPoint):
        return "ThermoPoint(" + ", ".join(
            f"{q}={show(getattr(value, q))}" for q in ("Z", "E", "S", "C")) + ")"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(show, value)) + ")"
    return repr(value)


def emit(label: str, fn, *args) -> None:
    try:
        text = show(fn(*args))
    except Exception as exc:
        text = f"{type(exc).__name__}({str(exc)!r})"
    print(label, text)


def _trigamma(z):
    # psi'(z) = 1/z + (1/2 + h(z)) / z^2, which h sums without cancellation
    return (1.0 + (0.5 + _h(z)) / z) / z


def _ln_gamma(z):
    # ln Gamma(z): Stirling's series at z + k less sum_j ln(z + j), j < k,
    # from a push of its own, in an older checkout's order, so that a dump
    # lines up with its
    w, logs = _push(z, _log)
    rw = 1.0 / w
    return ((w - 0.5) * _log(w) - w + _HALF_LOG_TWO_PI
            + _series(rw, rw * rw, _LN_GAMMA)) - logs


def _g(z):
    # g(z) = ln Gamma(1 + z) - z psi(1 + z), the sum of _g_terms; g(0) = 0
    # exactly, not the roundoff of ln Gamma(1)
    stirling, minus_logs, minus_z_psi = _g_terms(z)
    return where(z == 0, 0.0j, stirling + minus_logs + minus_z_psi)


def special_functions() -> None:
    # labelled, and called on complex(z), as the checked scalar functions
    # they once backed were, so that a dump lines up with an older checkout's
    scalars = [("ln_gamma", _ln_gamma), ("digamma", _digamma), ("trigamma", _trigamma),
               ("g_func", _g), ("polygamma_0", _digamma),
               ("polygamma_1", _trigamma)]
    kernels = [("_ln_gamma", _ln_gamma), ("_digamma", _digamma),
               ("_trigamma", _trigamma), ("_g", _g), ("_h", _h), ("_G", _G)]
    # the kernels overflow on some of these arguments, as the values show
    with np.errstate(all="ignore"):
        for name, fn in scalars:
            for z in ARGUMENTS + BAD_ARGUMENTS:
                emit(f"{name}({z!r})", fn, complex(z))
        good = np.array(ARGUMENTS, dtype=complex)
        for name, fn in kernels:
            emit(f"{name}[arguments]", fn, good)
            emit(f"{name}[arguments].T", fn, np.stack([good, good.conj()]).T)
            for z in BAD_ARGUMENTS:
                emit(f"{name}[1, {z!r}]", fn, np.array([1.0, z], dtype=complex))


def quietly(fn):
    # the private pair functions run outside gridwise's np.errstate, and
    # overflow at theta 0, 1e-320 and the like, as the values show
    def call(*args):
        with np.errstate(all="ignore"):
            return fn(*args)
    return call


def closed_forms() -> list:
    lambda_pm, drude_pair = quietly(_lambda_pm), quietly(_drude_pair)
    forms = [("undamped_thermo", undamped_thermo)]
    # the characteristic pairs are conjugate up to alpha = 2 and below r = 4,
    # so each edge is dumped on both sides
    for alpha in (0.0, 0.5, 1.0, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 5.0, 1e3):
        forms += [
            (f"lambda_pm alpha={alpha}", lambda t, a=alpha: lambda_pm(t, a)[:2]),
            (f"damped_specific_heat alpha={alpha}",
             lambda t, a=alpha: damped_specific_heat(t, a)),
            (f"damped_entropy alpha={alpha}", lambda t, a=alpha: damped_entropy(t, a)),
            (f"damped_specific_heat_via_entropy alpha={alpha}",
             lambda t, a=alpha: damped_specific_heat_via_entropy(t, a))]
    for ratio in (0.01, 1.0, 4.0 - 1e-7, 4.0, 4.0 + 1e-7, 10.0, math.inf):
        forms.append((f"drude_specific_heat r={ratio}",
                      lambda t, r=ratio: drude_specific_heat(t, r)))
        forms.append((f"drude_x_pm r={ratio}", lambda t, r=ratio: drude_pair(r)[1:]))
    forms += [("ohmic_specific_heat", ohmic_specific_heat),
              ("ohmic_lowT_expansion", ohmic_lowT_expansion)]
    for kind in ("undamped_lowT", "undamped_highT", "damped_lowT", "damped_highT"):
        for alpha in (0.0, 1.3):
            forms.append((f"oscillator_expansion {kind} alpha={alpha}",
                          lambda t, k=kind, a=alpha: oscillator_expansion(k, t, a)))
    return forms


def pole_sums() -> list:
    forms = []
    for name, (omega0, kernel) in SYSTEMS.items():
        for route in Prescription:
            poles = PoleSum(omega0, kernel, route)
            forms += [(f"PoleSum {name} {route.value} energy", poles.energy),
                      (f"PoleSum {name} {route.value} heat", poles.heat)]
    return forms


def numpy_temperatures(name: str, fn) -> None:
    emit(f"{name} (np.float32(0.3))", fn, np.float32(0.3))
    emit(f"{name} (np.float64(1e-320))", fn, np.float64(1e-320))
    emit(f"{name} (0-d float32 0.3)", fn, np.array(0.3, dtype=np.float32))
    emit(f"{name} [grid float32]", fn, GRID.astype(np.float32))


def functions_of_theta(forms: list) -> None:
    for name, fn in forms:
        for theta in THETAS + BAD_THETAS:
            emit(f"{name} ({theta!r})", fn, theta)
            emit(f"{name} [1.0, {theta!r}]", fn, np.array([1.0, theta]))
        emit(f"{name} [grid]", fn, GRID)
        for grid in NON_POSITIVE_GRIDS:
            emit(f"{name} {grid!r}", fn, np.array(grid))
        numpy_temperatures(name, fn)


def estimate(result) -> tuple:
    return result.value, result.err, result.terms_used


def frequency_sums() -> None:
    for theta in SUM_THETAS + HOT_SUM_THETAS:
        beta = 1.0 / theta
        for name, (omega0, kernel) in SYSTEMS.items():
            for route in Prescription:
                emit(f"energy_sum {name} {route.value} ({theta!r})",
                     lambda: estimate(energy_sum(omega0, kernel, beta, route)))
                emit(f"specific_heat_fd energy_sum {name} {route.value} ({theta!r})",
                     lambda: estimate(specific_heat_fd(
                         lambda t: energy_sum(omega0, kernel, 1.0 / t, route).value,
                         theta)))
            emit(f"prescription_gap {name} ({theta!r})",
                 lambda: estimate(prescription_gap(omega0, kernel, beta)))
        for alpha in SPECTRAL_ALPHAS:
            emit(f"position_variance_sum ({theta!r}, {alpha!r})",
                 lambda: estimate(position_variance_sum(theta, alpha)))
    for alpha in SPECTRAL_ALPHAS:
        name = f"position_variance_sum alpha={alpha!r}"

        def variance(t, alpha=alpha):
            return estimate(position_variance_sum(t, alpha))

        grids = [SUM_THETAS, SUM_THETAS[1:], [1.0] + HOT_SUM_THETAS] + NON_POSITIVE_GRIDS
        for grid in grids:
            emit(f"{name} {grid!r}", variance, np.array(grid))
        numpy_temperatures(name, variance)
    # energies that are not finite, and finite ones whose difference overflows
    evaluators = {
        "nan": (lambda t: t * math.nan, lambda t: np.where(t < 0.5, np.nan, t)),
        "overflowing": (lambda t: 1e308 if t > 1.0 else -1e308,
                        lambda t: np.where(t > 1.0, 1e308, -1e308))}
    for name, (as_float, on_grid) in evaluators.items():
        emit(f"specific_heat_fd {name} (1.0)",
             lambda: estimate(specific_heat_fd(as_float, 1.0)))
        emit(f"specific_heat_fd {name} [2.0, 1.0, 0.2, 0.1]",
             lambda: estimate(specific_heat_fd(on_grid, np.array([2.0, 1.0, 0.2, 0.1]))))


def zero_coupling() -> None:
    for theta in UNCOUPLED_THETAS:
        beta = 1.0 / theta
        for name, (omega0, kernel) in UNCOUPLED.items():
            for route in Prescription:
                emit(f"energy_sum {name} {route.value} ({theta!r})",
                     lambda: estimate(energy_sum(omega0, kernel, beta, route)))
            emit(f"prescription_gap {name} ({theta!r})",
                 lambda: estimate(prescription_gap(omega0, kernel, beta)))


def scaled_pole_sum(omega0, kernel, route, what, theta):
    return getattr(PoleSum(omega0, kernel, route), what)(theta)


def scaled_systems() -> None:
    for name in SCALED_SYSTEMS:
        omega0, kernel = SYSTEMS[name]
        for k in POLE_SCALES + SUM_SCALES:
            w0, scaled = omega0 * k, DampingKernel(kernel.gamma * k, kernel.omega_d * k)
            for theta in SUM_THETAS:
                at, t = f"x{k!r} ({theta!r})", theta * k
                for route in Prescription:
                    if k in SUM_SCALES:
                        emit(f"energy_sum {name} {route.value} {at}",
                             lambda: estimate(energy_sum(w0, scaled, 1.0 / t, route)))
                        continue
                    for what in ("energy", "heat"):
                        emit(f"PoleSum {name} {route.value} {what} {at}",
                             scaled_pole_sum, w0, scaled, route, what, t)
                if k in SUM_SCALES:
                    emit(f"prescription_gap {name} {at}",
                         lambda: estimate(prescription_gap(w0, scaled, 1.0 / t)))


def cli(argv: list) -> tuple:
    """(exit code, stdout, stripped stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue().strip()


def compare_points() -> None:
    for name, args in COMPARE_ARGS.items():
        code, out, err = cli(["compare", *args])
        if code != 0:
            print(f"compare {name} exit {code}", err)
            continue
        for point in json.loads(out)["points"]:
            print(f"compare {name} ({point['theta']!r})", show(point))


def spectral() -> None:
    for quad_abs in QUAD_ABS:
        tol = Tolerances(quad_abs=quad_abs)
        for alpha in SPECTRAL_ALPHAS:
            for theta in SPECTRAL_THETAS:
                at = f"({theta!r}, {alpha!r}, quad_abs={quad_abs!r})"
                emit(f"moments.q2 {at}", lambda: moments(theta, alpha, tol).q2)
                emit(f"moments.p2_reg {at}", lambda: moments(theta, alpha, tol).p2_reg)
                emit(f"spectral_energy {at}", spectral_energy, theta, alpha, tol)


def small_roots_and_underflow() -> None:
    forms = [(f"drude_specific_heat r={ratio}",
              lambda t, r=ratio: drude_specific_heat(t, r)) for ratio in LARGE_RATIOS]
    for route in Prescription:
        poles = PoleSum(0.0, DampingKernel.drude(1.0, 1e300), route)
        forms += [(f"PoleSum free-drude-1e300 {route.value} energy", poles.energy),
                  (f"PoleSum free-drude-1e300 {route.value} heat", poles.heat)]
    functions_of_theta(forms)
    for x in COLD_X:
        emit(f"undamped_thermo (1/{x})", undamped_thermo, 1.0 / x)
    emit(f"undamped_thermo [1/x for x in {COLD_X!r}]", undamped_thermo,
         np.array([1.0 / x for x in COLD_X]))


def near_critical_cutoff() -> None:
    for ratio in NEAR_CRITICAL_RATIOS:
        for theta in NEAR_CRITICAL_THETAS:
            emit(f"drude_specific_heat r={ratio!r} ({theta!r})",
                 drude_specific_heat, theta, ratio)
        emit(f"drude_specific_heat r={ratio!r} {NEAR_CRITICAL_THETAS!r}",
             drude_specific_heat, np.array(NEAR_CRITICAL_THETAS), ratio)


def curve_columns() -> None:
    for model in ("oscillator", "free"):
        for kernel, args in CURVE_KERNELS.items():
            for route in ("energy", "partition", "both"):
                label = f"curve {model} {kernel} {route}"
                code, out, err = cli(["curve", "--model", model, *args, "--route", route,
                                      "--quantities", "C,S,E", "--log", "--tmin", "1e-4",
                                      "--tmax", "1e4", "--points", "5"])
                if code != 0:
                    print(f"{label} exit {code}", err)
                for line in out.splitlines():
                    print(label, line)


def real_kernels() -> None:
    # the kernels on real arguments, as floats and as float64 arrays, which
    # they compute in real arithmetic, and PoleSum's E, C and S on systems
    # whose every pole is real and simple
    reals = [z for z in ARGUMENTS if type(z) is float]
    kernels = [("_digamma", _digamma), ("_trigamma", _trigamma), ("_g", _g), ("_h", _h),
               ("_G", _G), ("_K", _K)]
    with np.errstate(all="ignore"):
        for name, fn in kernels:
            for z in reals + BAD_ARGUMENTS[:4]:
                emit(f"{name}({z!r})", fn, z)
            emit(f"{name}[real arguments]", fn, np.array(reals))
            for z in BAD_ARGUMENTS[:4]:
                emit(f"{name}[1.0, {z!r}]", fn, np.array([1.0, z]))
    forms = []
    for name, omega0, kernel in (("free-drude-10", 0.0, DampingKernel.drude(1.0, 10.0)),
                                 ("osc-ohmic-5", 1.0, DampingKernel.ohmic(5.0))):
        for route in Prescription:
            poles = PoleSum(omega0, kernel, route)
            forms += [(f"PoleSum {name} {route.value} {quantity}", getattr(poles, quantity))
                      for quantity in ("energy", "heat", "entropy")]
    functions_of_theta(forms)


def main() -> None:
    special_functions()
    functions_of_theta(closed_forms())
    functions_of_theta(pole_sums())
    frequency_sums()
    zero_coupling()
    scaled_systems()
    compare_points()
    spectral()
    small_roots_and_underflow()
    near_critical_cutoff()
    curve_columns()
    real_kernels()


if __name__ == "__main__":
    main()
