"""Print one `name us cal_us` line per float library call: its best time of N,
in us as measured and in calibrated us.

The calls are those that the benchmark's route cross-check makes (alpha = 1,
cutoff ratio 10), each at theta = 0.05, 1 and 10: the ends of the
cross-check's range (at 0.05 the Drude gap adds a 255-term head, past the
64-term minimum; at 10 the moments reach a third step size) and its central
draw.  After them come the free particle's closed forms,
building the Drude oscillator's PoleSum, and its energy and heat, at
theta = 1.  A line is named `name[theta=x]`, or `PoleSum` for the build.
Each call runs once before it is timed, so that its caches are full, and
each of the N repeats times a fixed number of calls; the line gives the best
repeat's time per call.  The benchmark's calibration kernel
(benchmarks/run.py) is timed before the first repeat and after each one, and
cal_us scales the best time by the kernel's best as the benchmark scales
wall_s: to a host on which the kernel takes CAL_NOMINAL_S.  A stretch in
which a shared host runs slower slows the kernel too, so cal_us compares two
checkouts on one host where the raw us may not.

    PYTHONPATH=src python3 scripts/call_costs.py [N]      # N defaults to 7
"""

import os
import sys
import timeit

# benchmarks/run.py's calibration kernel, imported before numpy is: run.py
# sets numpy's thread count on import, as the benchmark runs it
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmarks"))
from run import calibrated, calibration_s  # noqa: E402

from qbrownian import (DampingKernel, PoleSum, Prescription, Tolerances,  # noqa: E402
                       damped_entropy, damped_specific_heat,
                       damped_specific_heat_via_entropy, drude_specific_heat,
                       energy_sum, moments, ohmic_specific_heat,
                       position_variance_sum, prescription_gap, specific_heat_fd,
                       spectral_energy)

THETAS, ALPHA, RATIO = (0.05, 1.0, 10.0), 1.0, 10.0
CALLS_PER_REPEAT = 1000
# the benchmark's spectral finite difference: its quadrature target and step
SPECTRAL_TOL, SPECTRAL_STEP = Tolerances(quad_abs=1e-11), 3e-4


def crosscheck_calls(theta: float) -> list:
    ohmic = DampingKernel.ohmic(ALPHA)
    drude = DampingKernel.drude(ALPHA, RATIO * ALPHA)
    energy = Prescription.ENERGY
    beta = 1.0 / theta
    calls = [
        ("damped_specific_heat", lambda: damped_specific_heat(theta, ALPHA)),
        ("damped_specific_heat_via_entropy",
         lambda: damped_specific_heat_via_entropy(theta, ALPHA)),
        ("damped_entropy", lambda: damped_entropy(theta, ALPHA)),
        ("energy_sum", lambda: energy_sum(1.0, ohmic, beta, energy)),
        ("specific_heat_fd(energy_sum)", lambda: specific_heat_fd(
            lambda u: energy_sum(1.0, ohmic, 1.0 / u, energy).value, theta)),
        ("spectral_energy", lambda: spectral_energy(theta, ALPHA, SPECTRAL_TOL)),
        ("specific_heat_fd(spectral_energy)", lambda: specific_heat_fd(
            lambda u: spectral_energy(u, ALPHA, SPECTRAL_TOL)[0], theta,
            rel_step=SPECTRAL_STEP)),
        ("position_variance_sum", lambda: position_variance_sum(theta, ALPHA)),
        ("moments", lambda: moments(theta, ALPHA)),
        ("prescription_gap", lambda: prescription_gap(1.0, drude, beta)),
    ]
    return [(f"{name}[theta={theta:g}]", call) for name, call in calls]


def calls() -> list:
    drude = DampingKernel.drude(ALPHA, RATIO * ALPHA)
    poles = PoleSum(1.0, drude, Prescription.ENERGY)
    return [*(call for theta in THETAS for call in crosscheck_calls(theta)),
            ("ohmic_specific_heat[theta=1]", lambda: ohmic_specific_heat(1.0)),
            ("drude_specific_heat[theta=1]", lambda: drude_specific_heat(1.0, RATIO)),
            ("PoleSum", lambda: PoleSum(1.0, drude, Prescription.ENERGY)),
            ("PoleSum.energy[theta=1]", lambda: poles.energy(1.0)),
            ("PoleSum.heat[theta=1]", lambda: poles.heat(1.0))]


def main(argv: list) -> int:
    repeats = int(argv[0]) if argv else 7
    if repeats < 1:
        raise SystemExit(f"N must be a positive count, got {repeats}")
    for name, call in calls():
        call()
        kernels, times = [calibration_s()], []
        for _ in range(repeats):
            times.append(timeit.timeit(call, number=CALLS_PER_REPEAT))
            kernels.append(calibration_s())
        us = min(times) / CALLS_PER_REPEAT * 1e6
        print(f"{name} {us:.2f} {calibrated(us, min(kernels)):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
