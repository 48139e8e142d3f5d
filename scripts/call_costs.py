"""Print one `name us` line per float library call: its best time of N, in us.

The calls are those that the benchmark's route cross-check makes, at its
central draw (alpha = 1, cutoff ratio 10, theta = 1, where a frequency sum
adds its 64-term minimum head), plus the free particle's closed forms,
building the Drude oscillator's PoleSum, and its energy and heat.  Each call
runs once before it is timed, so that its caches are full, and each of the N
repeats times a fixed number of calls; the line gives the best repeat's time
per call.  Comparing two checkouts on one host shows the fixed cost per float
call that a change saves or adds.

    PYTHONPATH=src python3 scripts/call_costs.py [N]      # N defaults to 7
"""

import sys
import timeit

from qbrownian import (DampingKernel, PoleSum, Prescription, Tolerances,
                       damped_entropy, damped_specific_heat,
                       damped_specific_heat_via_entropy, drude_specific_heat,
                       energy_sum, moments, ohmic_specific_heat,
                       position_variance_sum, prescription_gap, specific_heat_fd,
                       spectral_energy)

THETA, ALPHA, RATIO = 1.0, 1.0, 10.0
CALLS_PER_REPEAT = 1000
# the benchmark's spectral finite difference: its quadrature target and step
SPECTRAL_TOL, SPECTRAL_STEP = Tolerances(quad_abs=1e-11), 3e-4


def calls() -> list:
    ohmic = DampingKernel.ohmic(ALPHA)
    drude = DampingKernel.drude(ALPHA, RATIO * ALPHA)
    energy = Prescription.ENERGY
    poles = PoleSum(1.0, drude, energy)
    beta = 1.0 / THETA
    return [
        ("damped_specific_heat", lambda: damped_specific_heat(THETA, ALPHA)),
        ("damped_specific_heat_via_entropy",
         lambda: damped_specific_heat_via_entropy(THETA, ALPHA)),
        ("damped_entropy", lambda: damped_entropy(THETA, ALPHA)),
        ("energy_sum", lambda: energy_sum(1.0, ohmic, beta, energy)),
        ("specific_heat_fd(energy_sum)", lambda: specific_heat_fd(
            lambda u: energy_sum(1.0, ohmic, 1.0 / u, energy).value, THETA)),
        ("spectral_energy", lambda: spectral_energy(THETA, ALPHA, SPECTRAL_TOL)),
        ("specific_heat_fd(spectral_energy)", lambda: specific_heat_fd(
            lambda u: spectral_energy(u, ALPHA, SPECTRAL_TOL)[0], THETA,
            rel_step=SPECTRAL_STEP)),
        ("position_variance_sum", lambda: position_variance_sum(THETA, ALPHA)),
        ("moments", lambda: moments(THETA, ALPHA)),
        ("prescription_gap", lambda: prescription_gap(1.0, drude, beta)),
        ("ohmic_specific_heat", lambda: ohmic_specific_heat(THETA)),
        ("drude_specific_heat", lambda: drude_specific_heat(THETA, RATIO)),
        ("PoleSum", lambda: PoleSum(1.0, drude, energy)),
        ("PoleSum.energy", lambda: poles.energy(THETA)),
        ("PoleSum.heat", lambda: poles.heat(THETA)),
    ]


def main(argv: list) -> int:
    repeats = int(argv[0]) if argv else 7
    if repeats < 1:
        raise SystemExit(f"N must be a positive count, got {repeats}")
    for name, call in calls():
        call()
        best = min(timeit.repeat(call, number=CALLS_PER_REPEAT, repeat=repeats))
        print(f"{name} {best / CALLS_PER_REPEAT * 1e6:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
