"""Float calls answer alike under numpy's default error settings and under a
caller's np.errstate(all="raise").

Each float path that can meet an overflow or an underflow runs its numpy
work under its own np.errstate(all="ignore"): the sums' terms underflow at
theta ~ 1e250, and the moments' Bose factor overflows on the outer nodes at
low and at high theta.  Without that, a caller who sets numpy to raise would
get a FloatingPointError where the library answers or refuses by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from qbrownian import (DampingKernel, PoleSum, Prescription, Tolerances,
                       damped_specific_heat, energy_sum, moments,
                       position_variance_sum, prescription_gap, specific_heat_fd,
                       spectral_energy)

OHMIC = DampingKernel.ohmic(1.0)
DRUDE = DampingKernel.drude(1.0, 10.0)
ENERGY, PARTITION = Prescription.ENERGY, Prescription.PARTITION
NUMPY_DEFAULTS = dict(divide="warn", over="warn", under="ignore", invalid="warn")
# the route cross-check's spectral finite difference: its quadrature target
SPECTRAL_TOL = Tolerances(quad_abs=1e-11)

CALLS = {
    "energy_sum ohmic theta=1e300": lambda: energy_sum(1.0, OHMIC, 1e-300, ENERGY),
    "energy_sum drude theta=1e300": lambda: energy_sum(1.0, DRUDE, 1e-300, ENERGY),
    "energy_sum drude partition theta=0.37":
        lambda: energy_sum(1.0, DRUDE, 1.0 / 0.37, PARTITION),
    "prescription_gap theta=1e200": lambda: prescription_gap(1.0, DRUDE, 1e-200),
    "position_variance_sum theta=1e250": lambda: position_variance_sum(1e250, 1.0),
    "moments theta=0.05": lambda: moments(0.05, 1.0),
    "moments theta=1e5": lambda: moments(1e5, 1.0),
    "moments theta=1e-3": lambda: moments(1e-3, 1.0),
    "moments theta=5 quad_abs=1e-11": lambda: moments(5.0, 1.0, SPECTRAL_TOL),
    "specific_heat_fd(spectral_energy) theta=10": lambda: specific_heat_fd(
        lambda u: spectral_energy(u, 1.0, SPECTRAL_TOL)[0], 10.0, rel_step=3e-4),
    # the cross-check's coldest sums: the gap's 255-term head is one chunk
    "position_variance_sum theta=0.05": lambda: position_variance_sum(0.05, 1.0),
    "prescription_gap drude theta=0.05": lambda: prescription_gap(1.0, DRUDE, 1.0 / 0.05),
    "damped_specific_heat theta=0.37": lambda: damped_specific_heat(0.37, 1.0),
    "PoleSum.heat theta=0.37": lambda: PoleSum(1.0, DRUDE, PARTITION).heat(0.37),
    "specific_heat_fd(energy_sum) theta=0.37": lambda: specific_heat_fd(
        lambda u: energy_sum(1.0, DRUDE, 1.0 / u, ENERGY).value, 0.37),
    "specific_heat_fd(energy_sum) theta=1e250": lambda: specific_heat_fd(
        lambda u: energy_sum(1.0, DRUDE, 1.0 / u, ENERGY).value, 1e250),
}


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}({str(exc)!r})"


@pytest.mark.parametrize("name", list(CALLS))
def test_float_calls_ignore_the_callers_error_settings(name):
    call = CALLS[name]
    with np.errstate(**NUMPY_DEFAULTS):
        quiet = _outcome(call)
    with np.errstate(all="raise"):
        loud = _outcome(call)
    assert loud == quiet
    assert "FloatingPointError" not in quiet


def test_the_refusals_among_them_are_the_librarys_own():
    # the two refusals name their cause, as the library words it
    assert _outcome(CALLS["prescription_gap theta=1e200"]).startswith(
        "ConvergenceError('at theta=1e+200: frequency sum error bar")
    assert _outcome(CALLS["moments theta=1e5"]).startswith(
        "ConvergenceError('f_0 error bar")
