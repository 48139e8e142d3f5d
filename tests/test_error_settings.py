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

from qbrownian import (DampingKernel, PoleSum, Prescription, damped_specific_heat,
                       energy_sum, moments, position_variance_sum, prescription_gap,
                       specific_heat_fd)

OHMIC = DampingKernel.ohmic(1.0)
DRUDE = DampingKernel.drude(1.0, 10.0)
ENERGY, PARTITION = Prescription.ENERGY, Prescription.PARTITION
NUMPY_DEFAULTS = dict(divide="warn", over="warn", under="ignore", invalid="warn")

CALLS = {
    "energy_sum ohmic theta=1e300": lambda: energy_sum(1.0, OHMIC, 1e-300, ENERGY),
    "energy_sum drude theta=1e300": lambda: energy_sum(1.0, DRUDE, 1e-300, ENERGY),
    "energy_sum drude partition theta=0.37":
        lambda: energy_sum(1.0, DRUDE, 1.0 / 0.37, PARTITION),
    "prescription_gap theta=1e200": lambda: prescription_gap(1.0, DRUDE, 1e-200),
    "position_variance_sum theta=1e250": lambda: position_variance_sum(1e250, 1.0),
    "moments theta=0.05": lambda: moments(0.05, 1.0),
    "moments theta=1e5": lambda: moments(1e5, 1.0),
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
