"""Thermodynamics of a free quantum Brownian particle.

With no confining frequency, the damping rate is the only scale: here
theta = k_B T / (hbar gamma), energies are in hbar gamma, and C is in k_B.
The strictly ohmic specific heat is C = h(a) (specfun._h), a = 1/(2 pi theta);
a Drude cutoff enters through r = omega_D / gamma via the temperature-free pair

    x_pm = (r / 2) (1 +- s),  s = sqrt(1 - 4/r),

the roots of x^2 - r x + r: complex conjugates for r < 4 and real for r > 4,
where x_- is taken from the product x_+ x_- = r, as 1 - s would cancel.
drude_specific_heat evaluates h at a x_pm, once per pair below r = 4, where
the kernels' exact conjugate symmetry makes x_-'s term the conjugate of
x_+'s.  At r = 4 and in a narrow band above it the same evaluation with
s = 1e-10 i gives the confluent limit.
C interpolates between the classical kinetic value 1/2 at high temperature
and a linear-in-T vanishing at low temperature with the cutoff-independent
slope pi/3; lowering the cutoff weakens the effective damping and raises C
toward 1/2 everywhere else.

Every function here takes theta as a float or as an ndarray of temperatures
(the cutoff ratio stays one value, taken as a double) and returns floats or
arrays to match.
"""

from __future__ import annotations

import cmath
import math
import sys

from .core import TWO_PI, DomainError, ThermoPoint, checked_real, gridwise
from .specfun import _h

_DEGENERATE_BAND = 1e-10


@gridwise
def ohmic_specific_heat(theta) -> ThermoPoint:
    """C/k_B = h(a) = 1/2 - a + a^2 psi'(1 + a), a = 1/(2 pi theta), strict ohmic.

    Monotonically increasing in theta, bounded by the classical 1/2, and
    linear with slope pi/3 at low temperature.
    """
    return ThermoPoint(C=_h(1.0 / (TWO_PI * theta)).real)


@gridwise
def ohmic_lowT_expansion(theta):
    """Two-term low-temperature series (pi/3) theta - (4 pi^3/15) theta^3."""
    return (math.pi / 3.0) * theta - (4.0 * math.pi ** 3 / 15.0) * theta ** 3


def _drude_pair(cutoff_ratio: float):
    # (s, x_+, x_-) for a positive, finite cutoff_ratio; x_- = r / x_+ above
    # r = 4, and the conjugate of x_+ below
    s = cmath.sqrt(complex(1.0 - 4.0 / cutoff_ratio, 0.0))
    x_plus = 0.5 * cutoff_ratio * (1.0 + s)
    return s, x_plus, x_plus.conjugate() if cutoff_ratio <= 4.0 else cutoff_ratio / x_plus


@gridwise
def drude_specific_heat(theta, cutoff_ratio: float) -> ThermoPoint:
    """Specific heat with a Drude cutoff; dispatches to ohmic at inf.

    C/k_B = -[h(a x_+)/x_+ - h(a x_-)/x_-] / s, a = 1/(2 pi theta), which is
    1/2 - a [z_+ psi'(1+z_+) - z_- psi'(1+z_-)] / s at z_pm = a x_pm.  A
    complex pair (r < 4) is evaluated once, at x_+ = (r/2)(1 + i w), w = |s|:
    its terms are conjugates, so C is exactly -2 Im(h(a x)/x) / w.
    The 0/0 at r = 4 is removable; there and in the band 0 <= 1 - 4/r <
    1e-10 the same evaluation with w = 1e-10 gives the limit to O(w^2, s^2).
    """
    if type(cutoff_ratio) is not float:
        cutoff_ratio = float(cutoff_ratio)
    if not cutoff_ratio > 0.0:
        raise DomainError(
            f"cutoff_ratio must be positive (inf = ohmic), got {cutoff_ratio!r}")
    if cutoff_ratio == math.inf:
        return ohmic_specific_heat(theta)
    a = 1.0 / (TWO_PI * theta)
    s, x_plus, x_minus = _drude_pair(cutoff_ratio)
    if 1.0 - 4.0 / cutoff_ratio < _DEGENERATE_BAND:
        # s = i|s| for a complex pair, and real and below 1e-5 in the band
        width = s.imag or _DEGENERATE_BAND
        x = 0.5 * cutoff_ratio * complex(1.0, width)
        value = _h(a * x)
        total = -2.0 * (value / x).imag / width
        # the two products that form Im(h/x); the smallest normal double stands
        # in for an Im h that underflowed, so that such a value refuses
        magnitude = 2.0 * (x.real * (abs(value.imag) + sys.float_info.min)
                           + x.imag * abs(value)) / (width * abs(x) ** 2)
    else:
        t_plus, t_minus = _h(a * x_plus) / x_plus, _h(a * x_minus) / x_minus
        total = (t_minus - t_plus) / s
        magnitude = (abs(t_plus) + abs(t_minus)) / abs(s)
    heat = checked_real(total, magnitude, "specific heat", theta=theta,
                        cutoff_ratio=cutoff_ratio)
    return ThermoPoint(C=heat)
