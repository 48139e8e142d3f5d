"""Thermodynamics of a free quantum Brownian particle.

With no confining frequency, the damping rate is the only scale: here
theta = k_B T / (hbar gamma), energies are in hbar gamma, and C is in k_B.
The strictly ohmic specific heat depends on the single ratio a = 1/(2 pi theta);
a Drude cutoff enters through r = omega_D / gamma via the pair

    z_pm = (r / (4 pi theta)) * (1 +- sqrt(1 - 4/r)),

complex conjugates for r < 4 and real for r > 4, which drude_specific_heat
takes from the private _drude_pair.  C interpolates between the classical
kinetic value 1/2 at high temperature and a linear-in-T vanishing at low
temperature with the cutoff-independent slope pi/3; lowering the cutoff
weakens the effective damping and raises C toward 1/2 everywhere else.

Every function here takes theta as a float or as an ndarray of temperatures
(the cutoff ratio stays one value, taken as a double) and returns floats or
arrays to match.
"""

from __future__ import annotations

import cmath
import math

from .core import TWO_PI, DomainError, ThermoPoint, checked_real, gridwise
from .specfun import _tetragamma, _trigamma

_DEGENERATE_BAND = 1e-10


@gridwise
def ohmic_specific_heat(theta) -> ThermoPoint:
    """C/k_B = 1/2 - a + a^2 psi'(1 + a), a = 1/(2 pi theta), strict ohmic.

    Monotonically increasing in theta, bounded by the classical 1/2, and
    linear with slope pi/3 at low temperature.
    """
    a = 1.0 / (TWO_PI * theta)
    term = a * a * _trigamma(1.0 + a).real
    heat = checked_real(0.5 - a + term, 0.5 + a + abs(term), "specific heat",
                        theta=theta)
    return ThermoPoint(C=heat)


@gridwise
def ohmic_lowT_expansion(theta):
    """Two-term low-temperature series (pi/3) theta - (4 pi^3/15) theta^3."""
    return (math.pi / 3.0) * theta - (4.0 * math.pi ** 3 / 15.0) * theta ** 3


def _drude_pair(theta, cutoff_ratio: float):
    # (z0, s, z_+, z_-) with z_pm = z0 (1 +- s) and s = sqrt(1 - 4/r), for
    # a checked theta and a positive, finite cutoff_ratio
    z0 = cutoff_ratio / (2.0 * TWO_PI * theta)
    s = cmath.sqrt(complex(1.0 - 4.0 / cutoff_ratio, 0.0))
    return z0, s, z0 * (1.0 + s), z0 * (1.0 - s)


@gridwise
def drude_specific_heat(theta, cutoff_ratio: float) -> ThermoPoint:
    """Specific heat with a Drude cutoff; dispatches to ohmic at inf.

    C/k_B = 1/2 - a [z_+ psi'(1+z_+) - z_- psi'(1+z_-)] / (z_+ - z_-) * 2 z_0,
    written through s = sqrt(1 - 4/r).  The s -> 0 degeneracy at r = 4 is a
    removable 0/0; inside a narrow band it is evaluated through the limit
    2 z_0 [psi'(1+z_0) + z_0 psi''(1+z_0)].  Raises ConvergenceError where
    roundoff would leave less than six digits, below theta ~ 1e-5.
    """
    if type(cutoff_ratio) is not float:
        cutoff_ratio = float(cutoff_ratio)
    if not cutoff_ratio > 0.0:
        raise DomainError(
            f"cutoff_ratio must be positive (inf = ohmic), got {cutoff_ratio!r}")
    if cutoff_ratio == math.inf:
        return ohmic_specific_heat(theta)
    a = 1.0 / (TWO_PI * theta)
    z0, s, z_plus, z_minus = _drude_pair(theta, cutoff_ratio)
    if abs(1.0 - 4.0 / cutoff_ratio) < _DEGENERATE_BAND:
        psi1 = _trigamma(1.0 + z0).real
        psi2 = _tetragamma(1.0 + z0).real
        bracket_over_s = 2.0 * z0 * (psi1 + z0 * psi2)
        total = 0.5 - a * bracket_over_s
        magnitude = 0.5 + 2.0 * a * z0 * (abs(psi1) + z0 * abs(psi2))
    else:
        t_plus = z_plus * _trigamma(1.0 + z_plus)
        t_minus = z_minus * _trigamma(1.0 + z_minus)
        total = 0.5 - a * (t_plus - t_minus) / s
        magnitude = 0.5 + a * (abs(t_plus) + abs(t_minus)) / abs(s)
    heat = checked_real(total, magnitude, "specific heat", theta=theta,
                        cutoff_ratio=cutoff_ratio)
    return ThermoPoint(C=heat)
