"""Reduced-unit conventions, shared tolerances, result types, domain checks and
error types.

All downstream modules work in units hbar = k_B = M = 1.  An oscillator
problem is measured against its own frequency: theta = k_B T / (hbar omega0)
and alpha = gamma / omega0.  A free Brownian particle has no omega0, so the
damping rate itself sets the scale and theta = k_B T / (hbar gamma).  A Drude
bath enters only through cutoff_ratio = omega_D / gamma; math.inf encodes the
strictly ohmic (memoryless) limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Parameter outside the physical domain of the requested quantity."""


class ConvergenceError(RuntimeError):
    """A series or quadrature could not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None,
                 requested: float | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


TWO_PI = 2.0 * math.pi
EPS = 2.0 ** -52            # machine epsilon of a double


@dataclass(frozen=True)
class Tolerances:
    """Numeric policy shared by the summation and quadrature engines.

    rel_sum_tail  relative tail target for frequency sums
    quad_abs      absolute target for spectral integrals
    """

    rel_sum_tail: float = 1e-12
    quad_abs: float = 1e-10

    def __post_init__(self):
        for name in ("rel_sum_tail", "quad_abs"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0.0 < value < 1.0):
                raise DomainError(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class Estimate:
    """A numerical estimate with its error bar.

    err is the error bar on value: the tail bound of a frequency sum, or the
    truncation-plus-roundoff estimate of a finite difference.  terms_used
    counts the summed terms (0 where nothing was summed); regularized marks a
    value that is defined only up to a temperature-independent constant.
    """

    value: float
    err: float
    terms_used: int = 0
    regularized: bool = False


@dataclass(frozen=True)
class ThermoPoint:
    """A closed-form state at reduced temperature theta; unset quantities stay None."""

    theta: float
    Z: float | None = None
    E: float | None = None
    S: float | None = None
    C: float | None = None


def check_positive(name: str, value: float) -> None:
    """Raise DomainError unless value is positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise DomainError unless value is >= 0 and finite."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be >= 0 and finite, got {value!r}")


ROUNDOFF_LIMIT = 1e-6       # relative to the result
ROUNDOFF_FLOOR = 1e-12      # absolute, in the result's units (k_B for C and S)


def checked_real(total: complex, magnitude: float, what: str, **params: float) -> float:
    """The real value of a cancelling sum of terms, or an error saying why not.

    Conjugate-pair combinations in the closed forms are exactly real in IEEE
    arithmetic, so a surviving imaginary part signals a formula or domain bug
    rather than roundoff and raises DomainError.  magnitude is the sum of the
    absolute values of the terms added up to total, so magnitude * eps
    estimates the roundoff left in it.  ConvergenceError, naming params as the
    inputs, is raised when the value is not finite or that roundoff exceeds
    both ROUNDOFF_LIMIT relative to |value| and ROUNDOFF_FLOOR.  The floor
    lets a result that is exponentially small in truth, such as the undamped
    specific heat at low temperature, pass with its tiny absolute error.
    """
    z = complex(total)
    if abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
        raise DomainError(f"{what} should be real, got imaginary part {z.imag!r}")
    value = z.real
    err = magnitude * EPS
    if math.isfinite(value) and (err <= ROUNDOFF_LIMIT * abs(value)
                                 or err <= ROUNDOFF_FLOOR):
        return value
    loss = err / abs(value) if value != 0.0 else math.inf
    where = ", ".join(f"{name}={x!r}" for name, x in params.items())
    raise ConvergenceError(
        f"{what} at {where} lost its digits to cancellation: estimated "
        f"relative roundoff {loss:.3g} exceeds {ROUNDOFF_LIMIT:g}",
        achieved=loss, requested=ROUNDOFF_LIMIT)
