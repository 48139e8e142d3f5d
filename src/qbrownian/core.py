"""Reduced-unit conventions, shared tolerances, result types, domain checks and
error types.

All downstream modules work in units hbar = k_B = M = 1.  An oscillator
problem is measured against its own frequency: theta = k_B T / (hbar omega0)
and alpha = gamma / omega0.  A free Brownian particle has no omega0, so the
damping rate itself sets the scale and theta = k_B T / (hbar gamma).  A Drude
bath enters only through cutoff_ratio = omega_D / gamma; math.inf encodes the
strictly ohmic (memoryless) limit.

The closed forms and PoleSum take theta as a float or as an ndarray of
temperatures; the helpers below (elementwise, where and the checks) let one
body of code serve both, with math and plain conditionals for a float, so a
float in gives exactly the float out that a scalar-only body would, and
gridwise gives an array's arithmetic the float's silent overflow.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np


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
    """A closed-form state at reduced temperature theta; unset quantities stay None.

    theta and the quantities are floats, or arrays of one shape when the
    closed form was given an array of temperatures.
    """

    theta: float | np.ndarray
    Z: float | np.ndarray | None = None
    E: float | np.ndarray | None = None
    S: float | np.ndarray | None = None
    C: float | np.ndarray | None = None


def elementwise(x):
    """The module of elementwise functions for x: numpy for an array, else math.

    Both provide exp, expm1, log, log1p and sinh under the same names.
    """
    return np if isinstance(x, np.ndarray) else math


def where(condition, if_true, if_false):
    """np.where for an array condition, a plain conditional for a bool.

    Both branches are evaluated by the caller, so each must be safe to
    evaluate where it is not selected.
    """
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def gridwise(fn):
    """Decorate a function of theta so that an array overflows as a float does.

    Float arithmetic overflows to inf or nan without a word, and the checks
    downstream (specfun's finiteness check, checked_real) then raise their
    own error; numpy warns first.  A call with an ndarray theta runs with
    numpy's floating-point warnings off, so each element of a grid meets the
    check that the float call meets.  A float theta goes straight through.
    """
    position = list(inspect.signature(fn).parameters).index("theta")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        theta = args[position] if len(args) > position else kwargs.get("theta")
        if isinstance(theta, np.ndarray):
            with np.errstate(all="ignore"):
                return fn(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _first_failing(value, ok: np.ndarray):
    # the first element of value where ok is False, as a Python scalar
    return value[~ok][0].item()


def check_positive(name: str, value) -> None:
    """Raise DomainError unless value, or each element of it, is positive and finite."""
    if isinstance(value, np.ndarray):
        ok = (value > 0.0) & np.isfinite(value)
        if ok.all():
            return
        value = _first_failing(value, ok)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Raise DomainError unless value, or each element of it, is >= 0 and finite."""
    if isinstance(value, np.ndarray):
        ok = (value >= 0.0) & np.isfinite(value)
        if ok.all():
            return
        value = _first_failing(value, ok)
    if not (value >= 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be >= 0 and finite, got {value!r}")


ROUNDOFF_LIMIT = 1e-6       # relative to the result
ROUNDOFF_FLOOR = 1e-12      # absolute, in the result's units (k_B for C and S)


def checked_real(total, magnitude, what: str, **params):
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

    total, magnitude and the params may be arrays over a temperature grid,
    checked elementwise with the same thresholds; the real parts come back
    as an array.  A failing grid raises the error that the scalar call at
    its first failing element raises, which names that element's params.
    """
    if isinstance(total, np.ndarray):
        value = total.real
        err = magnitude * EPS
        ok = (np.isfinite(value)
              & ((err <= ROUNDOFF_LIMIT * np.abs(value)) | (err <= ROUNDOFF_FLOOR))
              & (np.abs(total.imag) <= 1e-12 * np.maximum(1.0, np.abs(value))))
        if ok.all():
            return value
        i = int(np.argmin(ok))

        def at_i(x):
            return np.broadcast_to(x, ok.shape).flat[i].item()

        total, magnitude = at_i(total), at_i(magnitude)
        params = {name: at_i(x) for name, x in params.items()}
    z = complex(total)
    if abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
        raise DomainError(f"{what} should be real, got imaginary part {z.imag!r}")
    value = z.real
    err = magnitude * EPS
    if math.isfinite(value) and (err <= ROUNDOFF_LIMIT * abs(value)
                                 or err <= ROUNDOFF_FLOOR):
        return value
    loss = err / abs(value) if value != 0.0 else math.inf
    inputs = ", ".join(f"{name}={x!r}" for name, x in params.items())
    raise ConvergenceError(
        f"{what} at {inputs} lost its digits to cancellation: estimated "
        f"relative roundoff {loss:.3g} exceeds {ROUNDOFF_LIMIT:g}",
        achieved=loss, requested=ROUNDOFF_LIMIT)
