"""Reduced-unit conventions, shared tolerances, result types, domain checks and
error types.

All downstream modules work in units hbar = k_B = M = 1.  An oscillator
problem is measured against its own frequency: theta = k_B T / (hbar omega0)
and alpha = gamma / omega0.  A free Brownian particle has no omega0, so the
damping rate itself sets the scale and theta = k_B T / (hbar gamma).  A Drude
bath enters only through cutoff_ratio = omega_D / gamma; math.inf encodes the
strictly ohmic (memoryless) limit.

Every function of theta (the closed forms, the expansions, PoleSum, the
variance sum and the finite-difference heat) takes a float or an ndarray of
temperatures through gridwise, the one boundary that checks theta and takes
it as a double: a numpy scalar or a 0-d array as its Python float, any other
array as float64.  The helpers below (elementwise, where and the checks) let
one body serve both, with math and plain conditionals for a float, so a float
in gives exactly the float out that a scalar-only body would.  Where float **
and math.exp raise OverflowError, or a float division by zero raises, numpy
gives inf or nan, as the special-function kernels do wherever their
arguments or values overflow.  checked_real and gridwise are the one
refusal: each turns what is not finite into a ConvergenceError naming the
failing theta.

The result types Estimate and ThermoPoint (and quadrature's MomentResult)
are NamedTuples: immutable, read by field name or unpacked, and compared as
tuples, so an Estimate equals the plain tuple of its fields.  A float call
builds one in a fraction of the time a frozen dataclass takes.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    """Numeric policy of the quadrature engine.

    quad_abs  absolute target for spectral integrals

    The term-by-term frequency sums take no tolerance: their work is fixed by
    the poles, and their error bar is held to matsubara's one relative bar.
    """

    quad_abs: float = 1e-10

    def __post_init__(self):
        value = self.quad_abs
        if not (isinstance(value, (int, float)) and 0.0 < value < 1.0):
            raise DomainError(f"quad_abs must lie in (0, 1), got {value!r}")


class Estimate(NamedTuple):
    """A numerical estimate with its error bar.

    err is the error bar on value: the tail bound of a frequency sum, or the
    truncation-plus-roundoff estimate of a finite difference.  terms_used
    counts the summed terms (0 where nothing was summed); regularized marks a
    value that is defined only up to a temperature-independent constant.
    value and err are arrays of one shape for a grid of temperatures.
    """

    value: float
    err: float
    terms_used: int = 0
    regularized: bool = False


class ThermoPoint(NamedTuple):
    """A closed-form state at one reduced temperature; unset quantities stay None.

    The quantities are floats, or arrays of theta's shape when the closed
    form was given an array of temperatures.
    """

    Z: float | np.ndarray | None = None
    E: float | np.ndarray | None = None
    S: float | np.ndarray | None = None
    C: float | np.ndarray | None = None


def elementwise(x):
    """The module of elementwise functions for x: numpy for an array, else math.

    Both provide exp, expm1, log and log1p under the same names.
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
    """Decorate a function of theta: the one boundary of its float and array calls.

    theta is checked first and passed on as the double that check_positive
    returns, a Python float or a float64 array.  A result that is not finite
    (a float or an ndarray, a ThermoPoint's set quantity, an Estimate's value
    or err), and a float call that raised OverflowError or ZeroDivisionError,
    is refused with a ConvergenceError naming the first failing theta,
    "at theta=<repr>:".  An array call runs with numpy's warnings off, so
    that every element meets the checks that its float call meets.
    """
    position = list(inspect.signature(fn).parameters).index("theta")

    def refusal(theta) -> ConvergenceError:
        return ConvergenceError(f"at theta={theta!r}: {fn.__qualname__} is not "
                                "finite in double precision")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if len(args) > position:
            theta = args[position]
            # a positive, finite Python float passes as it is, without the call
            if type(theta) is not float or not 0.0 < theta < math.inf:
                theta = check_positive("theta", theta)
                args = (*args[:position], theta, *args[position + 1:])
        elif "theta" in kwargs:
            theta = kwargs["theta"] = check_positive("theta", kwargs["theta"])
        else:
            return fn(*args, **kwargs)      # Python's TypeError: theta is missing
        if isinstance(theta, np.ndarray):
            with np.errstate(all="ignore"):
                value = fn(*args, **kwargs)
            ok = np.ones(theta.shape, dtype=bool)
            for part in _parts(value):
                if part is not None:
                    ok &= np.isfinite(part)
            if not ok.all():
                raise refusal(_first_failing(theta, ok))
            return value
        try:
            value = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise refusal(theta) from exc
        for part in (value,) if type(value) is float else _parts(value):
            if part is not None and not math.isfinite(part):
                raise refusal(theta)
        return value

    return wrapper


def _parts(value) -> tuple:
    # the numbers of a result: a ThermoPoint's (None where unset), an Estimate's
    if isinstance(value, ThermoPoint):
        return value
    if isinstance(value, Estimate):
        return value[:2]
    return (value,)


def _first_failing(value, ok: np.ndarray):
    # the first element of value where ok is False, as a Python scalar
    return value[~ok][0].item()


def check_positive(name: str, value):
    """value as a double; DomainError unless it, or each element, is positive and finite.

    A Python float comes back as it is, with no call into numpy; any other
    scalar as its Python float, and an array as float64 (itself if it is one).
    """
    if isinstance(value, np.ndarray) and value.ndim:
        value = np.asarray(value, dtype=float)
        ok = (value > 0.0) & np.isfinite(value)
        if ok.all():
            return value
        value = _first_failing(value, ok)
    elif type(value) is not float:
        value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_nonnegative(name: str, value) -> float:
    """value as a Python float; DomainError unless it is >= 0 and finite.

    A Python float comes back as it is, with no call into numpy.
    """
    if type(value) is not float:
        value = float(value)
    if not (value >= 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be >= 0 and finite, got {value!r}")
    return value


ROUNDOFF_LIMIT = 1e-6       # relative to the result


def checked_real(total, magnitude, what: str, **params):
    """The real value of a sum of terms, or an error saying why not.

    Conjugate-pair combinations in the closed forms are exactly real in IEEE
    arithmetic, so a surviving imaginary part signals a formula or domain bug
    rather than roundoff and raises DomainError.  magnitude is the sum of the
    absolute values of the terms added up to total, so magnitude * eps
    estimates the roundoff left in it.  ConvergenceError, naming params as the
    inputs, is raised when that roundoff exceeds ROUNDOFF_LIMIT relative to
    |value|, and where the value or the magnitude is not finite in double
    precision, as a term that is not or a sum that overflows leaves them.

    total, magnitude and the params may be arrays over a temperature grid,
    checked elementwise with the same thresholds; the real parts come back
    as an array.  A failing grid raises the error that the scalar call at
    its first failing element raises, which names that element's params.
    """
    if isinstance(total, np.ndarray):
        value = total.real
        ok = (np.isfinite(value) & (magnitude * EPS <= ROUNDOFF_LIMIT * np.abs(value))
              & (np.abs(total.imag) <= 1e-12 * np.maximum(1.0, np.abs(value))))
        if ok.all():
            return value
        i = int(np.argmin(ok))

        def at_i(x):
            return np.broadcast_to(x, ok.shape).flat[i].item()

        total, magnitude = at_i(total), at_i(magnitude)
        params = {name: at_i(x) for name, x in params.items()}
    z = total if type(total) is complex else complex(total)
    if abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
        raise DomainError(f"{what} should be real, got imaginary part {z.imag!r}")
    value = z.real
    err = magnitude * EPS
    if math.isfinite(value) and err <= ROUNDOFF_LIMIT * abs(value):
        return value
    inputs = ", ".join(f"{name}={x!r}" for name, x in params.items())
    finite = math.isfinite(value) and math.isfinite(magnitude)
    loss = err / abs(value) if finite and value != 0.0 else math.inf
    cause = (f"lost its digits to cancellation: estimated relative roundoff "
             f"{loss:.3g} exceeds {ROUNDOFF_LIMIT:g}" if finite
             else "is not finite in double precision")
    raise ConvergenceError(f"{what} at {inputs} {cause}", achieved=loss,
                           requested=ROUNDOFF_LIMIT)
