"""Gamma-family special functions for complex arguments.

ln_gamma, digamma, and trigamma are evaluated by pushing the argument up to
Re(z) >= 10 with the standard recurrences and then applying the Stirling-type
asymptotic series with eight Bernoulli terms, which is enough for ~1e-13
relative accuracy in double precision.  g_func is the combination

    g(z) = ln Gamma(1 + z) - z psi(1 + z)

that the damped-oscillator entropy is built from; its derivative is
g'(z) = -z psi'(1 + z).  polygamma extends digamma and trigamma to every
order, for the confluent pole sums of matsubara.PoleSum.

Each function has one private kernel (_ln_gamma, _digamma, ...) that takes
either a Python complex or a complex ndarray.  A scalar is pushed by a while
loop; an array pushes only its elements still below the threshold, selected
by index, so a whole temperature grid costs a few dozen numpy operations.
The recurrence and the series are the same code for both.  The closed forms
and PoleSum call the kernels; the public functions are thin scalar-only
wrappers over them.  Scalar and array values of one argument may differ in
the last bits, because numpy rounds complex products, quotients and logs
differently from Python's complex type.

Every arithmetic step here is componentwise conjugate-symmetric, in Python's
complex arithmetic and in numpy's alike, so all six functions map conjugate
inputs to exactly conjugate outputs, for scalars and arrays.  That is what
makes conjugate-pair sums in the thermodynamic formulas exactly real, not
merely real up to roundoff.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .core import DomainError, where

__all__ = ["PoleError", "ln_gamma", "digamma", "trigamma", "polygamma", "g_func",
           "g_func_prime"]

_PUSH = 10.0
_HALF_LOG_TWO_PI = 0.9189385332046727417803297

# B_{2k} for k = 1..8; the k-th Stirling correction uses B_{2k} alone
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


class PoleError(ValueError):
    """The argument hit a pole of Gamma (a nonpositive integer)."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"gamma-family pole at z = {n}")


def _checked(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"argument must be finite, got {z!r}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(int(z.real))
    return z


def _checked_array(z: np.ndarray) -> np.ndarray:
    """_checked for each element: a complex copy of z, or the first element's error.

    The copy is C-ordered whatever z's layout, so that _push_array's
    reshape(-1) are views of it.
    """
    z = np.array(z, dtype=complex, order="C")
    bad = ~np.isfinite(z) | ((z.imag == 0.0) & (z.real <= 0.0)
                             & (z.real == np.round(z.real)))
    if bad.any():
        _checked(z[bad][0])
    return z


def _finite(value, z, name: str):
    if isinstance(value, complex):
        if math.isfinite(value.real) and math.isfinite(value.imag):
            return value
    else:
        bad = ~np.isfinite(value)
        if not bad.any():
            return value
        value, z = complex(value[bad][0]), complex(z[bad][0])
    raise DomainError(f"{name}({z!r}) overflowed double precision")


def _push_array(z: np.ndarray, bound: float, term) -> tuple[np.ndarray, np.ndarray]:
    """(z + k, sum of term(z + j) for j < k), k the steps to Re(z + k) >= bound.

    Only the elements still below the bound are gathered at each step, so
    the work is the scalar loop's, element by element, in the same order.
    z is _checked_array's C-ordered copy of the argument and is pushed in
    place.
    """
    shift = np.zeros_like(z)
    # flat views of the two fresh C-ordered arrays, so z may have any shape
    flat_z, flat_shift = z.reshape(-1), shift.reshape(-1)
    index = np.flatnonzero(flat_z.real < bound)
    while index.size:
        w = flat_z[index]
        flat_shift[index] += term(w)
        w += 1.0
        flat_z[index] = w
        index = index[w.real < bound]
    return z, shift


def _ln_gamma(z):
    if isinstance(z, np.ndarray):
        z, shift = _push_array(_checked_array(z), _PUSH, np.log)
        log = np.log
    else:
        z = _checked(z)
        shift = 0.0 + 0.0j
        while z.real < _PUSH:
            shift += cmath.log(z)
            z += 1.0
        log = cmath.log
    rz = 1.0 / z
    rz2 = rz * rz
    series = 0.0 + 0.0j
    power = rz
    for k, b2k in enumerate(_BERNOULLI, start=1):
        series = series + b2k / ((2 * k) * (2 * k - 1)) * power
        power = power * rz2
    value = (z - 0.5) * log(z) - z + _HALF_LOG_TWO_PI + series
    return _finite(value - shift, z, "ln_gamma")


def _digamma(z):
    if isinstance(z, np.ndarray):
        z, shift = _push_array(_checked_array(z), _PUSH, lambda w: 1.0 / w)
        log = np.log
    else:
        z = _checked(z)
        shift = 0.0 + 0.0j
        while z.real < _PUSH:
            shift += 1.0 / z
            z += 1.0
        log = cmath.log
    rz = 1.0 / z
    rz2 = rz * rz
    series = 0.0 + 0.0j
    power = rz2
    for k, b2k in enumerate(_BERNOULLI, start=1):
        series = series + b2k / (2 * k) * power
        power = power * rz2
    value = log(z) - 0.5 * rz - series
    return _finite(value - shift, z, "digamma")


def _trigamma(z):
    if isinstance(z, np.ndarray):
        z, shift = _push_array(_checked_array(z), _PUSH, lambda w: 1.0 / (w * w))
    else:
        z = _checked(z)
        shift = 0.0 + 0.0j
        while z.real < _PUSH:
            shift += 1.0 / (z * z)
            z += 1.0
    rz = 1.0 / z
    rz2 = rz * rz
    series = 0.0 + 0.0j
    power = rz * rz2
    for b2k in _BERNOULLI:
        series = series + b2k * power
        power = power * rz2
    value = rz + 0.5 * rz2 + series
    return _finite(value + shift, z, "trigamma")


@functools.cache
def _bernoulli_terms(n: int) -> tuple[float, ...]:
    """B_2k (2k+n-1)! / (2k)!, k = 1..8: the coefficients of polygamma's series."""
    return tuple(b2k * math.factorial(2 * k + n - 1) / math.factorial(2 * k)
                 for k, b2k in enumerate(_BERNOULLI, start=1))


def _polygamma(n: int, z):
    if n == 0:
        return _digamma(z)
    if n == 1:
        return _trigamma(z)
    push = _PUSH + 2.0 * n
    if isinstance(z, np.ndarray):
        z, shift = _push_array(_checked_array(z), push, lambda w: (1.0 / w) ** (n + 1))
    else:
        z = _checked(z)
        shift = 0.0 + 0.0j
        while z.real < push:
            shift += (1.0 / z) ** (n + 1)
            z += 1.0
    rz = 1.0 / z
    rz2 = rz * rz
    power = rz ** n
    series = math.factorial(n - 1) * power + 0.5 * math.factorial(n) * power * rz
    power = power * rz2
    for coefficient in _bernoulli_terms(n):
        series = series + coefficient * power
        power = power * rz2
    value = series + math.factorial(n) * shift
    return _finite(value if n % 2 else -value, z, "polygamma")


def _g(z):
    w = 1.0 + z
    # g(0) = 0 exactly, not the roundoff of ln Gamma(1)
    return where(z == 0, 0.0j, _ln_gamma(w) - z * _digamma(w))


def _g_prime(z):
    return where(z == 0, 0.0j, -z * _trigamma(1.0 + z))


def ln_gamma(z) -> complex:
    """Principal-series log-Gamma, continuous along the recurrence path.

    Agrees with the principal branch on the right half plane; for pushed-up
    arguments the branch is fixed by subtracting the logs of the recurrence
    factors individually rather than unwinding a product.
    """
    return _ln_gamma(complex(z))


def digamma(z) -> complex:
    """psi(z) = d ln Gamma / dz for complex z away from the poles."""
    return _digamma(complex(z))


def trigamma(z) -> complex:
    """psi'(z), the second log-Gamma derivative, for complex z."""
    return _trigamma(complex(z))


def polygamma(n: int, z) -> complex:
    """psi^(n)(z), the n-th derivative of digamma, for integer n >= 0.

    n = 0 and n = 1 are digamma and trigamma themselves.  Higher orders push
    the argument up to Re(z) >= 10 + 2n, which keeps the eight-term series

        psi^(n)(z) ~ (-1)^(n+1) [(n-1)!/z^n + n!/(2 z^(n+1))
                                 + sum_k B_2k (2k+n-1)! / ((2k)! z^(2k+n))]

    at double-precision accuracy for every order.  As for trigamma, the
    recurrence terms cancel in the left half plane, where the relative
    accuracy degrades.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise DomainError(f"order must be an integer >= 0, got {n!r}")
    return _polygamma(n, complex(z))


def g_func(z) -> complex:
    """g(z) = ln Gamma(1 + z) - z psi(1 + z); g(0) = 0, g(1) = gamma_E - 1."""
    return _g(complex(z))


def g_func_prime(z) -> complex:
    """d g / dz = -z psi'(1 + z)."""
    return _g_prime(complex(z))
