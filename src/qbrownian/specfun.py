"""Gamma-family special functions for complex arguments.

ln_gamma, digamma, and trigamma are evaluated by pushing the argument up to
Re(z) >= 10 with the standard recurrences and then applying the Stirling-type
asymptotic series with eight Bernoulli terms, which is enough for ~1e-13
relative accuracy in double precision.  g_func is the combination

    g(z) = ln Gamma(1 + z) - z psi(1 + z)

that the damped-oscillator entropy is built from; its derivative is
g'(z) = -z psi'(1 + z).  polygamma extends digamma and trigamma to every
order, for the confluent pole sums of matsubara.PoleSum.

Every arithmetic step here is componentwise conjugate-symmetric, so all six
functions map conjugate inputs to exactly conjugate outputs.  That is what
makes conjugate-pair sums in the thermodynamic formulas exactly real, not
merely real up to roundoff.
"""

from __future__ import annotations

import cmath
import functools
import math

from .core import DomainError

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


def _finite(value: complex, z: complex, name: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{name}({z!r}) overflowed double precision")
    return value


def ln_gamma(z) -> complex:
    """Principal-series log-Gamma, continuous along the recurrence path.

    Agrees with the principal branch on the right half plane; for pushed-up
    arguments the branch is fixed by subtracting the logs of the recurrence
    factors individually rather than unwinding a product.
    """
    z = _checked(z)
    shift = 0.0 + 0.0j
    while z.real < _PUSH:
        shift += cmath.log(z)
        z += 1.0
    rz = 1.0 / z
    rz2 = rz * rz
    series = 0.0 + 0.0j
    power = rz
    for k, b2k in enumerate(_BERNOULLI, start=1):
        series += b2k / ((2 * k) * (2 * k - 1)) * power
        power *= rz2
    value = (z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI + series
    return _finite(value - shift, z, "ln_gamma")


def digamma(z) -> complex:
    """psi(z) = d ln Gamma / dz for complex z away from the poles."""
    z = _checked(z)
    shift = 0.0 + 0.0j
    while z.real < _PUSH:
        shift += 1.0 / z
        z += 1.0
    rz = 1.0 / z
    rz2 = rz * rz
    series = 0.0 + 0.0j
    power = rz2
    for k, b2k in enumerate(_BERNOULLI, start=1):
        series += b2k / (2 * k) * power
        power *= rz2
    value = cmath.log(z) - 0.5 * rz - series
    return _finite(value - shift, z, "digamma")


def trigamma(z) -> complex:
    """psi'(z), the second log-Gamma derivative, for complex z."""
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
        series += b2k * power
        power *= rz2
    value = rz + 0.5 * rz2 + series
    return _finite(value + shift, z, "trigamma")


@functools.cache
def _bernoulli_terms(n: int) -> tuple[float, ...]:
    """B_2k (2k+n-1)! / (2k)!, k = 1..8: the coefficients of polygamma's series."""
    return tuple(b2k * math.factorial(2 * k + n - 1) / math.factorial(2 * k)
                 for k, b2k in enumerate(_BERNOULLI, start=1))


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
    if n == 0:
        return digamma(z)
    if n == 1:
        return trigamma(z)
    z = _checked(z)
    push = _PUSH + 2.0 * n
    shift = 0.0 + 0.0j
    while z.real < push:
        shift += (1.0 / z) ** (n + 1)
        z += 1.0
    rz = 1.0 / z
    rz2 = rz * rz
    power = rz ** n
    series = math.factorial(n - 1) * power + 0.5 * math.factorial(n) * power * rz
    power *= rz2
    for coefficient in _bernoulli_terms(n):
        series += coefficient * power
        power *= rz2
    value = series + math.factorial(n) * shift
    return _finite(value if n % 2 else -value, z, "polygamma")


def g_func(z) -> complex:
    """g(z) = ln Gamma(1 + z) - z psi(1 + z); g(0) = 0, g(1) = gamma_E - 1."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    w = 1.0 + z
    return ln_gamma(w) - z * digamma(w)


def g_func_prime(z) -> complex:
    """d g / dz = -z psi'(1 + z)."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    return -z * trigamma(1.0 + z)
