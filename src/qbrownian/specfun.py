"""Gamma-family special functions for complex arguments.

These are the private kernels that the closed forms and PoleSum are built
from.  _g_terms and _digamma push the argument up to Re(z) >= 10 with the
standard recurrences, then apply the Stirling series with eight Bernoulli
terms (~1e-13 relative), summed by one loop, _series; g's ln Gamma and psi
share one push, which carries both recurrence sums.  C, S and E are sums of
h(z) = z^2 psi'(1 + z) - z + 1/2, G(z) = g(z) - ln(2 pi z)/2 + z + 1/2, g(z) =
ln Gamma(1 + z) - z psi(1 + z), and K(z) = ln z + 1/(2z) - psi(1 + z): O(1/z)
or O(1/z^2) where their terms are O(z), -z G'(z) = h(z) (DLMF 5.11.1-2,
5.15.8); G and K switch to their series at |z| = 12 in one place, _asymptotic.
Below it G's sum of |terms| counts ln Gamma(1 + z) as its Stirling series and
its recurrence sum, and z psi(1 + z) apart, all from one push of 1 + z:
these cancel where |z| is small, and the size must carry what that costs.

Each kernel takes either a Python complex or a complex ndarray.  All of them
push their argument through one helper, _push, which carries one recurrence
sum or two in one pass: a complex moves up a step at a time, an array moves
only its elements still below the threshold, selected by index, so a whole
temperature grid costs a few dozen numpy operations.  The recurrence and the
series are the same code for both.  Scalar and array values of one argument
may differ in the last bits, because numpy rounds complex products, quotients
and logs differently from Python's complex type.

The kernels check nothing: a non-finite argument gives nan, and an argument
at a pole or whose value overflows gives inf or nan (or, for a complex, one
of Python's OverflowError, ZeroDivisionError and ValueError), which the
closed forms and PoleSum refuse through core.checked_real and core.gridwise,
naming the temperature.

Every arithmetic step here is componentwise conjugate-symmetric, in Python's
complex arithmetic and in numpy's alike, so every kernel maps conjugate
inputs to exactly conjugate outputs, for scalars and arrays.  That is what
makes conjugate-pair sums in the thermodynamic formulas exactly real, not
merely real up to roundoff, and what lets a closed form evaluate a kernel
at one member of a conjugate pair and take the other's value as the
conjugate of the first.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import TWO_PI

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
# the series' coefficients, k = 1..8: B_2k / (2k (2k-1)) for ln Gamma,
# B_2k / 2k for psi and B_2k for psi'
_LN_GAMMA = tuple(b2k / ((2 * k) * (2 * k - 1))
                  for k, b2k in enumerate(_BERNOULLI, start=1))
_DIGAMMA = tuple(b2k / (2 * k) for k, b2k in enumerate(_BERNOULLI, start=1))
# B_2k, k = 1..10 (h falls from B_2 / w, not 1 / w), and B_2k / (2k - 1) for G
_H_SERIES = _BERNOULLI + (43867.0 / 798.0, -174611.0 / 330.0)
_G_SERIES = tuple(b2k / (2 * k - 1) for k, b2k in enumerate(_H_SERIES, start=1))


def _log(z):
    # cmath.log of a complex, np.log of an array
    return np.log(z) if isinstance(z, np.ndarray) else cmath.log(z)


def _push(z, term, other=None, step=1.0):
    """(z + k, sum of term(z + j) for j = 0, step, .. < k), Re(z + k) >= _PUSH,
    and the same sum of other after it if given: one push, two recurrences.

    A non-finite element of z is set to nan first, which is not pushed and
    makes the kernel's value nan: inf would leave a finite value (psi'(inf)
    is 0) and -inf would never reach _PUSH.  A complex is pushed one step
    at a time.  An array gathers only its elements still below _PUSH at
    each step, so the work is the complex's, element by element, in the same
    order; it is pushed in place in a C-ordered complex copy, whose
    reshape(-1) are views, so z may have any shape and layout.
    """
    if not isinstance(z, np.ndarray):
        z = complex(z)
        if not cmath.isfinite(z):
            z = complex(math.nan, math.nan)
        shift = other_shift = 0.0 + 0.0j
        while z.real < _PUSH:
            shift += term(z)
            if other is not None:
                other_shift += other(z)
            z += step
        return (z, shift) if other is None else (z, shift, other_shift)
    z = np.array(z, dtype=complex, order="C")
    np.copyto(z, math.nan, where=~np.isfinite(z))
    shift = np.zeros_like(z)
    other_shift = shift if other is None else np.zeros_like(z)
    flat_z, flat_shift, flat_other = z.reshape(-1), shift.reshape(-1), other_shift.reshape(-1)
    index = np.flatnonzero(flat_z.real < _PUSH)
    while index.size:
        w = flat_z[index]
        flat_shift[index] += term(w)
        if other is not None:
            flat_other[index] += other(w)
        w += step
        flat_z[index] = w
        index = index[w.real < _PUSH]
    return (z, shift) if other is None else (z, shift, other_shift)


def _reciprocal(w):
    return 1.0 / w


def _series(value, power, rz2, coefficients):
    # value + sum_k coefficients[k] power rz2^k, added term by term in that order
    for coefficient in coefficients:
        value = value + coefficient * power
        power = power * rz2
    return value


def _digamma(z):
    z, shift = _push(z, _reciprocal)
    rz = 1.0 / z
    rz2 = rz * rz
    value = _log(z) - 0.5 * rz - _series(0.0 + 0.0j, rz2, rz2, _DIGAMMA)
    return value - shift


def _g_terms(z):
    # g(z)'s terms from one push of w = 1 + z: ln Gamma(w) as Stirling's series at
    # w + k and -sum_j ln(w + j), j < k, which cancel where |ln Gamma(w)| is
    # small, and -z psi(w), whose series shares ln(w + k) and 1/(w + k); the
    # log is picked once, not at every step as _log would
    log = np.log if isinstance(z, np.ndarray) else cmath.log
    w, logs, reciprocals = _push(1.0 + z, log, _reciprocal)
    rw = 1.0 / w
    rw2, log_w = rw * rw, log(w)
    psi = log_w - 0.5 * rw - _series(0.0 + 0.0j, rw2, rw2, _DIGAMMA) - reciprocals
    return ((w - 0.5) * log_w - w + _HALF_LOG_TWO_PI + _series(0.0 + 0.0j, rw, rw2, _LN_GAMMA),
            -logs, -(z * psi))


def _h(z):
    """h(z), Re z >= 0, to a few eps: (1+z)^2 h(z) = z^2 h(1+z) + 1/2 pushed to
    w = 1 + z + k, every term positive for a real z, and h(w) by its series."""
    # two steps per term, (x (x+1))^-2 + ((x+1) (x+2))^-2, by quotients
    w, shift = _push((one := 1.0 + z), lambda x: (u := (r := 1.0 / (x + 1.0)) / x) * u
                     + (v := r / (x + 2.0)) * v, None, 2.0)
    r1, rw = 1.0 / one, 1.0 / w
    rw2, ratio = rw * rw, z * rw
    series = _H_SERIES[-1]
    for coefficient in _H_SERIES[-2::-1]:     # Horner's rule in 1/w^2
        series = series * rw2 + coefficient
    return 0.5 * (r1 * r1 + z * shift * z) + ratio * ratio * rw * series


def _asymptotic(z, coefficients, power: int, direct):
    """(value, sum of |terms|) of a kernel: sum_k coefficients[k] z^-(power+2k)
    from |z| = 12, else direct(z), each on its own elements of an array."""
    def series(z):
        rz = 1.0 / z
        value = _series(0.0 + 0.0j, rz if power == 1 else rz * rz, rz * rz, coefficients)
        return value, abs(value)

    if not isinstance(z, np.ndarray):
        # 0 is a pole of G and K, where cmath.log raises: a complex 0 is taken as nan
        return (series if 12.0 <= abs(z) < math.inf else direct)(z or math.nan)
    far = (12.0 <= np.abs(z)) & np.isfinite(z)
    value, magnitude = np.empty(z.shape, complex), np.empty(z.shape)
    value[far], magnitude[far] = series(z[far])
    value[~far], magnitude[~far] = direct(z[~far])
    return value, magnitude


def _sized(*terms):
    # a direct formula's value and the sum of |terms| it is formed from
    return sum(terms), sum(map(abs, terms))


def _G(z):
    """(G(z), Re z >= 0, and its sum of |terms|), on g's terms below |z| = 12."""
    return _asymptotic(z, _G_SERIES, 1,
                       lambda z: _sized(*_g_terms(z), -0.5 * _log(TWO_PI * z), z + 0.5))


def _K(z):
    """(K(z) = ln z + 1/(2z) - psi(1 + z), Re z >= 0, and its sum of |terms|):
    sum_k B_2k / (2k z^2k) from |z| = 12, DLMF 5.11.2."""
    return _asymptotic(z, _DIGAMMA, 2,
                       lambda z: _sized(_log(z), 0.5 / z, -_digamma(1.0 + z)))
