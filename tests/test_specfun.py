"""Frozen-reference and property tests for the gamma-family functions.

Reference values were computed independently with mpmath at 40-digit working
precision and are frozen here as literals; a smaller live mpmath comparison
on a seeded random grid guards against regressions away from the frozen
points.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from qbrownian.core import DomainError
from qbrownian.specfun import (PoleError, digamma, g_func, g_func_prime,
                               ln_gamma, polygamma, trigamma)

EULER_GAMMA = 0.5772156649015328606065121

LN_GAMMA_REF = complex(0.7853469580738222014792393, 2.583012925115262026571724)
DIGAMMA_REF = complex(1.607759321607187866120233, 1.570796326794825270487004)
TRIGAMMA_REF = complex(0.3521320605925588026514951, 0.2225353233424034436888091)
G_REAL_REF = -8.413113317591695781248852
G_COMPLEX_REF = complex(-0.2851014133040513546200775, -0.178933379510820016711143)


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def sample_points(rng: np.random.Generator, count: int,
                  re_lo: float = -8.0, re_hi: float = 12.0) -> list[complex]:
    """Random complex points staying 0.2 away from the nonpositive integers."""
    points: list[complex] = []
    while len(points) < count:
        z = complex(rng.uniform(re_lo, re_hi), rng.uniform(-10.0, 10.0))
        if z.real < 0.5 and abs(z.imag) < 0.2 and abs(z.real - round(z.real)) < 0.2:
            continue
        points.append(z)
    return points


def test_frozen_complex_references():
    assert rel_err(ln_gamma(3.7 + 2.1j), LN_GAMMA_REF) < 1e-13
    assert rel_err(digamma(0.5 + 5.0j), DIGAMMA_REF) < 1e-13
    assert rel_err(trigamma(2.5 - 1.3j), TRIGAMMA_REF) < 1e-13
    assert rel_err(g_func(10.0), G_REAL_REF) < 1e-13
    assert rel_err(g_func(0.8 + 0.3j), G_COMPLEX_REF) < 1e-13


def test_classic_identities():
    assert rel_err(trigamma(1.0), math.pi ** 2 / 6.0) < 1e-12
    assert rel_err(trigamma(0.5), math.pi ** 2 / 2.0) < 1e-12
    assert rel_err(digamma(1.0), -EULER_GAMMA) < 1e-12
    assert rel_err(ln_gamma(0.5), 0.5 * math.log(math.pi)) < 1e-12
    assert rel_err(ln_gamma(1.0), 0.0) < 1e-12 or abs(ln_gamma(1.0)) < 1e-14
    assert rel_err(digamma(2.0), 1.0 - EULER_GAMMA) < 1e-12


def test_g_func_special_values():
    assert g_func(0.0) == 0.0
    assert g_func_prime(0.0) == 0.0
    # g(1) = ln 1! - psi(2) = gamma_E - 1
    assert rel_err(g_func(1.0), EULER_GAMMA - 1.0) < 1e-12


def test_g_func_prime_matches_difference_quotient():
    h = 1e-6
    for z in (0.7, 2.5, 1.2 + 0.8j, 0.3 - 2.0j):
        numeric = (g_func(z + h) - g_func(z - h)) / (2.0 * h)
        assert abs(numeric - g_func_prime(z)) < 5e-9


def test_conjugate_symmetry_is_exact():
    rng = np.random.default_rng(1702)
    for z in sample_points(rng, 200):
        for fn in (ln_gamma, digamma, trigamma, g_func, g_func_prime):
            assert fn(z.conjugate()) == fn(z).conjugate()


def test_recurrence_relations_on_random_grid():
    rng = np.random.default_rng(2203)
    for z in sample_points(rng, 300):
        psi = digamma(z)
        assert abs(digamma(z + 1.0) - psi - 1.0 / z) <= 1e-13 * max(1.0, abs(psi))
        psi1 = trigamma(z)
        assert abs(trigamma(z + 1.0) - psi1 + 1.0 / (z * z)) <= 1e-13 * max(1.0, abs(psi1))
    # the log-recurrence is branch-safe on the right half plane
    for z in sample_points(rng, 300, re_lo=0.05):
        lg = ln_gamma(z)
        assert abs(ln_gamma(z + 1.0) - lg - cmath.log(z)) <= 1e-13 * max(1.0, abs(lg))


def test_trigamma_reflection_on_unit_interval():
    rng = np.random.default_rng(88)
    for x in rng.uniform(0.02, 0.98, size=50):
        lhs = trigamma(x) + trigamma(1.0 - x)
        rhs = (math.pi / math.sin(math.pi * x)) ** 2
        assert abs(lhs.real - rhs) <= 1e-11 * rhs
        assert abs(lhs.imag) < 1e-12


def test_digamma_is_log_gamma_derivative():
    h = 1e-5
    for z in (0.8, 3.3, 1.5 + 2.0j, 6.0 - 1.0j):
        numeric = (ln_gamma(z + h) - ln_gamma(z - h)) / (2.0 * h)
        assert abs(numeric - digamma(z)) < 1e-6


def test_trigamma_is_digamma_derivative():
    h = 1e-5
    for z in (0.8, 3.3, 1.5 + 2.0j):
        numeric = (digamma(z + h) - digamma(z - h)) / (2.0 * h)
        assert abs(numeric - trigamma(z)) < 1e-6


@pytest.mark.parametrize("bad", [0, -1, -7, 0.0, -3.0 + 0.0j])
def test_poles_raise_with_location(bad):
    for fn in (ln_gamma, digamma, trigamma):
        with pytest.raises(PoleError) as exc_info:
            fn(bad)
        assert exc_info.value.n == int(complex(bad).real)


def test_g_func_pole_at_negative_shifted_integer():
    # g evaluates at 1 + z, so z = -2 hits the pole of Gamma(-1)
    with pytest.raises(PoleError):
        g_func(-2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 1.0),
                                 complex(1.0, math.inf)])
def test_non_finite_arguments_rejected(bad):
    for fn in (ln_gamma, digamma, trigamma):
        with pytest.raises(DomainError):
            fn(bad)


@pytest.mark.parametrize("name, fn", [
    ("trigamma", trigamma), ("polygamma", lambda z: polygamma(1, z)),
    ("polygamma", lambda z: polygamma(2, z))], ids=["trigamma", "order1", "order2"])
def test_overflowing_values_raise_domain_error(name, fn):
    # at z = 1e-300 the push divides by z z, which underflows to zero, and
    # (1/z)**3 overflows: Python's complex raises where numpy gives inf
    message = rf"^{name}\(\(1e-300\+0j\)\) overflowed double precision$"
    with pytest.raises(DomainError, match=message):
        fn(1e-300)

def test_against_live_mpmath_grid():
    mp.mp.dps = 30
    rng = np.random.default_rng(20260817)
    for z in sample_points(rng, 60, re_lo=0.05):
        want = complex(mp.loggamma(z))
        assert rel_err(ln_gamma(z), want) < 1e-12
    for z in sample_points(rng, 60):
        assert rel_err(digamma(z), complex(mp.psi(0, z))) < 1e-12
        assert rel_err(trigamma(z), complex(mp.psi(1, z))) < 1e-12


def test_polygamma_low_orders_are_digamma_and_trigamma():
    for z in (0.3, 2.5 + 1.0j, 40.0 - 7.0j):
        assert polygamma(0, z) == digamma(z)
        assert polygamma(1, z) == trigamma(z)


def test_polygamma_zeta_values():
    # psi^(n)(1) = (-1)^(n+1) n! zeta(n+1)
    zeta3 = 1.202056903159594285399738
    assert polygamma(2, 1.0).real == pytest.approx(-2.0 * zeta3, rel=1e-15)
    assert polygamma(3, 1.0).real == pytest.approx(math.pi ** 4 / 15.0, rel=1e-15)


def test_polygamma_recurrence_and_conjugation():
    rng = np.random.default_rng(3)
    for n in range(2, 12):
        for z in sample_points(rng, 10, re_lo=0.5, re_hi=30.0):
            value = polygamma(n, z)
            step = (-1) ** n * math.factorial(n) / z ** (n + 1)
            assert rel_err(polygamma(n, z + 1.0), value + step) < 1e-13
            assert polygamma(n, z.conjugate()) == value.conjugate()


def test_polygamma_against_live_mpmath():
    mp.mp.dps = 30
    rng = np.random.default_rng(11)
    points = sample_points(rng, 20, re_lo=1.0, re_hi=60.0) + [1.0, 1.0 + 1e6j, 2e8]
    for n in (2, 3, 5, 8, 13, 20):
        for z in points:
            assert rel_err(polygamma(n, z), complex(mp.psi(n, z))) < 1e-14, (n, z)


def test_polygamma_rejects_bad_orders_and_poles():
    for bad in (-1, 1.5, True):
        with pytest.raises(DomainError):
            polygamma(bad, 1.0)
    with pytest.raises(PoleError):
        polygamma(4, -3.0)
