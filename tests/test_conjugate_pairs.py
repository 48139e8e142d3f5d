"""The closed forms evaluate their kernel once per conjugate pair.

Below critical damping (alpha <= 2) and below the free particle's critical
cutoff (r < 4) the characteristic pair is complex-conjugate, and every
special-function kernel is exactly conjugate-symmetric, so each closed form
evaluates its kernel at lam_+ or z_+ alone and takes the other term as the
conjugate.  These tests hold the closed forms to the pair-by-pair formulas,
written out here with the kernel evaluated at both members, to the bit,
refusals included, and count the pushes that the pair saves.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from qbrownian import free_particle, oscillator, specfun
from qbrownian.core import TWO_PI, ThermoPoint, checked_real, elementwise, gridwise
from qbrownian.free_particle import _DEGENERATE_BAND, _drude_pair
from qbrownian.oscillator import _lambda_pm
from qbrownian.specfun import _g, _trigamma

ALPHAS = [0.0, 1e-8, 0.5, 1.0, 2.0 - 1e-12, 2.0, 2.0 + 1e-9, 5.0]
RATIOS = [0.01, 1.0, 4.0 - 1e-7, 4.0, 4.0 + 1e-7, 10.0]
THETAS = [1e-307, 1e-300, 1e-20, 1e-5, 1e-3, 0.05, 0.37, 1.0, 7.3, 1e3, 1e6, 1e300]
GRIDS = [np.logspace(-5.0, 5.0, 41), np.logspace(-3.0, 3.0, 12).reshape(3, 4).T,
         np.array([1.0, 1e-307, 0.5])]


# the pair-by-pair forms, named as the library's so that gridwise's refusals
# read the same


@gridwise
def damped_specific_heat(theta, alpha: float) -> ThermoPoint:
    lam_plus, lam_minus, a, alpha = _lambda_pm(theta, alpha)
    t_plus = lam_plus * lam_plus * _trigamma(1.0 + lam_plus)
    t_minus = lam_minus * lam_minus * _trigamma(1.0 + lam_minus)
    total = (1.0 - a) + t_plus + t_minus
    magnitude = 1.0 + a + abs(t_plus) + abs(t_minus)
    return ThermoPoint(C=checked_real(total, magnitude, "specific heat",
                                      theta=theta, alpha=alpha))


@gridwise
def damped_entropy(theta, alpha: float) -> ThermoPoint:
    lam_plus, lam_minus, a, alpha = _lambda_pm(theta, alpha)
    log_theta = elementwise(theta).log(theta)
    g_plus, g_minus = _g(lam_plus), _g(lam_minus)
    total = (1.0 + log_theta + a) + (g_plus + g_minus)
    magnitude = 1.0 + abs(log_theta) + a + abs(g_plus) + abs(g_minus)
    return ThermoPoint(S=checked_real(total, magnitude, "entropy",
                                      theta=theta, alpha=alpha))


@gridwise
def drude_specific_heat(theta, cutoff_ratio: float) -> ThermoPoint:
    a = 1.0 / (TWO_PI * theta)
    z0, s, z_plus, z_minus = _drude_pair(theta, cutoff_ratio)
    if 1.0 - 4.0 / cutoff_ratio < _DEGENERATE_BAND:
        # z0 (1 +- i h), with h = |s| below r = 4 and the band's width above
        h = s.imag or _DEGENERATE_BAND
        z_plus = z0 * complex(1.0, h)
        z_minus = z_plus.conjugate()
        psi_plus, psi_minus = _trigamma(1.0 + z_plus), _trigamma(1.0 + z_minus)
        t_plus, t_minus = z_plus * psi_plus, z_minus * psi_minus
        total = 0.5 - a * (t_plus - t_minus).imag / h
        magnitude = 0.5 + a * (
            z_plus.real * (abs(psi_plus.imag) + abs(psi_minus.imag)
                           + 2.0 * sys.float_info.min)
            + z_plus.imag * (abs(psi_plus) + abs(psi_minus))) / h
    else:
        t_plus = z_plus * _trigamma(1.0 + z_plus)
        t_minus = z_minus * _trigamma(1.0 + z_minus)
        total = 0.5 - a * (t_plus - t_minus) / s
        magnitude = 0.5 + a * (abs(t_plus) + abs(t_minus)) / abs(s)
    return ThermoPoint(C=checked_real(total, magnitude, "specific heat",
                                      theta=theta, cutoff_ratio=cutoff_ratio))


def bits(value) -> bytes:
    # the value's bytes, so that a nan's payload or a zero's sign counts too
    return np.asarray(value, dtype=complex).tobytes()


def outcome(fn, theta, parameter):
    # the quantity's bytes and shape, or the refusal's class and text
    try:
        point = fn(theta, parameter)
    except Exception as exc:      # the two sides must refuse alike
        return type(exc).__name__, str(exc)
    value = point.C if point.S is None else point.S
    return bits(value), np.shape(value)


PAIRS = [("damped_specific_heat", oscillator.damped_specific_heat,
          damped_specific_heat, ALPHAS),
         ("damped_entropy", oscillator.damped_entropy, damped_entropy, ALPHAS),
         ("drude_specific_heat", free_particle.drude_specific_heat,
          drude_specific_heat, RATIOS)]


@pytest.mark.parametrize("pair", [p[1:] for p in PAIRS], ids=[p[0] for p in PAIRS])
def test_pair_once_forms_equal_the_pair_by_pair_forms_to_the_bit(pair):
    form, pairwise, parameters = pair
    for parameter in parameters:
        for theta in THETAS + GRIDS:
            got = outcome(form, theta, parameter)
            assert got == outcome(pairwise, theta, parameter), (parameter, theta)


@pytest.mark.parametrize("pair", [p[1:] for p in PAIRS], ids=[p[0] for p in PAIRS])
def test_refusals_at_a_subnormal_scale_are_the_pair_by_pair_forms(pair):
    # at theta = 1e-307 every pair's terms overflow or cancel: the forms refuse,
    # as a float and as a grid's first failing element, with the same text
    form, pairwise, parameters = pair
    for parameter in parameters:
        for theta in (1e-307, np.array([1.0, 1e-307])):
            got = outcome(form, theta, parameter)
            assert got[0] == "ConvergenceError"
            assert got[1].startswith(("specific heat at theta=1e-307,",
                                      "entropy at theta=1e-307,"))
            assert got == outcome(pairwise, theta, parameter)


def test_one_kernel_evaluation_per_conjugate_pair(monkeypatch):
    pushes = []
    push = specfun._push

    def counting(*args):
        pushes.append(args[0])
        return push(*args)

    monkeypatch.setattr(specfun, "_push", counting)
    forms = [(oscillator.damped_specific_heat, alpha, 1 if alpha <= 2.0 else 2)
             for alpha in ALPHAS]
    # g pushes twice, for ln Gamma and for psi
    forms += [(oscillator.damped_entropy, alpha, 2 if alpha <= 2.0 else 4)
              for alpha in ALPHAS]
    # r = 4 is inside the degenerate band, which evaluates z0 (1 + i h) alone
    forms += [(free_particle.drude_specific_heat, ratio, 1 if ratio <= 4.0 else 2)
              for ratio in RATIOS]
    for form, parameter, count in forms:
        for theta in (0.37, np.logspace(-2.0, 2.0, 21)):
            pushes.clear()
            form(theta, parameter)
            assert len(pushes) == count, (form.__name__, parameter, theta)
