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

import contextlib
import sys

import numpy as np
import pytest

from qbrownian import free_particle, oscillator, specfun
from qbrownian.core import TWO_PI, ConvergenceError, ThermoPoint, checked_real, gridwise
from qbrownian.free_particle import _DEGENERATE_BAND, _drude_pair
from qbrownian.oscillator import _lambda_pm, undamped_thermo
from qbrownian.specfun import _G, _h

ALPHAS = [0.0, 1e-8, 0.5, 1.0, 2.0 - 1e-12, 2.0, 2.0 + 1e-9, 5.0]
RATIOS = [0.01, 1.0, 4.0 - 1e-7, 4.0, 4.0 + 1e-7, 10.0]
THETAS = [1e-320, 1e-307, 1e-300, 1e-20, 1e-5, 1e-3, 0.05, 0.37, 1.0, 7.3, 1e3, 1e6,
          1e300]
GRIDS = [np.logspace(-5.0, 5.0, 41), np.logspace(-3.0, 3.0, 12).reshape(3, 4).T,
         np.array([1.0, 1e-307, 0.5]), np.array([1.0, 1e-320, 0.5])]


# the pair-by-pair forms, named as the library's so that gridwise's refusals
# read the same


@gridwise
def damped_specific_heat(theta, alpha: float) -> ThermoPoint:
    lam_plus, lam_minus, alpha = _lambda_pm(theta, alpha)
    if alpha == 0.0:
        return ThermoPoint(C=undamped_thermo(theta).C)
    h_plus, h_minus = _h(lam_plus), _h(lam_minus)
    return ThermoPoint(C=checked_real(h_plus + h_minus, abs(h_plus) + abs(h_minus),
                                      "specific heat", theta=theta, alpha=alpha))


@gridwise
def damped_entropy(theta, alpha: float) -> ThermoPoint:
    lam_plus, lam_minus, alpha = _lambda_pm(theta, alpha)
    if alpha == 0.0:
        return ThermoPoint(S=undamped_thermo(theta).S)
    (g_plus, size_plus), (g_minus, size_minus) = _G(lam_plus), _G(lam_minus)
    return ThermoPoint(S=checked_real(g_plus + g_minus, size_plus + size_minus,
                                      "entropy", theta=theta, alpha=alpha))


@gridwise
def drude_specific_heat(theta, cutoff_ratio: float) -> ThermoPoint:
    a = 1.0 / (TWO_PI * theta)
    s, x_plus, x_minus = _drude_pair(cutoff_ratio)
    if 1.0 - 4.0 / cutoff_ratio < _DEGENERATE_BAND:
        # (r/2) (1 +- i w), with w = |s| below r = 4 and the band's width above
        width = s.imag or _DEGENERATE_BAND
        x_plus = 0.5 * cutoff_ratio * complex(1.0, width)
        x_minus = x_plus.conjugate()
        h_plus, h_minus = _h(a * x_plus), _h(a * x_minus)
        total = -((h_plus / x_plus) - (h_minus / x_minus)).imag / width
        tiny = 2.0 * sys.float_info.min
        magnitude = (x_plus.real * (abs(h_plus.imag) + abs(h_minus.imag) + tiny)
                     + x_plus.imag * (abs(h_plus) + abs(h_minus))) / (width * abs(x_plus) ** 2)
    else:
        t_plus, t_minus = _h(a * x_plus) / x_plus, _h(a * x_minus) / x_minus
        total = (t_minus - t_plus) / s
        magnitude = (abs(t_plus) + abs(t_minus)) / abs(s)
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
    # at theta = 1e-320 1/(2 pi theta) overflows and every coupled pair's
    # terms are nan: the forms refuse, as a float and as a grid's first
    # failing element, with the same text (the undamped C is exactly 0 there)
    form, pairwise, parameters = pair
    for parameter in parameters:
        for theta in (1e-320, np.array([1.0, 1e-320])):
            got = outcome(form, theta, parameter)
            if parameter != 0.0:
                assert got[0] == "ConvergenceError"
                assert got[1].startswith(("specific heat at theta=1e-320,",
                                          "entropy at theta=1e-320,"))
                assert got[1].endswith("is not finite in double precision")
            assert got == outcome(pairwise, theta, parameter)


def test_one_kernel_evaluation_per_conjugate_pair(monkeypatch):
    pushes = []
    push = specfun._push

    def counting(*args):
        pushes.append(args[0])
        return push(*args)

    monkeypatch.setattr(specfun, "_push", counting)
    # alpha = 0 takes the undamped closed form, which pushes nothing
    forms = [(oscillator.damped_specific_heat, alpha, 1 if alpha <= 2.0 else 2)
             for alpha in ALPHAS if alpha > 0.0]
    # G pushes once below |z| = 12: ln Gamma's and psi's recurrences share it
    forms += [(oscillator.damped_entropy, alpha, 1 if alpha <= 2.0 else 2)
              for alpha in ALPHAS if alpha > 0.0]
    # r = 4 is inside the degenerate band, which evaluates (r/2) (1 + i w) alone
    forms += [(free_particle.drude_specific_heat, ratio, 1 if ratio <= 4.0 else 2)
              for ratio in RATIOS]
    for form, parameter, count in forms:
        for theta in (0.37, np.logspace(-2.0, 2.0, 21)):
            pushes.clear()
            # S at alpha = 1e-8 refuses near theta = 0.016, after its kernels
            with contextlib.suppress(ConvergenceError):
                form(theta, parameter)
            assert len(pushes) == count, (form.__name__, parameter, theta)
