"""Acceptance suite: the package's numerical contracts, one test per contract.

Each test states a property the library must satisfy at a pinned tolerance
and checks it over a fixed grid, so `pytest -v` reports one pass/fail line
per contract.  Tolerances are deliberately frozen; loosening them is a
behavior change, not a test fix.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from qbrownian.core import Tolerances
from qbrownian.free_particle import (_drude_pair, drude_specific_heat,
                                     ohmic_lowT_expansion, ohmic_specific_heat)
from qbrownian.cli import CurveSpec, cmd_fig1
from qbrownian.matsubara import (DampingKernel, PoleSum, Prescription, energy_sum,
                                 position_variance_sum, prescription_gap,
                                 specific_heat_fd)
from qbrownian.oscillator import (_lambda_pm, damped_entropy, damped_specific_heat,
                                  damped_specific_heat_via_entropy,
                                  oscillator_expansion, undamped_thermo)
from qbrownian.quadrature import moments, spectral_energy
from qbrownian.specfun import _G, _digamma, _h

from gamma_family import _ln_gamma, _trigamma

EULER_GAMMA = 0.5772156649015328606065121


def test_01_gamma_family_identities_and_symmetry():
    """Classic values to 1e-12 relative; conjugation and recurrences to 1e-13
    on 1000 random complex points."""
    assert abs(_trigamma(1.0).real - math.pi ** 2 / 6.0) < 1e-12 * (math.pi ** 2 / 6.0)
    assert abs(_trigamma(0.5).real - math.pi ** 2 / 2.0) < 1e-12 * (math.pi ** 2 / 2.0)
    assert abs(_digamma(1.0).real + EULER_GAMMA) < 1e-12 * EULER_GAMMA
    half_log_pi = 0.5 * math.log(math.pi)
    assert abs(_ln_gamma(0.5).real - half_log_pi) < 1e-12 * half_log_pi

    rng = np.random.default_rng(20260817)
    points: list[complex] = []
    while len(points) < 1000:
        z = complex(rng.uniform(-8.0, 12.0), rng.uniform(-10.0, 10.0))
        if z.real < 0.5 and abs(z.imag) < 0.2 and abs(z.real - round(z.real)) < 0.2:
            continue
        points.append(z)
    for z in points:
        for fn in (_digamma, _trigamma):
            assert fn(z.conjugate()) == fn(z).conjugate()
        psi = _digamma(z)
        assert abs(_digamma(z + 1.0) - psi - 1.0 / z) <= 1e-13 * max(1.0, abs(psi))
        psi1 = _trigamma(z)
        assert abs(_trigamma(z + 1.0) - psi1 + 1.0 / (z * z)) <= 1e-13 * max(1.0, abs(psi1))
        if z.real > 0.05:
            assert _ln_gamma(z.conjugate()) == _ln_gamma(z).conjugate()
            lg = _ln_gamma(z)
            assert abs(_ln_gamma(z + 1.0) - lg - cmath.log(z)) <= 1e-13 * max(1.0, abs(lg))


def test_02_specific_heat_routes_agree():
    """The trigamma closed form and the pole form of the frequency sum give
    specific heats that coincide below 1e-11 over six decades of temperature
    and damping 0 to 5."""
    worst = 0.0
    for alpha in (0.0, 0.1, 1.0, 2.0, 5.0):
        poles = PoleSum(1.0, DampingKernel.ohmic(alpha), Prescription.ENERGY)
        for theta in np.logspace(-3.0, 3.0, 60):
            closed = damped_specific_heat(float(theta), alpha).C
            worst = max(worst, abs(closed - poles.heat(float(theta))))
    assert worst < 1e-11, f"worst route disagreement {worst:g}"


@pytest.mark.usefixtures("tight")
def test_03_frequency_sum_reproduces_oscillator_specific_heat():
    """Finite-difference C from the regularized frequency sum matches the
    trigamma closed form to 1e-6 for theta in [0.05, 50], alpha in
    {0.5, 1, 2, 5}."""
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        kernel = DampingKernel.ohmic(alpha)

        def reg_energy(t: float, k=kernel) -> float:
            return energy_sum(1.0, k, 1.0 / t, Prescription.PARTITION).value

        for theta in np.logspace(math.log10(0.05), math.log10(50.0), 10):
            fd = specific_heat_fd(reg_energy, float(theta))
            closed = damped_specific_heat(float(theta), alpha).C
            worst = max(worst, abs(fd.value - closed))
    assert worst < 1e-6, f"worst FD vs closed-form deviation {worst:g}"


@pytest.mark.usefixtures("tight")
def test_04_frequency_sum_reproduces_free_particle_specific_heat():
    """Finite-difference C from the free-particle frequency sum matches the
    Drude closed form to 1e-6 for theta in [0.05, 50], cutoff ratio in
    {0.5, 1, 10}."""
    worst = 0.0
    for ratio in (0.5, 1.0, 10.0):
        kernel = DampingKernel.drude(1.0, ratio)

        def sum_energy(t: float, k=kernel) -> float:
            return energy_sum(0.0, k, 1.0 / t, Prescription.ENERGY).value

        for theta in np.logspace(math.log10(0.05), math.log10(50.0), 10):
            fd = specific_heat_fd(sum_energy, float(theta))
            closed = drude_specific_heat(float(theta), ratio).C
            worst = max(worst, abs(fd.value - closed))
    assert worst < 1e-6, f"worst FD vs closed-form deviation {worst:g}"


def test_05_spectral_integrals_cross_check_frequency_sums():
    """Position variance by quadrature agrees with the frequency sum to 1e-8;
    C assembled from the regularized spectral moments matches the closed form
    to 1e-5, confirming the dropped constant carries no heat."""
    worst_q2 = 0.0
    for theta in np.logspace(-1.0, 1.0, 7):
        for alpha in (0.5, 1.0, 2.0):
            from_integral = moments(float(theta), alpha).q2
            from_sum = position_variance_sum(float(theta), alpha).value
            worst_q2 = max(worst_q2, abs(from_integral - from_sum))
    assert worst_q2 < 1e-8, f"worst variance route disagreement {worst_q2:g}"

    qtol = Tolerances(quad_abs=1e-11)
    worst_c = 0.0
    for theta in (0.2, 1.0, 5.0):
        for alpha in (0.5, 2.0):
            fd = specific_heat_fd(
                lambda t, a=alpha: spectral_energy(t, a, qtol)[0],
                theta, rel_step=3e-4)
            closed = damped_specific_heat(theta, alpha).C
            worst_c = max(worst_c, abs(fd.value - closed))
    assert worst_c < 1e-5, f"worst spectral-moment C deviation {worst_c:g}"


def test_06_entropy_and_heat_vanish_linearly_at_low_temperature():
    """Third-law behavior: S/theta for the damped oscillator reaches
    (pi/3) alpha within 1% below theta = 1e-3, and C/theta for the free
    particle reaches pi/3 within 1% for every cutoff, infinity included."""
    for theta in (1e-3, 3e-4):
        for alpha in (0.1, 1.0, 2.0, 5.0):
            slope = damped_entropy(theta, alpha).S / theta
            assert abs(slope / ((math.pi / 3.0) * alpha) - 1.0) < 0.01
    for theta in (1e-3, 3e-4):
        for ratio in (0.01, 0.1, 1.0, math.inf):
            slope = drude_specific_heat(theta, ratio).C / theta
            assert abs(slope / (math.pi / 3.0) - 1.0) < 0.01


def test_07_free_particle_figure_data_properties():
    """The shipped figure data: main curve monotone, bounded by 1/2 and within
    5% of it at theta = 10; cutoff curves strictly ordered below theta = 0.3;
    low-temperature expansion within 1% of exact below theta = 0.05."""
    files = cmd_fig1(CurveSpec(model="free", tmin=1e-3, tmax=10.0, points=400,
                               log=True))
    main_lines, inset_lines = files["_main.csv"], files["_inset.csv"]
    main = [line.split(",") for line in main_lines[2:]]
    heats = [float(row[1]) for row in main]
    assert all(b > a for a, b in zip(heats, heats[1:]))
    assert all(c < 0.5 for c in heats)
    assert abs(heats[-1] - 0.5) < 0.05 * 0.5
    assert abs(float(main[-1][0]) - 10.0) < 1e-12
    for row in main:
        theta, exact, expansion = (float(x) for x in row)
        if theta <= 0.05:
            assert abs(expansion - exact) < 0.01 * exact

    for line in inset_lines[2:]:
        row = [float(x) for x in line.split(",")]
        theta, ordered = row[0], row[1:5]
        if theta < 0.3:
            assert ordered[0] > ordered[1] > ordered[2] > ordered[3]


@pytest.mark.usefixtures("tight")
def test_08_prescription_gap_vanishes_only_for_strict_ohmic_damping():
    """The partition-route minus direct-route energy gap: exactly zero for
    memoryless damping, strictly positive with a Drude cutoff, and equal to
    the directly summed kernel-derivative term to 1e-12 relative."""
    for beta in (0.5, 1.0, 2.0):
        assert prescription_gap(1.0, DampingKernel.ohmic(1.0), beta).value == 0.0
        assert prescription_gap(0.0, DampingKernel.ohmic(1.0), beta).value == 0.0

    for theta in (0.5, 1.0, 2.0):
        for ratio in (2.0, 10.0, 100.0):
            kernel = DampingKernel.drude(1.0, ratio)
            beta = 1.0 / theta
            gap = prescription_gap(1.0, kernel, beta).value
            assert gap > 0.0
            direct = energy_sum(1.0, kernel, beta, Prescription.ENERGY).value
            partition = energy_sum(1.0, kernel, beta, Prescription.PARTITION).value
            assert abs((partition - direct) - gap) <= 1e-12 * gap


def test_09_expansion_error_exponents_match_stated_remainders():
    """Halving-grid error exponents of the four power-law expansions sit in
    the bands their remainder orders imply."""

    def exponent(err_fn, theta: float) -> float:
        return math.log2(err_fn(theta) / err_fn(theta / 2.0))

    def damped_low_err(theta: float) -> float:
        return abs(damped_specific_heat(theta, 1.0).C
                   - oscillator_expansion("damped_lowT", theta, 1.0))

    def damped_high_err(theta: float) -> float:
        return abs(damped_specific_heat(theta, 1.0).C
                   - oscillator_expansion("damped_highT", theta, 1.0))

    def undamped_high_err(theta: float) -> float:
        return abs(undamped_thermo(theta).C
                   - oscillator_expansion("undamped_highT", theta))

    def free_low_err(theta: float) -> float:
        return abs(ohmic_specific_heat(theta).C - ohmic_lowT_expansion(theta))

    assert 4.0 <= exponent(damped_low_err, 0.02) <= 6.0
    assert 4.0 <= exponent(free_low_err, 0.02) <= 6.0
    assert -4.0 <= exponent(damped_high_err, 64.0) <= -2.0
    assert -5.0 <= exponent(undamped_high_err, 64.0) <= -3.0


def test_10_reality_and_continuity_at_critical_parameters():
    """Conjugate-pair assemblies stay real below 1e-12 for alpha < 2 and
    cutoff ratio < 4, and every quantity is continuous to 1e-8 across the
    real/complex crossover of its characteristic pair."""
    for theta in (0.05, 0.3, 1.0, 5.0):
        for alpha in (0.5, 1.0, 1.5, 1.9, 1.99):
            lam_plus, lam_minus = _lambda_pm(theta, alpha)[:2]
            total = _h(lam_plus) + _h(lam_minus)
            assert abs(total.imag) < 1e-12 * max(1.0, abs(total.real))
            total_g = _G(lam_plus)[0] + _G(lam_minus)[0]
            assert abs(total_g.imag) < 1e-12 * max(1.0, abs(total_g.real))
        for ratio in (0.5, 1.0, 2.0, 3.9, 3.99):
            s, x_plus, x_minus = _drude_pair(ratio)
            a = 1.0 / (2.0 * math.pi * theta)
            bracket = (_h(a * x_plus) / x_plus - _h(a * x_minus) / x_minus) / s
            assert abs(bracket.imag) < 1e-12 * max(1.0, abs(bracket.real))
        # overdamped and super-critical-cutoff points must evaluate cleanly too
        for alpha in (2.0, 2.01, 3.0, 5.0):
            damped_specific_heat(theta, alpha)
            damped_specific_heat_via_entropy(theta, alpha)
            damped_entropy(theta, alpha)
        for ratio in (4.0, 4.01, 6.0, 40.0):
            drude_specific_heat(theta, ratio)

    eps = 1e-7
    for theta in (0.1, 0.5, 1.0, 2.0):
        at = damped_specific_heat(theta, 2.0).C
        above = damped_specific_heat(theta, 2.0 + eps).C
        below = damped_specific_heat(theta, 2.0 - eps).C
        assert abs(above - at) <= 1e-8
        assert abs(below - at) <= 1e-8
        # a step discontinuity would survive the symmetric second difference
        wide = 1e-6
        second = (damped_specific_heat(theta, 2.0 + wide).C
                  + damped_specific_heat(theta, 2.0 - wide).C - 2.0 * at)
        assert abs(second) <= 1e-8
        second_s = (damped_entropy(theta, 2.0 + wide).S
                    + damped_entropy(theta, 2.0 - wide).S
                    - 2.0 * damped_entropy(theta, 2.0).S)
        assert abs(second_s) <= 1e-8
    for theta in (0.1, 0.5, 2.0):
        at = drude_specific_heat(theta, 4.0).C
        assert abs(drude_specific_heat(theta, 4.0 + eps).C - at) <= 1e-8
        assert abs(drude_specific_heat(theta, 4.0 - eps).C - at) <= 1e-8
