"""Tests for free-particle specific heat and internal energy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbrownian.core import ConvergenceError, DomainError
from qbrownian.free_particle import (_drude_pair, drude_specific_heat,
                                     ohmic_lowT_expansion, ohmic_specific_heat)
from qbrownian.matsubara import DampingKernel, Prescription, energy_sum

TWO_PI = 2.0 * math.pi

C_OHMIC_REF = {
    0.5: 0.294430724805913593224829,
    2.0: 0.4297458416160831186138646,
}

C_DRUDE_REF = {
    (0.5, 1.0): 0.402112053064050376779827,
    (1.0, 10.0): 0.3992974844326149937785603,
    (0.5, 0.5): 0.4379570148315922012682936,
}

# r = 4 makes the characteristic pair degenerate; the closed form becomes 0/0
C_DRUDE_DEGENERATE = ((0.5, 4.0), 0.3337003712427578241072997)

E_REG_OHMIC_REF = 0.09146439575357593840115226   # theta = 0.5
E_DRUDE_REF = 0.3151516612279330070008962        # theta = 0.5, r = 1


@pytest.mark.parametrize("theta", sorted(C_OHMIC_REF))
def test_ohmic_specific_heat_frozen(theta):
    point = ohmic_specific_heat(theta)
    assert point.C == pytest.approx(C_OHMIC_REF[theta], rel=1e-13)


def test_ohmic_specific_heat_at_unit_ratio():
    # at theta = 1/(2 pi) the ratio a is exactly 1 and C = pi^2/6 - 3/2
    got = ohmic_specific_heat(1.0 / TWO_PI).C
    assert got == pytest.approx(math.pi ** 2 / 6.0 - 1.5, rel=1e-14)


def test_ohmic_specific_heat_shape():
    thetas = np.logspace(-3, 3, 120)
    values = [ohmic_specific_heat(float(t)).C for t in thetas]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 0.5 for v in values)
    assert values[-1] == pytest.approx(0.5, abs=1e-3)


def test_ohmic_low_temperature_slope():
    theta = 1e-4
    assert ohmic_specific_heat(theta).C == pytest.approx(
        (math.pi / 3.0) * theta, rel=1e-6)
    expansion = ohmic_lowT_expansion(1e-2)
    # the truncation error of the two-term series is ~2e-6 relative here
    assert ohmic_specific_heat(1e-2).C == pytest.approx(expansion, rel=1e-5)


@pytest.mark.parametrize("key", sorted(C_DRUDE_REF))
def test_drude_specific_heat_frozen(key):
    theta, ratio = key
    assert drude_specific_heat(theta, ratio).C == pytest.approx(
        C_DRUDE_REF[key], rel=1e-13)


def test_drude_degenerate_cutoff():
    (theta, ratio), want = C_DRUDE_DEGENERATE
    assert drude_specific_heat(theta, ratio).C == pytest.approx(want, rel=1e-13)


def test_drude_dispatches_to_ohmic_at_infinite_cutoff():
    for theta in (0.2, 1.0, 7.0):
        assert drude_specific_heat(theta, math.inf).C == ohmic_specific_heat(theta).C


def test_finite_cutoff_raises_c_toward_classical():
    # a softer bath (smaller r) damps less effectively at fixed gamma
    for theta in (0.3, 1.0, 3.0):
        c_inf = drude_specific_heat(theta, math.inf).C
        c_1 = drude_specific_heat(theta, 1.0).C
        c_001 = drude_specific_heat(theta, 0.01).C
        assert c_inf < c_1 < c_001 < 0.5


def test_drude_pair_invariants():
    rng = np.random.default_rng(314)
    for _ in range(100):
        theta = float(rng.uniform(0.05, 10.0))
        ratio = float(rng.uniform(0.1, 12.0))
        z_plus, z_minus = _drude_pair(theta, ratio)[2:]
        z0 = ratio / (2.0 * TWO_PI * theta)
        assert abs(z_plus + z_minus - 2.0 * z0) <= 1e-13 * z0
        assert abs(z_plus * z_minus - z0 * z0 * (4.0 / ratio)) <= 1e-13 * z0 * z0
        if ratio < 4.0:
            assert z_minus == z_plus.conjugate()
        else:
            assert z_plus.imag == 0.0 and z_minus.imag == 0.0


def test_free_energy_sum_frozen_ohmic():
    result = energy_sum(0.0, DampingKernel.ohmic(1.0), 1.0 / 0.5, Prescription.ENERGY)
    assert result.value == pytest.approx(E_REG_OHMIC_REF, rel=1e-11)
    assert result.regularized


def test_free_energy_sum_frozen_drude():
    result = energy_sum(0.0, DampingKernel.drude(1.0, 1.0), 1.0 / 0.5,
                        Prescription.ENERGY)
    assert result.value == pytest.approx(E_DRUDE_REF, rel=1e-11)
    assert not result.regularized


@pytest.mark.parametrize("call", [
    lambda: ohmic_specific_heat(0.0),
    lambda: ohmic_specific_heat(-0.5),
    lambda: ohmic_specific_heat(math.nan),
    lambda: drude_specific_heat(1.0, 0.0),
    lambda: drude_specific_heat(1.0, -3.0),
    lambda: drude_specific_heat(1.0, math.nan),
])
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_numpy_cutoff_ratio_is_taken_as_a_double():
    want = drude_specific_heat(0.5, 10.0).C
    for ratio in (np.float32(10.0), np.float64(10.0), np.array(10.0)):
        assert repr(drude_specific_heat(0.5, ratio).C) == repr(want)
    assert drude_specific_heat(0.5, np.float32(math.inf)) == ohmic_specific_heat(0.5)


def test_numpy_cutoff_ratio_is_named_as_a_double():
    with pytest.raises(ConvergenceError, match=r"cutoff_ratio=10\.0 lost"):
        drude_specific_heat(1e-307, np.float32(10.0))


@pytest.mark.parametrize("ratio", [0.01, 1.0, 4.0, 10.0, math.inf])
def test_specific_heat_fails_loudly_below_its_resolution(ratio):
    for theta in (1e-9, 1e-14, 1e-300):
        with pytest.raises(ConvergenceError, match="cancellation"):
            drude_specific_heat(theta, ratio)
    for theta in np.logspace(-4.0, 4.0, 33):
        assert math.isfinite(drude_specific_heat(float(theta), ratio).C)
