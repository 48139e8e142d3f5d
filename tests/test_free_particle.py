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

# r = 4 makes the characteristic pair degenerate; the closed form becomes 0/0.
# theta -> (C, rel); at theta = 1e-4 the terms are 1e4 times C (the s -> 0
# limit at 60 digits, from scripts/freeze_oracles.py)
C_DRUDE_DEGENERATE = {0.5: (0.3337003712427578241072997, 1e-13),
                      1e-4: (0.000104719750985489992764695, 2e-9)}

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


# (theta, r) -> C at large cutoff ratios, from scripts/freeze_oracles.py (the
# defining closed form at 2 log10(r) + 40 digits), where z_- = z0 (1 - s)
# would cancel
C_DRUDE_LARGE_RATIO = {
    (1e-3, 1e6): 0.00104718928310583040598972,
    (0.37, 1e6): 0.2542024355076362868874438,
    (1e-3, 1e10): 0.001047189283089296311221805,
    (0.37, 1e10): 0.2542023172896607460571317,
    (1e-3, 1e16): 0.001047189283089294657648624,
    (0.37, 1e16): 0.2542023172778377811590453,
    (1e-3, 1e17): 0.001047189283089294657647136,
    (0.37, 1e17): 0.2542023172778377705183662,
    (1e-3, 1e300): 0.00104718928308929465764697,
    (0.37, 1e300): 0.2542023172778377693360686,
}


@pytest.mark.parametrize("key", sorted(C_DRUDE_LARGE_RATIO))
def test_drude_specific_heat_at_large_cutoff_ratios(key):
    # at theta = 1e-3 the terms are 1e5 times C, and their roundoff with them
    theta, ratio = key
    rel = 1e-10 if theta < 0.01 else 1e-13
    for got in (drude_specific_heat(theta, ratio).C,
                drude_specific_heat(np.array([theta]), ratio).C[0]):
        assert got == pytest.approx(C_DRUDE_LARGE_RATIO[key], rel=rel, abs=0.0)


def test_small_drude_root_is_taken_from_the_product():
    # x_- = (r/2) (1 - sqrt(1 - 4/r)) is 1 + 1/r + ...: (r/2) (1 - s) rounds
    # it to 0 from r ~ 1e17
    for ratio in (1e8, 1e17, 1e300):
        x_minus = _drude_pair(ratio)[2]
        assert x_minus.real == pytest.approx(1.0 + 1.0 / ratio, rel=1e-15)
        assert x_minus.imag == 0.0


def test_drude_degenerate_cutoff():
    for theta, (want, rel) in C_DRUDE_DEGENERATE.items():
        for got in (drude_specific_heat(theta, 4.0).C,
                    drude_specific_heat(np.array([2.0, theta]), 4.0).C[1]):
            assert got == pytest.approx(want, rel=rel, abs=0.0)


# (theta, r) -> C just below the critical cutoff, r = 4 (1 - 10^-k) for k = 6,
# 8 and 10, from scripts/freeze_oracles.py (the pair form at 60 digits); at
# theta = 1e-4 the pair's terms are 1e4 times C
C_DRUDE_NEAR_CRITICAL = {
    (1e-4, 4.0 * (1.0 - 1e-6)): 0.0001047197509854941269375961,
    (1e-4, 4.0 * (1.0 - 1e-8)): 0.0001047197509854900341063833,
    (1e-4, 4.0 * (1.0 - 1e-10)): 0.0001047197509854899931781119,
    (1e-3, 4.0 * (1.0 - 1e-10)): 0.001047193417070090433817119,
}


@pytest.mark.parametrize("key", sorted(C_DRUDE_NEAR_CRITICAL))
def test_drude_specific_heat_just_below_the_critical_cutoff(key):
    # one evaluation at z_+ = z0 (1 + i|s|) forms z_+'s term minus its
    # conjugate without cancellation, however small |s| is
    theta, ratio = key
    for got in (drude_specific_heat(theta, ratio).C,
                drude_specific_heat(np.array([0.5, theta]), ratio).C[1]):
        assert got == pytest.approx(C_DRUDE_NEAR_CRITICAL[key], rel=1e-8, abs=0.0)


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
    # x_pm are the roots of x^2 - r x + r, whatever theta is
    rng = np.random.default_rng(314)
    for _ in range(100):
        ratio = float(rng.uniform(0.1, 12.0))
        s, x_plus, x_minus = _drude_pair(ratio)
        assert abs(x_plus + x_minus - ratio) <= 1e-13 * ratio
        assert abs(x_plus * x_minus - ratio) <= 1e-13 * ratio
        assert x_plus - x_minus == pytest.approx(ratio * s, rel=1e-13)
        if ratio < 4.0:
            assert x_minus == x_plus.conjugate()
        else:
            assert x_plus.imag == 0.0 and x_minus.imag == 0.0


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
    # a numpy cutoff is computed and named as its double: at theta = 1e-307
    # C is within a few eps of (pi/3) theta; at 1e-320, where
    # a = 1/(2 pi theta) overflows, the refusal names the cutoff
    got = drude_specific_heat(1e-307, np.float32(10.0)).C
    assert got == pytest.approx(C_LOW_THETA[1e-307, 10.0], rel=1e-13, abs=0.0)
    with pytest.raises(ConvergenceError, match=r"cutoff_ratio=10\.0 is not finite"):
        drude_specific_heat(1e-320, np.float32(10.0))


# C where the pair's psi' terms, of size 1/theta, cancel to O(theta), from the
# definitions with 2 log10(1/theta) + 40 digits (scripts/freeze_oracles.py)
C_LOW_THETA = {
    (1e-9, 0.01): 1.047197551196599456775094e-9,
    (1e-14, 0.01): 1.047197551196597744917798e-14,
    (1e-300, 0.01): 1.047197551196597772396034e-300,
    (1e-9, 1.0): 1.047197551196597819643685e-9,
    (1e-14, 1.0): 1.047197551196597744917798e-14,
    (1e-300, 1.0): 1.047197551196597772396034e-300,
    (1e-9, 4.0): 1.047197551196597807241174e-9,
    (1e-14, 4.0): 1.047197551196597744917798e-14,
    (1e-300, 4.0): 1.047197551196597772396034e-300,
    (1e-9, 10.0): 1.047197551196597804760672e-9,
    (1e-14, 10.0): 1.047197551196597744917798e-14,
    (1e-300, 10.0): 1.047197551196597772396034e-300,
    (1e-307, 10.0): 1.047197551196597651201279e-307,
    (1e-9, math.inf): 1.047197551196597803107004e-9,
    (1e-14, math.inf): 1.047197551196597744917798e-14,
    (1e-300, math.inf): 1.047197551196597772396034e-300,
}


@pytest.mark.parametrize("ratio", [0.01, 1.0, 4.0, 10.0, math.inf])
def test_specific_heat_fails_loudly_below_its_resolution(ratio):
    # C = h(a) and the x_pm form keep their digits wherever a x_pm is a
    # double; at r = 4 theta = 1e-300 makes Im h(a x) subnormal, whose
    # rounding the relative bound allows; where a overflows C must raise
    for theta in (1e-9, 1e-14, 1e-300):
        assert drude_specific_heat(theta, ratio).C == pytest.approx(
            C_LOW_THETA[theta, ratio], rel=1e-13, abs=0.0)
    with pytest.raises(ConvergenceError, match=r"at theta=1e-320\b.* not finite"):
        drude_specific_heat(1e-320, ratio)
    for theta in np.logspace(-4.0, 4.0, 33):
        assert math.isfinite(drude_specific_heat(float(theta), ratio).C)
