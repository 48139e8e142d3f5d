"""Tests for the closed-form oscillator thermodynamics.

Frozen reference numbers come from an independent mpmath evaluation of the
same trigamma / log-gamma expressions at 40-digit precision.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbrownian.core import ConvergenceError, DomainError
from qbrownian.matsubara import DampingKernel, PoleSum, Prescription
from qbrownian.oscillator import (_lambda_pm, damped_entropy, damped_specific_heat,
                                  damped_specific_heat_via_entropy,
                                  oscillator_expansion, undamped_thermo)

TWO_PI = 2.0 * math.pi

C_DAMPED_REF = {
    (1.0, 1.0): 0.8162033382977143834464571,
    (0.5, 2.0): 0.588861449611827186449658,
    (2.0, 5.0): 0.7543543142976419899867575,
    (0.01, 1.0): 0.01048853537745437736900681,
}

S_DAMPED_REF = {
    (1.0, 1.0): 1.174107391136215033090699,
    (0.2, 0.5): 0.1532383415402892507647376,
    (1000.0, 1.0): 7.90791445475210143837394,
}

UNDAMPED_AT_UNIT_THETA = dict(
    Z=0.9595173756674718597461014,
    E=1.081976706869326424385002,
    S=1.040651852256408315406646,
    C=0.9206735942077923189454135,
)


def test_undamped_frozen_values():
    point = undamped_thermo(1.0)
    for name, want in UNDAMPED_AT_UNIT_THETA.items():
        assert getattr(point, name) == pytest.approx(want, rel=1e-14), name


# S at high temperature, where 1 - e^(-1/theta) keeps few digits (and
# rounds to 0 above theta ~ 1e16)
UNDAMPED_S_HOT = {
    1e6: 14.81551055796431577077462,
    1e9: 21.72326583694641115620359,
    1e12: 28.6310211159285482082159,
    1e16: 37.84136148790473094428786,
    1e100: 231.2585092994045684017991,
}


@pytest.mark.parametrize("theta", sorted(UNDAMPED_S_HOT))
def test_undamped_entropy_at_high_temperature(theta):
    want = UNDAMPED_S_HOT[theta]
    assert undamped_thermo(theta).S == pytest.approx(want, rel=1e-15)
    assert undamped_thermo(np.array([theta])).S[0] == pytest.approx(want, rel=1e-15)


# (Z, E, S) where x^2 = theta^-2 underflows to 0; C is 1 to double precision
UNDAMPED_HOTTEST = {
    1e163: (1.0e163, 1.0e163, 376.3213701580294464949326),
    1e200: (1.0e200, 1.0e200, 461.5170185988091368035983),
    1e300: (1.0e300, 1.0e300, 691.7755278982137052053974),
}


@pytest.mark.parametrize("theta", sorted(UNDAMPED_HOTTEST))
def test_undamped_thermo_where_x_squared_underflows(theta):
    for point in (undamped_thermo(theta), undamped_thermo(np.array([theta]))):
        assert point.C == 1.0
        for q, want in zip("ZES", UNDAMPED_HOTTEST[theta]):
            assert getattr(point, q) == pytest.approx(want, rel=1e-15), q


# S and C of 1/theta in (700, ~720), where they are normal doubles (S at 720
# subnormal) that forms through e^x and expm1(x) flushed to 0, and the
# expansion x^2 e^-x there; from scripts/freeze_oracles.py at 400 digits
UNDAMPED_COLD = {
    705: (4.690238845386776655122612e-304, 3.301934790550088540484319e-301),
    710: (3.182639506455137766464043e-306, 2.256495886362918231185274e-303),
    720: (1.465238408547955569225254e-310, 1.053508447976782438360102e-307),
}


@pytest.mark.parametrize("x", sorted(UNDAMPED_COLD))
def test_undamped_thermo_near_the_smallest_normal_double(x):
    theta = 1.0 / x
    entropy, heat = UNDAMPED_COLD[x]
    for point in (undamped_thermo(theta), undamped_thermo(np.array([theta]))):
        assert point.S == pytest.approx(entropy, rel=1e-13, abs=0.0)
        assert point.C == pytest.approx(heat, rel=1e-13, abs=0.0)
    expansion = oscillator_expansion("undamped_lowT", theta)
    assert expansion == pytest.approx(heat, rel=1e-13, abs=0.0)


def test_undamped_limits():
    cold = undamped_thermo(1e-4)
    assert cold.E == pytest.approx(0.5, rel=1e-15)
    assert cold.C == 0.0
    assert cold.S == 0.0
    hot = undamped_thermo(1e4)
    assert hot.C == pytest.approx(1.0, rel=1e-6)
    assert hot.E == pytest.approx(1e4, rel=1e-6)


@pytest.mark.parametrize("key", sorted(C_DAMPED_REF))
def test_damped_specific_heat_frozen(key):
    theta, alpha = key
    got = damped_specific_heat(theta, alpha)
    assert got.C == pytest.approx(C_DAMPED_REF[key], rel=1e-13)


@pytest.mark.parametrize("key", sorted(S_DAMPED_REF))
def test_damped_entropy_frozen(key):
    theta, alpha = key
    got = damped_entropy(theta, alpha)
    assert got.S == pytest.approx(S_DAMPED_REF[key], rel=1e-13)


def test_lambda_pair_invariants():
    rng = np.random.default_rng(41)
    for _ in range(200):
        theta = float(rng.uniform(0.01, 20.0))
        alpha = float(rng.uniform(0.0, 6.0))
        lam_plus, lam_minus = _lambda_pm(theta, alpha)[:2]
        scale = 1.0 / (TWO_PI * theta)
        product = lam_plus * lam_minus
        total = lam_plus + lam_minus
        assert abs(product - scale * scale) <= 1e-14 * scale * scale
        assert abs(total - alpha * scale) <= 1e-14 * max(scale, alpha * scale)
        if alpha < 2.0:
            assert lam_minus == lam_plus.conjugate()
        else:
            assert lam_plus.imag == 0.0
            assert lam_minus.imag == 0.0


def test_small_root_is_taken_from_the_product():
    # lam_- = (2 pi theta)^-1 / (alpha/2 + sqrt(alpha^2/4 - 1)), which is
    # (2 pi theta)^-1 (1/alpha + 1/alpha^3 + ...); alpha/2 - sqrt(...) would
    # keep none of its digits at alpha = 1e8
    for alpha in (1e4, 1e8, 1e150):
        for theta in (1e-3, 1.0):
            lam_minus = _lambda_pm(theta, alpha)[1]
            want = (1.0 + 1.0 / (alpha * alpha)) / alpha
            assert lam_minus.real * (TWO_PI * theta) == pytest.approx(want, rel=1e-15)
            assert lam_minus.imag == 0.0


def test_two_specific_heat_routes_agree():
    # the closed form against the pole form of the frequency sum
    rng = np.random.default_rng(977)
    for _ in range(60):
        theta = float(rng.uniform(0.02, 30.0))
        alpha = float(rng.uniform(0.0, 5.0))
        closed = damped_specific_heat(theta, alpha).C
        poles = PoleSum(1.0, DampingKernel.ohmic(alpha), Prescription.ENERGY)
        assert abs(closed - poles.heat(theta)) < 1e-11


def test_entropy_route_returns_the_energy_routes_bits():
    grid = np.logspace(-4.0, 4.0, 41)
    for alpha in (0.0, 0.5, 2.0, 5.0):
        for theta in (1e-3, 0.37, 2.0, 1e3):
            got = damped_specific_heat_via_entropy(theta, alpha).C
            assert repr(got) == repr(damped_specific_heat(theta, alpha).C)
        got = damped_specific_heat_via_entropy(grid, alpha).C
        assert got.tolist() == damped_specific_heat(grid, alpha).C.tolist()


def test_entropy_derivative_is_the_specific_heat():
    # C = theta dS/dtheta, by a Richardson-extrapolated central difference
    # of S: the check of the entropy against the specific heat that the two
    # C routes, one sum term by term, cannot make
    h = 1e-4
    thetas = np.logspace(math.log10(0.05), math.log10(20.0), 60)
    for alpha in (0.0, 0.1, 1.0, 2.0, 5.0):
        def slope(step, alpha=alpha):
            return (damped_entropy(thetas * (1.0 + step), alpha).S
                    - damped_entropy(thetas * (1.0 - step), alpha).S) / (2.0 * step)

        derivative = (4.0 * slope(h / 2.0) - slope(h)) / 3.0
        worst = np.abs(derivative - damped_specific_heat(thetas, alpha).C).max()
        assert worst < 1e-9, (alpha, worst)


def test_zero_damping_reduces_to_undamped():
    for theta in (0.1, 0.5, 1.0, 3.0, 20.0):
        plain = undamped_thermo(theta)
        assert damped_specific_heat(theta, 0.0).C == pytest.approx(plain.C, abs=1e-12)
        assert damped_specific_heat_via_entropy(theta, 0.0).C == pytest.approx(
            plain.C, abs=1e-12)
        assert damped_entropy(theta, 0.0).S == pytest.approx(plain.S, abs=1e-12)


def test_specific_heat_monotone_and_bounded():
    # at alpha = 0 the exact C is exponentially small below theta ~ 0.05,
    # beneath the 1e-15 cancellation noise of the damped closed form, so the
    # undamped grid starts where the signal is resolvable
    for alpha, t_low in ((0.0, 0.05), (0.5, 0.01), (2.0, 0.01), (5.0, 0.01)):
        thetas = np.logspace(math.log10(t_low), 2, 80)
        values = [damped_specific_heat(float(t), alpha).C for t in thetas]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(-1e-14 < v < 1.0 for v in values)


def test_damping_lowers_specific_heat_at_low_temperature():
    # below theta ~ 0.1 the quantum suppression is lifted linearly by damping
    for theta in (0.02, 0.05):
        undamped = damped_specific_heat(theta, 0.0).C
        damped = damped_specific_heat(theta, 1.0).C
        assert damped > undamped


def test_expansion_values_and_errors():
    value = oscillator_expansion("damped_lowT", 0.01, alpha=1.0)
    expect = (math.pi / 3.0) * 0.01 + (4.0 * math.pi ** 3 / 15.0) * 2.0 * 1e-6
    assert value == pytest.approx(expect, rel=1e-14)

    value = oscillator_expansion("damped_highT", 10.0, alpha=1.0)
    assert value == pytest.approx(1.0 - 1.0 / (TWO_PI * 10.0) - 1.0 / 2400.0, rel=1e-14)

    value = oscillator_expansion("undamped_highT", 8.0)
    assert value == pytest.approx(1.0 - 1.0 / (12.0 * 64.0), rel=1e-14)

    value = oscillator_expansion("undamped_lowT", 0.1)
    assert value == pytest.approx(100.0 * math.exp(-10.0), rel=1e-14)


def test_expansion_tracks_exact_value():
    for theta in (0.01, 0.02):
        exact = damped_specific_heat(theta, 1.0).C
        approx = oscillator_expansion("damped_lowT", theta, alpha=1.0)
        assert abs(approx - exact) < 1e-3 * exact
    for theta in (30.0, 100.0):
        exact = damped_specific_heat(theta, 1.0).C
        approx = oscillator_expansion("damped_highT", theta, alpha=1.0)
        assert abs(approx - exact) < 1e-4


def test_expansion_rejects_bad_requests():
    with pytest.raises(DomainError):
        oscillator_expansion("no_such_kind", 1.0)
    with pytest.raises(DomainError):
        oscillator_expansion("damped_lowT", 0.5, alpha=0.0)
    with pytest.raises(DomainError):
        oscillator_expansion("damped_highT", 0.5)


@pytest.mark.parametrize("call", [
    lambda: undamped_thermo(0.0),
    lambda: undamped_thermo(-1.0),
    lambda: undamped_thermo(math.inf),
    lambda: _lambda_pm(1.0, -0.5),
    lambda: _lambda_pm(1.0, math.inf),
    lambda: damped_specific_heat(0.0, 1.0),
    lambda: damped_entropy(-2.0, 1.0),
])
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_lambda_pair_rejects_overflowing_alpha():
    with pytest.raises(DomainError, match="alpha"):
        _lambda_pm(1.0, 1e300)
    with pytest.raises(DomainError, match="alpha"):
        damped_specific_heat(0.5, 1e200)
    # an alpha whose square still fits keeps the old arithmetic
    lam_plus, lam_minus = _lambda_pm(1.0, 1e150)[:2]
    assert math.isfinite(lam_plus.real) and math.isfinite(lam_minus.real)


CLOSED_FORMS = {
    "C": lambda t, a: damped_specific_heat(t, a).C,
    "C_via_entropy": lambda t, a: damped_specific_heat_via_entropy(t, a).C,
    "S": lambda t, a: damped_entropy(t, a).S,
}


# (C, S) at alpha = 1 where the terms of 1 - a + sum lam^2 psi'(1 + lam) and
# 1 + ln theta + a + sum g(lam) cancel to O(theta), from the definitions
# with 2 log10(1/theta) + 40 digits (scripts/freeze_oracles.py)
LOW_THETA = {
    1e-9: (1.047197551196597827912025e-9, 1.047197551196597816887571e-9),
    1e-12: (1.047197551196597725091578e-12, 1.047197551196597725091567e-12),
    1e-18: (1.047197551196597821073266e-18, 1.047197551196597821073266e-18),
    1e-300: (1.047197551196597772396034e-300, 1.047197551196597772396034e-300),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_forms_fail_loudly_below_their_resolution(name):
    fn = CLOSED_FORMS[name]
    # as sums of h or G the forms keep their digits wherever lambda is a
    # double; where 1/(2 pi theta) overflows they must raise
    for theta, (heat, entropy) in LOW_THETA.items():
        want = entropy if name == "S" else heat
        assert fn(theta, 1.0) == pytest.approx(want, rel=1e-13, abs=0.0), theta
    with pytest.raises(ConvergenceError, match=r"at theta=1e-320, alpha=1\.0 is not "
                                               r"finite in double precision"):
        fn(1e-320, 1.0)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_forms_never_fail_above_1e_4(name):
    fn = CLOSED_FORMS[name]
    for theta in np.logspace(-4.0, 4.0, 33):
        for alpha in (0.0, 0.1, 1.0, 2.0, 2.0 + 1e-7, 4.0, 6.0):
            assert math.isfinite(fn(float(theta), alpha))
