"""Tests for the spectral-integral moments and the energy built from them."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from qbrownian.core import ConvergenceError, DEFAULT_TOL, DomainError, Tolerances
from qbrownian.matsubara import position_variance_sum, specific_heat_fd
from qbrownian.oscillator import damped_specific_heat
from qbrownian.quadrature import f_n_integral, moments, spectral_energy

# mpmath references for the same integrals (40-digit adaptive quadrature)
F0_REF = {
    (1.0, 1.0): 1.073820695043754408703719,
    (0.5, 2.0): 0.6127406109897042647625965,
}
F2_REF = {
    (1.0, 1.0): 0.3979378039026031094222691,
    (0.5, 2.0): 0.07142685820839016037978002,
}
# (theta, alpha): (f_0, regularized f_2) from scripts/freeze_oracles.py, at
# narrow resonances, low and high temperature and strong damping
ORACLES = {
    (1.0, 1e-3): (1.081967424532537173832703, 0.5817159199367053163590455),
    (1.0, 1e-8): (1.081976706776490114125813, 0.5819767042603761215218013),
    (1e-3, 1.0): (0.3849012266614358764913301, 4.134247943324769585017377e-12),
    (20.0, 1.0): (20.0041424378676888407708, 18.45267366749640233784069),
    (0.05, 5.0): (0.2290147451654583639176143, 7.545661448108212683729145e-05),
}


@pytest.mark.parametrize("key", sorted(F0_REF))
def test_f0_frozen(key):
    theta, alpha = key
    value, err = f_n_integral(0, theta, alpha)
    assert value == pytest.approx(F0_REF[key], abs=1e-9)
    assert abs(value - F0_REF[key]) <= max(err, 1e-10)


@pytest.mark.parametrize("key", sorted(F2_REF))
def test_f2_frozen(key):
    theta, alpha = key
    value, err = f_n_integral(2, theta, alpha)
    assert value == pytest.approx(F2_REF[key], abs=1e-9)
    assert abs(value - F2_REF[key]) <= max(err, 1e-10)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("key", sorted(ORACLES))
def test_error_bar_covers_oracle(key, n):
    # at alpha = 1e-8 the nodes' gap at w = 1 holds most of the error
    theta, alpha = key
    value, err = f_n_integral(n, theta, alpha)
    assert type(value) is float and type(err) is float
    assert abs(value - ORACLES[key][n // 2]) <= err <= DEFAULT_TOL.quad_abs


def test_weak_damping_approaches_undamped_variance():
    # alpha -> 0 narrows the susceptibility onto the bare resonance
    value, _ = f_n_integral(0, 1.0, 1e-4)
    want = 0.5 / math.tanh(0.5)
    assert value == pytest.approx(want, abs=1e-3)


def test_equipartition_at_high_temperature():
    # <q^2> -> theta classically
    tol = Tolerances(quad_abs=1e-8)
    value, _ = f_n_integral(0, 1e3, 1.0, tol=tol)
    assert value / 1e3 == pytest.approx(1.0, abs=1e-5)


def test_equipartition_at_default_tolerance():
    value, _ = f_n_integral(0, 1e3, 1.0)
    assert value / 1e3 == pytest.approx(1.0, abs=1e-5)


def test_moments_packaging():
    m = moments(1.0, 1.0)
    assert m.q2 > 0.0
    assert m.p2_reg > 0.0
    assert 0.0 <= m.abs_err < 1e-9
    assert m.q2 == f_n_integral(0, 1.0, 1.0)[0]
    assert m.p2_reg == f_n_integral(2, 1.0, 1.0)[0]


def test_integral_agrees_with_frequency_sum():
    # same quantity, disjoint numerics: spectral quadrature vs tail-fitted sum
    for theta, alpha in ((1.0, 1.0), (0.4, 2.5), (3.0, 0.7)):
        from_integral, _ = f_n_integral(0, theta, alpha)
        from_sum = position_variance_sum(theta, alpha).value
        assert from_integral == pytest.approx(from_sum, abs=1e-8)


def test_fd_of_spectral_energy_matches_closed_form():
    tol = Tolerances(quad_abs=1e-11)
    fd = specific_heat_fd(lambda t: spectral_energy(t, 1.0, tol)[0],
                          1.0, rel_step=3e-4)
    assert fd.value == pytest.approx(damped_specific_heat(1.0, 1.0).C, abs=1e-5)


def test_fd_of_spectral_energy_at_high_temperature():
    # the finite-window quadrature raised at theta = 15.8 and 17.4 on this grid
    tol = Tolerances(quad_abs=1e-11)
    for theta in [15.0, 20.0, *np.logspace(1.0, math.log10(21.0), 40)]:
        fd = specific_heat_fd(lambda t: spectral_energy(t, 1.0, tol)[0],
                              float(theta), rel_step=3e-4)
        closed = damped_specific_heat(float(theta), 1.0).C
        assert fd.value == pytest.approx(closed, abs=1e-5), theta


def test_unreachable_tolerance_raises():
    with pytest.raises(ConvergenceError) as exc_info:
        f_n_integral(0, 1.0, 1.0, tol=Tolerances(quad_abs=1e-16))
    assert exc_info.value.requested == pytest.approx(1e-16)


def test_unresolved_resonance_raises_after_the_finest_step():
    # at alpha = 1e-10 the last halving still moves f_0 by ~2e-10
    with pytest.raises(ConvergenceError) as exc_info:
        f_n_integral(0, 1.0, 1e-10)
    assert exc_info.value.requested == DEFAULT_TOL.quad_abs
    assert exc_info.value.achieved > exc_info.value.requested


@pytest.mark.parametrize("n, theta, alpha, expected", [
    # the ground-state variance at alpha = 1, the value from before numpy's
    # warnings were switched off in the level loop
    (0, 1e-295, 1.0, 0.3849001794597506),
    (0, 1.0, 1e136, None),
    (2, 1e300, 1.0, None),
    (0, 1e300, 1.0, None),
], ids=["tiny-theta", "huge-alpha", "huge-theta-f2", "huge-theta-f0"])
def test_extreme_inputs_raise_no_numpy_warnings(n, theta, alpha, expected):
    # the integrand overflows or divides by zero on some nodes here; that
    # gives the value or a ConvergenceError, never a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            with pytest.raises(ConvergenceError):
                f_n_integral(n, theta, alpha)
        else:
            value, err = f_n_integral(n, theta, alpha)
            assert value == pytest.approx(expected, abs=1e-13)
            assert err <= DEFAULT_TOL.quad_abs


@pytest.mark.parametrize("call", [
    lambda: f_n_integral(1, 1.0, 1.0),
    lambda: f_n_integral(3, 1.0, 1.0),
    lambda: f_n_integral(0, 0.0, 1.0),
    lambda: f_n_integral(0, -1.0, 1.0),
    lambda: f_n_integral(0, 1.0, 0.0),
    lambda: f_n_integral(0, 1.0, -2.0),
    lambda: moments(1.0, math.inf),
    lambda: spectral_energy(math.nan, 1.0),
])
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()
