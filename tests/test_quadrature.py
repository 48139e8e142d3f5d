"""Tests for the spectral-integral moments and the energy built from them."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from qbrownian.core import ConvergenceError, DomainError, Tolerances
from qbrownian.matsubara import position_variance_sum, specific_heat_fd
from qbrownian.oscillator import damped_specific_heat
import qbrownian.quadrature as quadrature
from qbrownian.quadrature import moments, spectral_energy

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


def moment(n, m):
    """(value, error bar) of f_n, n = 0 or 2, from a MomentResult."""
    return (m.q2, m.q2_err) if n == 0 else (m.p2_reg, m.p2_err)


@pytest.mark.parametrize("key", sorted(F0_REF))
def test_f0_frozen(key):
    theta, alpha = key
    value, err = moment(0, moments(theta, alpha))
    assert value == pytest.approx(F0_REF[key], abs=1e-9)
    assert abs(value - F0_REF[key]) <= max(err, 1e-10)


@pytest.mark.parametrize("key", sorted(F2_REF))
def test_f2_frozen(key):
    theta, alpha = key
    value, err = moment(2, moments(theta, alpha))
    assert value == pytest.approx(F2_REF[key], abs=1e-9)
    assert abs(value - F2_REF[key]) <= max(err, 1e-10)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("key", sorted(ORACLES))
def test_error_bar_covers_oracle(key, n):
    # at alpha = 1e-8 the nodes' gap at w = 1 holds most of the error
    theta, alpha = key
    value, err = moment(n, moments(theta, alpha))
    assert type(value) is float and type(err) is float
    assert abs(value - ORACLES[key][n // 2]) <= err <= Tolerances().quad_abs


def test_weak_damping_approaches_undamped_variance():
    # alpha -> 0 narrows the susceptibility onto the bare resonance
    value = moments(1.0, 1e-4).q2
    want = 0.5 / math.tanh(0.5)
    assert value == pytest.approx(want, abs=1e-3)


def test_equipartition_at_high_temperature():
    # <q^2> -> theta classically
    tol = Tolerances(quad_abs=1e-8)
    value = moments(1e3, 1.0, tol=tol).q2
    assert value / 1e3 == pytest.approx(1.0, abs=1e-5)


def test_equipartition_at_default_tolerance():
    value = moments(1e3, 1.0).q2
    assert value / 1e3 == pytest.approx(1.0, abs=1e-5)


def test_moments_packaging():
    m = moments(1.0, 1.0)
    assert m.q2 > 0.0
    assert m.p2_reg > 0.0
    assert 0.0 <= m.q2_err < 1e-9
    assert 0.0 <= m.p2_err < 1e-9
    assert spectral_energy(1.0, 1.0) == (0.5 * (m.q2 + m.p2_reg),
                                         0.5 * (m.q2_err + m.p2_err))


def test_integral_agrees_with_frequency_sum():
    # same quantity, disjoint numerics: spectral quadrature vs tail-fitted sum
    for theta, alpha in ((1.0, 1.0), (0.4, 2.5), (3.0, 0.7)):
        from_integral = moments(theta, alpha).q2
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
        moments(1.0, 1.0, tol=Tolerances(quad_abs=1e-16))
    assert exc_info.value.requested == pytest.approx(1e-16)


def test_unresolved_resonance_raises_after_the_finest_step():
    # at alpha = 1e-10 the last halving still moves f_0 by ~2e-10
    with pytest.raises(ConvergenceError) as exc_info:
        moments(1.0, 1e-10)
    assert exc_info.value.requested == Tolerances().quad_abs
    assert exc_info.value.achieved > exc_info.value.requested


@pytest.mark.parametrize("n, theta, alpha, expected", [
    # the ground-state variance at alpha = 1, the value from before numpy's
    # warnings were switched off in the level loop
    (0, 1e-295, 1.0, 0.3849001794597506),
    (0, 1.0, 1e136, None),
    (2, 1e300, 1.0, None),
    (0, 1e300, 1.0, None),
    (2, 1e300, 1e136, None),
    # e^(w / theta) overflows on every exp-sinh node
    (2, 1e-3, 1.0, ORACLES[1e-3, 1.0][1]),
], ids=["tiny-theta", "huge-alpha", "huge-theta-f2", "huge-theta-f0",
        "huge-theta-and-alpha", "bose-overflow"])
def test_extreme_inputs_raise_no_numpy_warnings(n, theta, alpha, expected):
    # the integrand overflows or divides by zero on some nodes here; that
    # gives the value or a ConvergenceError, never a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            with pytest.raises(ConvergenceError):
                moments(theta, alpha)
        else:
            value, err = moment(n, moments(theta, alpha))
            assert value == pytest.approx(expected, abs=1e-13)
            assert err <= Tolerances().quad_abs


def test_one_bose_evaluation_per_step_size(monkeypatch):
    # both moments share each level's Bose factor 2/(e^y - 1), formed inline
    # with np.expm1: one call for the first two levels, which every call sums,
    # one per finer level reached (one _table call each), and one more for the
    # factor at w = 1 that bounds the gaps
    class CountingNumpy:
        expm1_calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def expm1(self, *args, **kwargs):
            self.expm1_calls += 1
            return np.expm1(*args, **kwargs)

    levels = []

    def counted_table(alpha, level):
        levels.append(level)
        return table(alpha, level)

    table = quadrature._table
    monkeypatch.setattr(quadrature, "_table", counted_table)
    for theta, alpha in ((1.0, 1.0), (1e-3, 1.0), (20.0, 1.0), (1.0, 1e-8)):
        counting = CountingNumpy()
        monkeypatch.setattr(quadrature, "np", counting)
        levels.clear()
        moments(theta, alpha)
        assert levels[:2] == [0, 1], (theta, alpha)
        assert counting.expm1_calls == len(levels), (theta, alpha)
        assert len(levels) <= len(quadrature._LEVELS), (theta, alpha)


@pytest.mark.parametrize("call", [
    lambda: moments(0.0, 1.0),
    lambda: moments(-1.0, 1.0),
    lambda: moments(1.0, 0.0),
    lambda: moments(1.0, -2.0),
    lambda: moments(1.0, math.inf),
    lambda: spectral_energy(math.nan, 1.0),
    lambda: moments(np.array([0.5, 1.0]), 1.0),
    lambda: moments(1.0, np.array([[1.0]])),
])
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_tables_give_the_same_bits_cold_and_warm():
    quadrature._table.cache_clear()
    cold = moments(0.7, 1.3)
    for alpha in (0.2, 5.0, 40.0):
        moments(2.0, alpha)
    assert moments(0.7, 1.3) == cold
    # cold again, among the tables of other dampings
    quadrature._table.cache_clear()
    for alpha in (0.2, 5.0, 40.0):
        moments(0.7, alpha)
    assert moments(0.7, 1.3) == cold


def test_tables_are_read_only():
    moments(1.0, 1.0)
    rows, ones = quadrature._table(1.0, 0)
    assert type(ones) is float
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


def test_tables_built_only_for_the_levels_reached():
    table = quadrature._table
    table.cache_clear()
    # (1, 1) stops at a coarse step; the rest of its levels are never built
    moments(1.0, 1.0)
    reached = table.cache_info().misses
    assert 0 < reached < len(quadrature._LEVELS)
    assert table.cache_info().currsize == reached
    # the same levels again build nothing
    spectral_energy(1.0, 1.0)
    assert table.cache_info().misses == reached
    assert table.cache_info().hits == reached
    # a narrow resonance needs every step size
    moments(1.0, 1e-8)
    assert table.cache_info().misses == reached + len(quadrature._LEVELS)
