"""Tests for the frequency-sum engine, damping kernels, and FD specific heat.

Frozen sums were computed independently with mpmath (Richardson-accelerated
nsum at 40 digits) against the same summand definitions.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qbrownian.core import ConvergenceError, DomainError, Tolerances
from qbrownian.free_particle import drude_specific_heat
from qbrownian.matsubara import (DampingKernel, PoleSum, Prescription, energy_sum,
                                 position_variance_sum, prescription_gap,
                                 specific_heat_fd)
from qbrownian.oscillator import undamped_thermo

EULER_GAMMA = 0.5772156649015328606065121
TWO_PI = 2.0 * math.pi

TIGHT = Tolerances(rel_sum_tail=1e-13)

# theta = 1, alpha = 1, strictly ohmic, regularized (omega_ref = omega0)
E_REG_OSC_REF = 0.8321042943381163864811856
# theta = 0.5 against gamma, strictly ohmic free particle (omega_ref = gamma)
E_REG_FREE_REF = 0.09146439575357593840115226
# oscillator, theta = 1, alpha = 1, Drude cutoff_ratio = 10
E_DRUDE_ENERGY_REF = 1.275039079476444603907767
E_DRUDE_PARTITION_REF = 1.388598503868636862508784
GAP_DRUDE_REF = 0.1135594243921922586010177
# free particle, theta = 0.5, Drude cutoff_ratio = 1, direct route
E_FREE_DRUDE_REF = 0.3151516612279330070008962

Q2_REF = {
    (1.0, 1.0): 1.073820695043754408703719,
    (0.5, 2.0): 0.6127406109897042647625965,
}


def test_kernel_laplace_ohmic():
    gh, ghp = DampingKernel.ohmic(2.0).laplace(5.0)
    assert gh == 2.0
    assert ghp == 0.0


def test_kernel_laplace_drude():
    gh, ghp = DampingKernel.drude(2.0, 8.0).laplace(8.0)
    assert gh == pytest.approx(1.0, rel=1e-15)
    assert ghp == pytest.approx(-0.0625, rel=1e-15)


def test_kernel_laplace_drude_approaches_ohmic():
    gh, ghp = DampingKernel.drude(2.0, 1e9).laplace(5.0)
    assert gh == pytest.approx(2.0, rel=1e-8)
    assert abs(ghp) < 1e-8


def test_kernel_laplace_vectorized():
    z = np.array([1.0, 2.0, 4.0])
    gh, ghp = DampingKernel.drude(3.0, 6.0).laplace(z)
    assert gh.shape == z.shape
    for zi, gi, gpi in zip(z, gh, ghp):
        si, spi = DampingKernel.drude(3.0, 6.0).laplace(float(zi))
        assert gi == si and gpi == spi


def test_kernel_validation():
    with pytest.raises(DomainError):
        DampingKernel(gamma=-1.0)
    with pytest.raises(DomainError):
        DampingKernel(gamma=1.0, omega_d=0.0)
    with pytest.raises(DomainError):
        DampingKernel.drude(1.0, math.inf)
    assert DampingKernel.ohmic(2.0).is_ohmic
    assert not DampingKernel.drude(2.0, 5.0).is_ohmic


def test_zero_damping_reproduces_undamped_energy():
    kernel = DampingKernel.ohmic(0.0)
    for theta in (0.2, 0.7, 1.0, 4.0):
        want = undamped_thermo(theta).E
        got = energy_sum(1.0, kernel, 1.0 / theta, Prescription.ENERGY)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert not got.regularized


def test_ohmic_routes_are_identical():
    # gh' = 0 for strictly ohmic damping, so the prescriptions coincide
    kernel = DampingKernel.ohmic(1.0)
    direct = energy_sum(1.0, kernel, 1.0, Prescription.ENERGY, tol=TIGHT)
    partition = energy_sum(1.0, kernel, 1.0, Prescription.PARTITION, tol=TIGHT)
    assert direct.value == partition.value
    assert direct.terms_used == partition.terms_used


def test_regularized_ohmic_oscillator_frozen():
    result = energy_sum(1.0, DampingKernel.ohmic(1.0), 1.0,
                        Prescription.ENERGY, tol=TIGHT)
    assert result.regularized
    assert result.value == pytest.approx(E_REG_OSC_REF, rel=1e-11)


def test_regularized_ohmic_free_frozen():
    result = energy_sum(0.0, DampingKernel.ohmic(1.0), 2.0,
                        Prescription.ENERGY, tol=TIGHT)
    assert result.regularized
    assert result.value == pytest.approx(E_REG_FREE_REF, rel=1e-11)


def test_drude_oscillator_frozen_both_routes():
    kernel = DampingKernel.drude(1.0, 10.0)
    direct = energy_sum(1.0, kernel, 1.0, Prescription.ENERGY, tol=TIGHT)
    partition = energy_sum(1.0, kernel, 1.0, Prescription.PARTITION, tol=TIGHT)
    assert direct.value == pytest.approx(E_DRUDE_ENERGY_REF, rel=1e-11)
    assert partition.value == pytest.approx(E_DRUDE_PARTITION_REF, rel=1e-11)
    assert not direct.regularized


def test_free_drude_frozen():
    result = energy_sum(0.0, DampingKernel.drude(1.0, 1.0), 2.0,
                        Prescription.ENERGY, tol=TIGHT)
    assert result.value == pytest.approx(E_FREE_DRUDE_REF, rel=1e-11)


def test_prescription_gap_matches_energy_difference():
    kernel = DampingKernel.drude(1.0, 10.0)
    gap = prescription_gap(1.0, kernel, 1.0, tol=TIGHT)
    assert gap.value == pytest.approx(GAP_DRUDE_REF, rel=1e-11)
    direct = energy_sum(1.0, kernel, 1.0, Prescription.ENERGY, tol=TIGHT)
    partition = energy_sum(1.0, kernel, 1.0, Prescription.PARTITION, tol=TIGHT)
    assert abs((partition.value - direct.value) - gap.value) <= 1e-12 * gap.value


def test_prescription_gap_is_zero_for_ohmic():
    gap = prescription_gap(1.0, DampingKernel.ohmic(3.0), 0.7)
    assert gap.value == 0.0
    assert gap.terms_used == 0
    assert gap.err == 0.0


def test_prescription_gap_positive_for_drude():
    for ratio in (0.5, 2.0, 50.0):
        gap = prescription_gap(1.0, DampingKernel.drude(1.0, ratio), 1.0)
        assert gap.value > 0.0


def test_regularized_value_against_brute_force_sum():
    # theta = 0.4, alpha = 1: sum the cancellation-free summand directly to
    # 2e6 terms, close the tail with the exact 1/n^2 power sum, and add the
    # same analytic compensator
    theta, beta = 0.4, 2.5
    n = np.arange(1, 2_000_001, dtype=float)
    nu = TWO_PI * theta * n
    terms = (nu - 1.0) / (nu * (nu * nu + nu + 1.0))
    c_tail = 1.0 / (TWO_PI * theta) ** 2
    from qbrownian.specfun import trigamma
    brute = float(np.sum(terms[::-1])) + c_tail * trigamma(2_000_001.0).real
    e_brute = theta * (1.0 + brute) + (1.0 / TWO_PI) * (
        EULER_GAMMA + math.log(beta / TWO_PI))
    result = energy_sum(1.0, DampingKernel.ohmic(1.0), beta,
                        Prescription.ENERGY, tol=TIGHT)
    assert abs(result.value - e_brute) <= result.err + 1e-10


def test_tail_bound_is_sane():
    result = energy_sum(1.0, DampingKernel.drude(1.0, 10.0), 1.0,
                        Prescription.ENERGY, tol=TIGHT)
    assert 0.0 <= result.err < 1e-9
    assert result.terms_used >= 2048


def test_convergence_error_carries_diagnostics():
    with pytest.raises(ConvergenceError) as exc_info:
        energy_sum(1.0, DampingKernel.ohmic(1.0), 1.0,
                   Prescription.ENERGY, max_terms=1000)
    assert exc_info.value.requested == pytest.approx(1e-12)
    assert exc_info.value.achieved == math.inf


@pytest.mark.parametrize("key", sorted(Q2_REF))
def test_position_variance_frozen(key):
    theta, alpha = key
    result = position_variance_sum(theta, alpha, tol=TIGHT)
    assert result.value == pytest.approx(Q2_REF[key], rel=1e-11)


def test_position_variance_undamped_limit():
    # alpha = 0 collapses to the textbook coth form
    want = 0.5 / math.tanh(0.5)
    got = position_variance_sum(1.0, 0.0, tol=TIGHT)
    assert got.value == pytest.approx(want, rel=1e-11)


def test_sums_are_deterministic():
    a = energy_sum(1.0, DampingKernel.drude(1.0, 10.0), 1.0, Prescription.ENERGY)
    b = energy_sum(1.0, DampingKernel.drude(1.0, 10.0), 1.0, Prescription.ENERGY)
    assert a == b


def test_fd_specific_heat_undamped():
    fd = specific_heat_fd(lambda t: undamped_thermo(t).E, 1.0)
    assert fd.value == pytest.approx(0.9206735942077923, abs=1e-8)
    assert abs(fd.value - 0.9206735942077923) <= max(5.0 * fd.err, 1e-10)


def test_fd_specific_heat_ignores_additive_constants():
    base = specific_heat_fd(lambda t: undamped_thermo(t).E, 0.8)
    shifted = specific_heat_fd(lambda t: undamped_thermo(t).E + 17.0, 0.8)
    # the offset cancels analytically; only its roundoff survives
    assert shifted.value == pytest.approx(base.value, abs=1e-8)


def test_fd_specific_heat_constant_energy():
    fd = specific_heat_fd(lambda t: 3.25, 1.0)
    assert fd.value == 0.0
    assert fd.err == 0.0


@pytest.mark.parametrize("energy, theta, exact", [
    # the Drude oscillator's partition route, where FD of the sum is worst
    (lambda t: energy_sum(1.0, DampingKernel.drude(1.0, 10.0), 1.0 / t,
                          Prescription.PARTITION).value,
     3e-3,
     lambda t: PoleSum(1.0, DampingKernel.drude(1.0, 10.0),
                       Prescription.PARTITION).heat(t)),
    (lambda t: energy_sum(0.0, DampingKernel.drude(1.0, 1.0), 1.0 / t,
                          Prescription.ENERGY).value,
     10.0,
     lambda t: drude_specific_heat(t, 1.0).C),
], ids=["oscillator-drude-partition", "free-drude"])
def test_fd_error_estimate_covers_roundoff(energy, theta, exact):
    # full and half step agree to the last bit here, so only the roundoff
    # term keeps the estimate above the true error (2.7e-9 and 2.8e-12)
    fd = specific_heat_fd(energy, theta)
    error = abs(fd.value - exact(theta))
    assert error > 0.0
    assert error <= fd.err <= 10.0 * error


def test_failing_sum_memory_is_bounded():
    # theta = 1e-8 puts the Drude knee beyond any cap, so the sum runs to
    # max_terms; its blocks are evaluated a chunk at a time
    kernel = DampingKernel.drude(1.0, 10.0)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            energy_sum(1.0, kernel, 1e8, Prescription.ENERGY, max_terms=2 ** 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_fd_specific_heat_free_drude_matches_closed_form():
    kernel = DampingKernel.drude(1.0, 1.0)
    fd = specific_heat_fd(
        lambda t: energy_sum(0.0, kernel, 1.0 / t, Prescription.ENERGY,
                             tol=TIGHT).value, 0.5)
    assert fd.value == pytest.approx(drude_specific_heat(0.5, 1.0).C, abs=1e-6)


def test_fd_specific_heat_validation():
    with pytest.raises(DomainError):
        specific_heat_fd(lambda t: math.nan, 1.0)
    with pytest.raises(DomainError):
        specific_heat_fd(lambda t: t, 1.0, rel_step=0.6)
    with pytest.raises(DomainError):
        specific_heat_fd(lambda t: t, 1.0, rel_step=0.0)
    with pytest.raises(DomainError):
        specific_heat_fd(lambda t: t, -1.0)


@pytest.mark.parametrize("call", [
    lambda: energy_sum(-1.0, DampingKernel.ohmic(1.0), 1.0, Prescription.ENERGY),
    lambda: energy_sum(1.0, DampingKernel.ohmic(1.0), 0.0, Prescription.ENERGY),
    lambda: energy_sum(1.0, DampingKernel.ohmic(1.0), 1.0, "energy"),
    lambda: prescription_gap(1.0, DampingKernel.ohmic(1.0), -2.0),
    lambda: position_variance_sum(0.0, 1.0),
    lambda: position_variance_sum(1.0, -1.0),
])
def test_domain_errors(call):
    with pytest.raises(DomainError):
        call()
