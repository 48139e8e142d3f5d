"""Tests for the frequency-sum engine, damping kernels, and FD specific heat.

Frozen sums were computed independently with mpmath at 40 digits
(scripts/freeze_oracles.py): Richardson-accelerated nsum against the same
summand definitions, and the digamma pole form at any theta.
"""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

import qbrownian.matsubara
from qbrownian.core import ConvergenceError, DomainError
from qbrownian.free_particle import drude_specific_heat
from qbrownian.matsubara import (DampingKernel, PoleSum, Prescription, energy_sum,
                                 position_variance_sum, prescription_gap,
                                 specific_heat_fd)
from qbrownian.oscillator import undamped_thermo

EULER_GAMMA = 0.5772156649015328606065121
TWO_PI = 2.0 * math.pi

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

EPS = 2.0 ** -52
DRUDE = DampingKernel.drude(1.0, 10.0)
# (sum, theta) -> its value in digamma pole form; the Drude sums at alpha = 1
# (gamma = 1 for the free particle), r = 10, the ohmic ones at alpha = 1
SUM_ORACLES = {
    ("osc-drude-energy", 1e-3): 0.7264104967516793479009104,
    ("osc-drude-energy", 0.05): 0.7277424101855754951935856,
    ("osc-drude-energy", 20.0): 20.02385907624533441537475,
    ("osc-drude-partition", 1e-3): 0.8565629043234029699041564,
    ("osc-drude-partition", 0.05): 0.8578932260041511793948008,
    ("osc-drude-partition", 20.0): 20.04249798876811951955395,
    ("free-drude-energy", 1e-3): 0.4239711166999415118254971,
    ("free-drude-energy", 0.05): 0.4252696095983237175507124,
    ("free-drude-energy", 20.0): 10.01969500115942837193007,
    ("free-drude-partition", 1e-3): 0.5604276891275638481229772,
    ("free-drude-partition", 0.05): 0.5615965944569181562293524,
    ("free-drude-partition", 20.0): 10.03833466252859922638666,
    ("gap", 1e-3): 0.130152407571723622003246,
    ("gap", 0.05): 0.1301508158185756842012152,
    ("gap", 20.0): 0.0186389125227851041792058,
    ("osc-ohmic", 1e-3): 0.2886756581977226896355189,
    ("osc-ohmic", 0.05): 0.2900104909114577182320363,
    ("osc-ohmic", 20.0): 19.32463309754698321672393,
    ("free-ohmic", 1e-3): 5.235967085520448848940679e-7,
    ("free-ohmic", 0.05): 0.001296630922390711370835035,
    ("free-ohmic", 20.0): 9.320502602442749532577893,
    ("q2", 1e-3): 0.3849012266614358764913301,
    ("q2", 0.05): 0.3875438664544472682753225,
    ("q2", 20.0): 20.0041424378676888407708,
}
SUM_CALLS = {
    "osc-drude-energy": lambda t: energy_sum(1.0, DRUDE, 1.0 / t, Prescription.ENERGY),
    "osc-drude-partition":
        lambda t: energy_sum(1.0, DRUDE, 1.0 / t, Prescription.PARTITION),
    "free-drude-energy": lambda t: energy_sum(0.0, DRUDE, 1.0 / t, Prescription.ENERGY),
    "free-drude-partition":
        lambda t: energy_sum(0.0, DRUDE, 1.0 / t, Prescription.PARTITION),
    "gap": lambda t: prescription_gap(1.0, DRUDE, 1.0 / t),
    "osc-ohmic": lambda t: energy_sum(1.0, DampingKernel.ohmic(1.0), 1.0 / t,
                                      Prescription.ENERGY),
    "free-ohmic": lambda t: energy_sum(0.0, DampingKernel.ohmic(1.0), 1.0 / t,
                                       Prescription.ENERGY),
    "q2": lambda t: position_variance_sum(t, 1.0),
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


@pytest.mark.usefixtures("tight")
def test_ohmic_routes_are_identical():
    # gh' = 0 for strictly ohmic damping, so the prescriptions coincide
    kernel = DampingKernel.ohmic(1.0)
    direct = energy_sum(1.0, kernel, 1.0, Prescription.ENERGY)
    partition = energy_sum(1.0, kernel, 1.0, Prescription.PARTITION)
    assert direct.value == partition.value
    assert direct.terms_used == partition.terms_used


@pytest.mark.usefixtures("tight")
def test_regularized_ohmic_oscillator_frozen():
    result = energy_sum(1.0, DampingKernel.ohmic(1.0), 1.0, Prescription.ENERGY)
    assert result.regularized
    assert result.value == pytest.approx(E_REG_OSC_REF, rel=1e-11)


@pytest.mark.usefixtures("tight")
def test_regularized_ohmic_free_frozen():
    result = energy_sum(0.0, DampingKernel.ohmic(1.0), 2.0, Prescription.ENERGY)
    assert result.regularized
    assert result.value == pytest.approx(E_REG_FREE_REF, rel=1e-11)


@pytest.mark.usefixtures("tight")
def test_drude_oscillator_frozen_both_routes():
    kernel = DampingKernel.drude(1.0, 10.0)
    direct = energy_sum(1.0, kernel, 1.0, Prescription.ENERGY)
    partition = energy_sum(1.0, kernel, 1.0, Prescription.PARTITION)
    assert direct.value == pytest.approx(E_DRUDE_ENERGY_REF, rel=1e-11)
    assert partition.value == pytest.approx(E_DRUDE_PARTITION_REF, rel=1e-11)
    assert not direct.regularized


@pytest.mark.usefixtures("tight")
def test_free_drude_frozen():
    result = energy_sum(0.0, DampingKernel.drude(1.0, 1.0), 2.0, Prescription.ENERGY)
    assert result.value == pytest.approx(E_FREE_DRUDE_REF, rel=1e-11)


@pytest.mark.usefixtures("tight")
def test_prescription_gap_matches_energy_difference():
    kernel = DampingKernel.drude(1.0, 10.0)
    gap = prescription_gap(1.0, kernel, 1.0)
    assert gap.value == pytest.approx(GAP_DRUDE_REF, rel=1e-11)
    direct = energy_sum(1.0, kernel, 1.0, Prescription.ENERGY)
    partition = energy_sum(1.0, kernel, 1.0, Prescription.PARTITION)
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


@pytest.mark.usefixtures("tight")
def test_regularized_value_against_brute_force_sum():
    # theta = 0.4, alpha = 1: sum the cancellation-free summand directly to
    # 2e6 terms, close the tail with the exact 1/n^2 power sum, and add the
    # same analytic compensator
    theta, beta = 0.4, 2.5
    n = np.arange(1, 2_000_001, dtype=float)
    nu = TWO_PI * theta * n
    terms = (nu - 1.0) / (nu * (nu * nu + nu + 1.0))
    c_tail = 1.0 / (TWO_PI * theta) ** 2
    from qbrownian.specfun import _trigamma
    brute = float(np.sum(terms[::-1])) + c_tail * _trigamma(2_000_001.0).real
    e_brute = theta * (1.0 + brute) + (1.0 / TWO_PI) * (
        EULER_GAMMA + math.log(beta / TWO_PI))
    result = energy_sum(1.0, DampingKernel.ohmic(1.0), beta, Prescription.ENERGY)
    assert abs(result.value - e_brute) <= result.err + 1e-10


def test_tail_bound_is_sane():
    # each sum lies within its bar of the 40-digit pole form, up to the
    # rounding of the reported value, and the bar is a few ulps wide
    for (name, theta), oracle in SUM_ORACLES.items():
        result = SUM_CALLS[name](theta)
        rounding = 4.0 * EPS * abs(result.value)
        assert abs(result.value - oracle) <= result.err + rounding, (name, theta)
        assert 0.0 <= result.err <= 1e-14 * max(abs(result.value), 1.0), (name, theta)


def test_low_temperature_sum_is_short():
    # the exact tail starts beyond the poles, at 4 x 3183 terms here
    result = energy_sum(1.0, DRUDE, 1e3, Prescription.PARTITION)
    assert result.terms_used <= 20_000


def test_convergence_error_carries_diagnostics(monkeypatch):
    # the tail is exact only beyond 2547 terms here, so a cap of 1000
    # refuses the sum before any term is added
    monkeypatch.setattr(qbrownian.matsubara, "_MAX_TERMS", 1000)
    with pytest.raises(ConvergenceError) as exc_info:
        energy_sum(1.0, DampingKernel.ohmic(1.0), 1e3, Prescription.ENERGY)
    assert exc_info.value.requested == pytest.approx(1e-12)
    assert exc_info.value.achieved == math.inf


@pytest.mark.parametrize("key", sorted(Q2_REF))
@pytest.mark.usefixtures("tight")
def test_position_variance_frozen(key):
    theta, alpha = key
    result = position_variance_sum(theta, alpha)
    assert result.value == pytest.approx(Q2_REF[key], rel=1e-11)


@pytest.mark.usefixtures("tight")
def test_position_variance_undamped_limit():
    # alpha = 0 collapses to the textbook coth form
    want = 0.5 / math.tanh(0.5)
    got = position_variance_sum(1.0, 0.0)
    assert got.value == pytest.approx(want, rel=1e-11)


def test_sums_are_deterministic():
    a = energy_sum(1.0, DampingKernel.drude(1.0, 10.0), 1.0, Prescription.ENERGY)
    b = energy_sum(1.0, DampingKernel.drude(1.0, 10.0), 1.0, Prescription.ENERGY)
    assert a == b


def _some_sums():
    # one theta whose head is the minimum 64 terms, one with a longer head
    return [call(t) for call in SUM_CALLS.values() for t in (0.05, 20.0)]


def test_sum_tables_give_the_same_bits_cold_and_warm():
    system = qbrownian.matsubara._system
    system.cache_clear()
    cold = _some_sums()
    for alpha in (0.2, 5.0, 40.0):
        position_variance_sum(0.7, alpha)
        energy_sum(1.0, DampingKernel.drude(alpha, 3.0), 2.0, Prescription.PARTITION)
    assert _some_sums() == cold
    # cold again, among the tables of other systems
    system.cache_clear()
    for alpha in (0.2, 5.0, 40.0):
        position_variance_sum(0.7, alpha)
    assert _some_sums() == cold


def test_sum_tables_are_read_only():
    _, bound, radius, table = qbrownian.matsubara._system(
        qbrownian.matsubara._energy_summand, 1.0, DRUDE, Prescription.ENERGY)
    assert table.shape == (qbrownian.matsubara._CIRCLE,)
    assert radius == 4.0 * bound
    with pytest.raises(ValueError):
        table[2] = 0.0


def test_one_table_per_system_whatever_theta():
    system = qbrownian.matsubara._system
    system.cache_clear()
    energy_sum(1.0, DRUDE, 2.0, Prescription.ENERGY)
    assert system.cache_info().misses == 1
    # a theta scan, the same scan as one grid and a finite difference build none
    thetas = np.logspace(-3.0, 2.0, 41)
    for t in thetas.tolist():
        energy_sum(1.0, DRUDE, 1.0 / t, Prescription.ENERGY)
    qbrownian.matsubara._energy_sum(1.0, DRUDE, 1.0 / thetas, Prescription.ENERGY)
    specific_heat_fd(lambda t: energy_sum(1.0, DRUDE, 1.0 / t,
                                          Prescription.ENERGY).value, 0.5)
    assert system.cache_info().misses == 1
    assert system.cache_info().hits == 41 + 1 + 4
    # the other route, the gap and the variance sum are systems of their own;
    # an ohmic gap sums nothing and builds nothing
    energy_sum(1.0, DRUDE, 2.0, Prescription.PARTITION)
    prescription_gap(1.0, DRUDE, 2.0)
    prescription_gap(1.0, DampingKernel.ohmic(1.0), 2.0)
    position_variance_sum(thetas, 1.0)
    assert system.cache_info().misses == 4


def test_sum_tables_stay_bounded():
    system = qbrownian.matsubara._system
    system.cache_clear()
    kept = qbrownian.matsubara._SYSTEMS_KEPT
    assert system.cache_info().maxsize == kept
    first = position_variance_sum(1.0, 0.1)
    for i in range(2, kept + 9):
        position_variance_sum(1.0, 0.1 * i)
    assert system.cache_info().currsize == kept
    # the first table was dropped; it is built again, to the same bits
    assert position_variance_sum(1.0, 0.1) == first
    assert system.cache_info().misses == kept + 9


def test_numpy_omega_d_is_taken_as_a_double():
    # np.float32(10.0) == 10.0 and hashes alike, so a single-precision kernel
    # would share the float kernel's table: built first, it must be the same
    single = DampingKernel.drude(0.37, np.float32(10.0))
    assert type(single.omega_d) is float
    assert type(DampingKernel(0.37, np.float64(math.inf)).omega_d) is float
    double = DampingKernel.drude(0.37, 10.0)

    def sums(kernel):
        return [(energy_sum(omega0, kernel, beta, route),
                 prescription_gap(omega0, kernel, beta))
                for omega0 in (0.0, 1.0) for beta in (2.0, 300.0) for route in Prescription]

    qbrownian.matsubara._system.cache_clear()
    assert sums(single) == sums(double)


def test_sums_at_the_highest_temperatures_answer_quietly():
    # nu^2 overflows in the head, whose terms then vanish, and the tail's
    # (radius / (s N))^k underflows to 0; no numpy warning escapes, which
    # the suite's filterwarnings would turn into an error
    for theta in (1e200, 1e300):
        got = position_variance_sum(theta, 1.0)
        assert (got.value, got.err) == (theta, 0.0)
        beta = 1.0 / theta
        for omega0, pref in ((1.0, 1.0), (0.0, 0.5)):
            for kernel in (DampingKernel.ohmic(1.0), DRUDE):
                got = energy_sum(omega0, kernel, beta, Prescription.ENERGY)
                assert (got.value, got.err) == (pref / beta, 0.0)
        # the gap's head meets inf * 0 in nu^2 gh'(nu), and refuses
        with pytest.raises(ConvergenceError, match=r"^at theta={}: frequency sum "
                           r"error bar nan".format(re.escape(repr(1.0 / beta)))):
            prescription_gap(1.0, DRUDE, beta)
    grid = np.array([1e200, 1e300])
    got = position_variance_sum(grid, 1.0)
    assert got.value.tolist() == grid.tolist() and got.err.tolist() == [0.0, 0.0]


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
    # full and half step differ here by less than their roundoff, so the
    # roundoff term alone keeps the estimate above the true error (1.0e-9
    # and 2.8e-12)
    fd = specific_heat_fd(energy, theta)
    error = abs(fd.value - exact(theta))
    assert error > 0.0
    assert error <= fd.err <= 10.0 * error


def test_failing_sum_memory_is_bounded(monkeypatch):
    # theta = 1e-8 puts the Drude poles beyond any cap, so the sum raises
    # before it adds a term; a head within the cap is summed a chunk at a time
    monkeypatch.setattr(qbrownian.matsubara, "_MAX_TERMS", 2 ** 22)
    kernel = DampingKernel.drude(1.0, 10.0)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            energy_sum(1.0, kernel, 1e8, Prescription.ENERGY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.usefixtures("tight")
def test_fd_specific_heat_free_drude_matches_closed_form():
    kernel = DampingKernel.drude(1.0, 1.0)
    fd = specific_heat_fd(
        lambda t: energy_sum(0.0, kernel, 1.0 / t, Prescription.ENERGY).value, 0.5)
    assert fd.value == pytest.approx(drude_specific_heat(0.5, 1.0).C, abs=1e-6)


def test_fd_specific_heat_validation():
    # a non-finite energy, or a difference of finite ones that overflows, is
    # refused as every function of theta refuses what is not finite
    for energy in (lambda t: math.nan, lambda t: 1e308 if t > 1.0 else -1e308):
        with pytest.raises(ConvergenceError, match=r"^at theta=1\.0: specific_heat_fd"):
            specific_heat_fd(energy, 1.0)
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
