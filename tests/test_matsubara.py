"""Tests for the frequency-sum engine, damping kernels, and FD specific heat.

Frozen sums were computed independently with mpmath at 40 digits
(scripts/freeze_oracles.py): Richardson-accelerated nsum against the same
summand definitions, and the digamma pole form at any theta.
"""

from __future__ import annotations

import math
import re
import sys
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


UNCOUPLED = [DampingKernel.ohmic(0.0), DampingKernel.drude(0.0, 10.0)]


@pytest.mark.parametrize("route", list(Prescription), ids=lambda route: route.value)
@pytest.mark.parametrize("kernel", UNCOUPLED, ids=["ohmic", "drude"])
@pytest.mark.parametrize("theta", [1e-200, 1e-9, 1e200])
def test_uncoupled_free_particle_has_half_theta(theta, kernel, route):
    # no bath: nothing to sum, wherever nu^2 underflows or overflows
    beta = 1.0 / theta
    got = energy_sum(0.0, kernel, beta, route)
    assert (got.value, got.err) == (0.5 / beta, 0.0)
    assert got.value == pytest.approx(theta / 2.0, rel=1e-15)


def test_uncoupled_drude_kernel_sums_the_bare_oscillator():
    # at zero coupling the cutoff bounds no pole: Drude(0, 10) sums the
    # terms that ohmic(0) sums, to the bit
    for route in Prescription:
        got = energy_sum(1.0, DampingKernel.drude(0.0, 10.0), 1e3, route)
        assert got == energy_sum(1.0, DampingKernel.ohmic(0.0), 1e3, route)
        assert got.terms_used == 1274


def test_uncoupled_drude_gap_is_zero():
    for omega0 in (0.0, 1.0):
        gap = prescription_gap(omega0, DampingKernel.drude(0.0, 10.0), 1e9)
        assert (gap.value, gap.err, gap.terms_used) == (0.0, 0.0, 0)


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


def _kernel_summand(omega0: float, kernel: DampingKernel, route: Prescription):
    # the module docstring's energy summand, written from the kernel's laplace
    dof = 1.0 if omega0 > 0.0 else 2.0
    w2 = omega0 * omega0
    part = 1.0 if route is Prescription.PARTITION else 0.0

    def summand(nu):
        gh, ghp = kernel.laplace(nu)
        value = (2.0 * w2 + nu * gh - part * nu * nu * ghp) / (nu * nu + nu * gh + w2)
        # the regularized summand has gamma / nu subtracted
        return dof * (value - kernel.gamma / nu if kernel.regularized else value)
    return summand


def _kernel_gap(omega0: float, kernel: DampingKernel):
    def summand(nu):
        gh, ghp = kernel.laplace(nu)
        return -nu * nu * ghp / (nu * nu + nu * gh + omega0 * omega0)
    return summand


def _kernel_variance(alpha: float):
    def summand(nu):
        gh, _ = DampingKernel.ohmic(alpha).laplace(nu)
        return 1.0 / (nu * nu + nu * gh + 1.0)
    return summand


def test_sum_tables_are_read_only():
    # e_k = c_k radius^-k, k >= 2, which a DFT of the kernel's summand on the
    # circle |nu| = radius also gives, up to its roundoff; the radius is a
    # power of two in (2 bound, 4 bound]
    matsubara = qbrownian.matsubara
    record = matsubara._system(matsubara._energy_fraction, 1.0, DRUDE,
                               Prescription.ENERGY)
    assert record.table.shape == (matsubara._LAURENT - 2,)
    assert 2.0 * record.bound < record.radius <= 4.0 * record.bound
    assert math.frexp(record.radius)[0] == 0.5
    nodes = record.radius * np.exp(2j * np.pi * np.arange(32) / 32)
    dft = np.fft.ifft(_kernel_summand(1.0, DRUDE, Prescription.ENERGY)(nodes)).real
    largest = abs(record.table).max()
    assert abs(dft[:2]).max() <= 1e-15 * largest
    assert abs(record.table - dft[2:]).max() <= 1e-15 * largest
    assert 0.0 < record.roundoff <= 1e-15 * largest
    with pytest.raises(ValueError):
        record.table[2] = 0.0


ALPHA_TRIPLE = 8.0 / (3.0 * math.sqrt(3.0))
# (omega0, kernel): ohmic (regularized), Drude and zero coupling for both
# models, with critical damping, r = 4, the Drude triple point and a stiff
# oscillator whose poles span 1e-4 to 1e6
RECORD_SYSTEMS = [
    (omega0, kernel) for omega0 in (0.0, 1.0)
    for kernel in (DampingKernel.ohmic(1.0), DampingKernel.ohmic(2.0), DRUDE,
                   DampingKernel.drude(1.0, 4.0), DampingKernel.ohmic(0.0),
                   DampingKernel.drude(0.0, 10.0))
] + [(1.0, DampingKernel.drude(ALPHA_TRIPLE, ALPHA_TRIPLE * 27.0 / 8.0)),
     (1.0, DampingKernel.drude(1e4, 1e6))]


def _records_and_summands():
    # (record, its summand from laplace, the size of what that subtracts)
    matsubara = qbrownian.matsubara
    for omega0, kernel in RECORD_SYSTEMS:
        subtracted = (1.0 if omega0 > 0.0 else 2.0) * kernel.gamma * kernel.regularized
        for route in Prescription:
            yield (matsubara._system(matsubara._energy_fraction, omega0, kernel, route),
                   _kernel_summand(omega0, kernel, route), subtracted)
        if not kernel.is_ohmic and kernel.gamma > 0.0:
            yield (matsubara._system(matsubara._gap_fraction, omega0, kernel),
                   _kernel_gap(omega0, kernel), 0.0)
    for alpha in (0.0, 0.5, 2.0, 5.0):
        yield (matsubara._system(matsubara._variance_fraction, alpha),
               _kernel_variance(alpha), 0.0)


def test_records_are_the_kernel_summands():
    # the sums share P and Q with PoleSum, so the summands written from the
    # kernel's laplace check both derivations; nu in |arg nu| <= pi/4, away
    # from every pole, over six decades about the poles
    rng = np.random.default_rng(7)
    checked = 0
    for record, summand, subtracted in _records_and_summands():
        scale = record.bound if record.bound > 0.0 else 1.0
        nu = scale * 10.0 ** rng.uniform(-3.0, 3.0, 200) * np.exp(
            1j * rng.uniform(-0.25 * np.pi, 0.25 * np.pi, 200))
        got = qbrownian.matsubara._terms(record, record.radius / nu)
        want = summand(nu)
        # a regularized summand keeps the rounding of the gamma / nu it subtracts
        size = abs(want) + subtracted / abs(nu)
        assert np.all(abs(got - want) <= 1e-13 * size), record
        checked += 1
    assert checked == 2 * len(RECORD_SYSTEMS) + 6 + 4


def test_records_bound_their_poles():
    # the exact tail needs every pole of Q within the record's bound
    matsubara = qbrownian.matsubara
    rng = np.random.default_rng(11)
    for _ in range(200):
        gamma, omega_d = 10.0 ** rng.uniform(-4.0, 6.0), 10.0 ** rng.uniform(-4.0, 8.0)
        for omega0 in (0.0, 1.0, 10.0 ** rng.uniform(-3.0, 3.0)):
            records = [matsubara._system(matsubara._energy_fraction, omega0, kernel,
                                         route)
                       for kernel in (DampingKernel.ohmic(gamma),
                                      DampingKernel.drude(gamma, omega_d))
                       for route in Prescription]
            records.append(matsubara._system(matsubara._gap_fraction, omega0,
                                             DampingKernel.drude(gamma, omega_d)))
            records.append(matsubara._system(matsubara._variance_fraction, gamma))
            for record in records:
                # read highest power first, Q(t)'s coefficients are those of
                # Q(nu / radius), without the trimmed roots at 0
                poles = record.radius * np.roots(record.denominator)
                assert np.all(abs(poles) <= record.bound), record


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


@pytest.mark.parametrize("scale", [1e-250, 1e150])
def test_sums_do_not_depend_on_the_unit_of_frequency(scale):
    # each summand is homogeneous of degree 0 in nu and the rates, and its
    # record is built in units of its radius: rates and theta scaled by one
    # factor scale the energies and the gap by it, head and bar included
    for omega0 in (0.0, 1.0):
        for kernel in (DRUDE, DampingKernel.ohmic(1.0)):
            scaled = DampingKernel(kernel.gamma * scale, kernel.omega_d * scale)
            for theta in (0.05, 1.0, 20.0):
                calls = [lambda k, w0, t, route=route: energy_sum(w0, k, 1.0 / t, route)
                         for route in Prescription]
                calls.append(lambda k, w0, t: prescription_gap(w0, k, 1.0 / t))
                for call in calls:
                    want = call(kernel, omega0, theta)
                    got = call(scaled, omega0 * scale, theta * scale)
                    assert got.terms_used == want.terms_used
                    assert abs(got.value / scale - want.value) <= (
                        got.err / scale + want.err + 4.0 * math.ulp(want.value))


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
    # the head's terms, t^2 P(t) / Q(t) in t = 1/nu, underflow to 0, and so
    # does the tail's (radius / (s N))^k; no numpy warning escapes, which
    # the suite's filterwarnings would turn into an error.  Each term may be
    # off by eps times the smallest normal double, which the bar counts
    for theta in (1e200, 1e300):
        got = position_variance_sum(theta, 1.0)
        assert got.value == theta and 0.0 < got.err <= 1e-300 * theta
        beta = 1.0 / theta
        for omega0, pref in ((1.0, 1.0), (0.0, 0.5)):
            for kernel in (DampingKernel.ohmic(1.0), DRUDE):
                for route in Prescription:
                    got = energy_sum(omega0, kernel, beta, route)
                    assert got.value == pref / beta and 0.0 < got.err <= 1e-300 * theta
            # the gap, about gamma omega_d / (24 theta), is a sum of terms
            # that underflow to 0: its bar cannot vouch for the 0 they add to
            with pytest.raises(ConvergenceError, match=r"^at theta={}: frequency sum "
                               r"error bar \S+ misses the relative tail target "
                               r"1e-12$".format(re.escape(repr(1.0 / beta)))):
                prescription_gap(omega0, DRUDE, beta)
    grid = np.array([1e200, 1e300])
    got = position_variance_sum(grid, 1.0)
    assert got.value.tolist() == grid.tolist()
    assert np.all((0.0 < got.err) & (got.err <= 1e-300 * grid))


def test_the_gap_answers_or_refuses_as_its_terms_underflow():
    # from theta ~ 1e154 the gap's terms lose digits as they underflow: the
    # bar vouches for the gap at 1e154 and refuses it by 1e156
    kernel = DampingKernel.drude(1.0, 10.0)
    got = prescription_gap(1.0, kernel, 1e-154)
    assert got.value == pytest.approx(10.0 / 24.0 * 1e-154, rel=1e-13)
    assert abs(got.value - 10.0 / 24.0 * 1e-154) <= got.err <= 1e-12 * got.value
    with pytest.raises(ConvergenceError, match=r"^at theta=1e\+156: frequency sum "
                                               r"error bar"):
        prescription_gap(1.0, kernel, 1e-156)

    # a coupling so weak that the gap's numerator underflows in units of the
    # radius is no exact zero: its bar refuses it, as it refuses a numerator
    # that is subnormal (gamma = 1e-210) and terms that lost their digits
    for gamma in (1e-300, 1e-210):
        with pytest.raises(ConvergenceError, match=r"^at theta=1\.0: frequency sum "
                                                   r"error bar"):
            prescription_gap(1.0, DampingKernel.drude(gamma, 1e-100), 1.0)
    # while the uncoupled free particle's summand is zero by construction
    for route in Prescription:
        assert energy_sum(0.0, DampingKernel.drude(0.0, 10.0), 0.5, route) == (
            energy_sum(0.0, DampingKernel.ohmic(0.0), 0.5, route))
        assert energy_sum(0.0, DampingKernel.drude(0.0, 10.0), 0.5, route).err == 0.0


def test_regularization_survives_an_underflowing_ratio():
    # beta w_ref / (2 pi) underflows at gamma = 1e-300, theta = 1e100: the
    # remainder is then summed from the logs of its factors
    regularization = qbrownian.matsubara._regularization
    gamma, euler = 1e-300, qbrownian.matsubara.EULER_GAMMA
    want = gamma / (2.0 * math.pi) * (euler - 400.0 * math.log(10.0)
                                      - math.log(2.0 * math.pi))
    assert regularization(gamma, 1e-100, gamma) == pytest.approx(want, rel=1e-14)
    grid = regularization(gamma, np.array([1e-100, 2.0]), gamma)
    assert grid.tolist() == pytest.approx([regularization(gamma, 1e-100, gamma),
                                           regularization(gamma, 2.0, gamma)], rel=1e-15)
    # where the ratio is a normal double, the remainder is its log's, to the bit
    ratio = 2.0 * 0.37 / (2.0 * math.pi)
    assert regularization(0.37, 2.0, 0.37) == (0.37 / (2.0 * math.pi)) * (
        euler + math.log(ratio))
    kernel = DampingKernel.ohmic(gamma)
    for omega0, pref in ((1.0, 1.0), (0.0, 0.5)):
        for route in Prescription:
            got = energy_sum(omega0, kernel, 1e-100, route)
            assert got.regularized and got.value == pref * 1e100
            assert got.err <= 1e-12 * got.value
            assert PoleSum(omega0, kernel, route).energy(1e100) == got.value


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


def test_a_theta_scan_retains_little_memory():
    # what a sum keeps per system and per head is bounded in number and size,
    # however many heads a scan meets (64 to 127324 terms here)
    matsubara = qbrownian.matsubara
    for cache in (matsubara._tail_tables, matsubara._tail_weights, matsubara._system):
        cache.cache_clear()
    tracemalloc.start()
    try:
        for theta in np.logspace(-4.0, 0.0, 300).tolist():
            energy_sum(1.0, DRUDE, 1.0 / theta, Prescription.ENERGY)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20


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
