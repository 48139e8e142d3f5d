"""Tests for the pole form of the frequency sums (matsubara.PoleSum).

The term-by-term sum energy_sum and the closed forms are independent
routes to the same numbers, so they serve as the oracle here.
"""

from __future__ import annotations

import decimal
import math
import random

import numpy as np
import pytest

from qbrownian.core import EPS, TWO_PI, ConvergenceError, DomainError
from qbrownian.free_particle import drude_specific_heat, ohmic_specific_heat
from qbrownian.matsubara import (DampingKernel, PoleSum, Prescription, _entropy_terms,
                                 _roots, _summand_fractions, energy_sum,
                                 specific_heat_fd)
from qbrownian.oscillator import damped_entropy, damped_specific_heat, undamped_thermo

THETAS = [float(t) for t in np.logspace(-3.0, 2.0, 6)]
# the Drude oscillator's cubic has a triple root at alpha = 8/(3 sqrt 3), r = 27/8
ALPHA_TRIPLE = 8.0 / (3.0 * math.sqrt(3.0))
RATIO_TRIPLE = 27.0 / 8.0

# (omega0, kernel) covering both models, both kernels, zero coupling and the
# degenerate points; ids name them
SYSTEMS = {
    "osc-ohmic": (1.0, DampingKernel.ohmic(1.0)),
    "osc-ohmic-overdamped": (1.0, DampingKernel.ohmic(3.0)),
    "osc-ohmic-critical": (1.0, DampingKernel.ohmic(2.0)),
    "osc-undamped": (1.0, DampingKernel.ohmic(0.0)),
    "osc-drude": (1.0, DampingKernel.drude(1.0, 10.0)),
    "osc-drude-slow": (1.0, DampingKernel.drude(0.3, 0.5)),
    "osc-drude-fast": (1.0, DampingKernel.drude(1.0, 30.0)),
    "osc-drude-weak": (1.0, DampingKernel.drude(0.01, 1.0)),
    "osc-drude-triple": (1.0, DampingKernel.drude(ALPHA_TRIPLE,
                                                  ALPHA_TRIPLE * RATIO_TRIPLE)),
    "free-ohmic": (0.0, DampingKernel.ohmic(1.0)),
    "free-drude": (0.0, DampingKernel.drude(1.0, 10.0)),
    "free-drude-slow": (0.0, DampingKernel.drude(1.0, 0.5)),
    "free-drude-fast": (0.0, DampingKernel.drude(1.0, 30.0)),
    "free-drude-critical": (0.0, DampingKernel.drude(1.0, 4.0)),
}


# C at theta = logspace(-9, -3, 13) on each route, at 60 digits from mpmath's
# roots and psi', every root its own simple pole (scripts/freeze_oracles.py)
COINCIDENT_HEAT = {
    ("osc-ohmic-critical", "energy"): [
        2.0943951023931956e-9,
        6.6230588438640674e-9,
        2.0943951023931939e-8,
        6.6230588438640149e-8,
        2.09439510239303e-7,
        6.6230588438588378e-7,
        2.0943951023766587e-6,
        6.6230588433411314e-6,
        2.0943951007395276e-5,
        6.6230587915704928e-5,
        0.00020943949370264333,
        0.00066230536145211566,
        0.0020943785661785893,
    ],
    ("osc-ohmic-critical", "partition"): [
        2.0943951023931956e-9,
        6.6230588438640674e-9,
        2.0943951023931939e-8,
        6.6230588438640149e-8,
        2.09439510239303e-7,
        6.6230588438588378e-7,
        2.0943951023766587e-6,
        6.6230588433411314e-6,
        2.0943951007395276e-5,
        6.6230587915704928e-5,
        0.00020943949370264333,
        0.00066230536145211566,
        0.0020943785661785893,
    ],
    ("free-drude-critical", "energy"): [
        1.0471975511965978e-9,
        3.3115294219320338e-9,
        1.0471975511965974e-8,
        3.3115294219320205e-8,
        1.0471975511965564e-7,
        3.3115294219307263e-7,
        1.0471975511924635e-6,
        3.3115294218012997e-6,
        1.0471975507831808e-5,
        3.3115294088586399e-5,
        0.00010471975098548999,
        0.0003311528114594002,
        0.00104719341707009,
    ],
    ("free-drude-critical", "partition"): [
        7.8539816339744836e-10,
        2.4836470664490254e-9,
        7.8539816339744813e-9,
        2.4836470664490191e-8,
        7.853981633974289e-8,
        2.4836470664484124e-7,
        7.8539816339551038e-7,
        2.4836470663877437e-6,
        7.8539816320365914e-6,
        2.483647060320872e-5,
        7.8539814401852686e-5,
        0.00024836464536341285,
        0.00078539622551950028,
    ],
    ("osc-drude-triple", "energy"): [
        1.6122661015415271e-9,
        5.0984330751515351e-9,
        1.6122661015415271e-8,
        5.0984330751515346e-8,
        1.612266101541527e-7,
        5.0984330751515346e-7,
        1.612266101541527e-6,
        5.0984330751515346e-6,
        1.6122661015415272e-5,
        5.0984330751515348e-5,
        0.00016122661015415152,
        0.00050984330751477511,
        0.0016122661014218763,
    ],
    ("osc-drude-triple", "partition"): [
        1.6122661015415271e-9,
        5.098433075151535e-9,
        1.6122661015415266e-8,
        5.0984330751515197e-8,
        1.6122661015414798e-7,
        5.0984330751500436e-7,
        1.6122661015368122e-6,
        5.0984330750024397e-6,
        1.6122661010700478e-5,
        5.0984330602420486e-5,
        0.0001612266054393595,
        0.00050984315842042847,
        0.0016122613867926733,
    ],
}

@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.usefixtures("tight")
def test_energy_matches_energy_sum(system, route):
    omega0, kernel = SYSTEMS[system]
    poles = PoleSum(omega0, kernel, route)
    assert poles.regularized == (kernel.is_ohmic and kernel.gamma > 0.0)
    for theta in THETAS:
        summed = energy_sum(omega0, kernel, 1.0 / theta, route).value
        # a regularized energy is measured against the size of its constant
        scale = max(abs(summed), kernel.gamma if poles.regularized else 0.0)
        assert abs(poles.energy(theta) - summed) <= 1e-11 * scale, theta


def test_unregularized_energy_sum_agrees_to_1e_14():
    # two independent exact routes: psi at the poles, and a head summed term
    # by term with its tail in Hurwitz zeta form
    for omega0, kernel in SYSTEMS.values():
        if kernel.regularized:
            continue
        for route in Prescription:
            poles = PoleSum(omega0, kernel, route)
            for theta in np.logspace(-3.0, 2.0, 11):
                summed = energy_sum(omega0, kernel, 1.0 / theta, route).value
                assert abs(poles.energy(theta) - summed) <= 1e-14 * abs(summed), (
                    omega0, kernel, route, theta)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.0, 2.0 + 1e-9, 5.0])
def test_oscillator_heat_matches_closed_form(alpha):
    poles = PoleSum(1.0, DampingKernel.ohmic(alpha), Prescription.ENERGY)
    for theta in THETAS:
        assert poles.heat(theta) == pytest.approx(
            damped_specific_heat(theta, alpha).C, abs=1e-11)


@pytest.mark.parametrize("ratio", [0.1, 1.0, 4.0 - 1e-6, 5.0, 10.0, 1e3])
def test_free_particle_heat_matches_closed_form(ratio):
    poles = PoleSum(0.0, DampingKernel.drude(1.0, ratio), Prescription.ENERGY)
    for theta in THETAS:
        assert poles.heat(theta) == pytest.approx(
            drude_specific_heat(theta, ratio).C, abs=1e-11)
    ohmic = PoleSum(0.0, DampingKernel.ohmic(1.0), Prescription.ENERGY)
    for theta in THETAS:
        assert ohmic.heat(theta) == pytest.approx(ohmic_specific_heat(theta).C,
                                                  abs=1e-12)


def test_critical_cutoff_heat_is_the_confluent_limit():
    # at r = 4 the closed form takes its limit from z0 (1 + 1e-10 i); the pole
    # form agrees with it and stays continuous in r
    poles = PoleSum(0.0, DampingKernel.drude(1.0, 4.0), Prescription.ENERGY)
    for theta in (1e-3, 0.01, 0.5, 2.0, 10.0):
        assert poles.heat(theta) == pytest.approx(
            drude_specific_heat(theta, 4.0).C, abs=1e-11)
    near = PoleSum(0.0, DampingKernel.drude(1.0, 4.0 + 1e-7), Prescription.ENERGY)
    for theta in (1e-3, 0.01, 0.1):
        assert poles.heat(theta) == pytest.approx(near.heat(theta), abs=1e-9)
    # the cutoff-independent third-law slope pi/3
    for theta in (1e-3, 0.01):
        assert poles.heat(theta) / theta == pytest.approx(math.pi / 3.0, rel=0.01)


@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
@pytest.mark.parametrize("system", ["osc-ohmic-critical", "free-drude-critical",
                                    "osc-drude-triple"])
def test_coincident_pole_heat_is_right_or_refused(system, route):
    # the terms of a pole cluster cancel like those of simple poles: C is
    # within 1e-6 of the oracle, or the cancellation is reported
    omega0, kernel = SYSTEMS[system]
    poles = PoleSum(omega0, kernel, route)
    for theta, want in zip(np.logspace(-9.0, -3.0, 13),
                           COINCIDENT_HEAT[system, route.value]):
        try:
            got = poles.heat(float(theta))
        except ConvergenceError:
            assert theta < 1e-4
            continue
        assert got > 0.0, theta
        assert abs(got - want) <= 1e-6 * want, theta

@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
@pytest.mark.parametrize("system", ["osc-drude", "osc-drude-slow", "osc-drude-fast",
                                    "osc-drude-triple", "free-drude-slow",
                                    "free-drude-fast"])
@pytest.mark.usefixtures("tight")
def test_heat_is_the_derivative_of_the_energy(system, route):
    omega0, kernel = SYSTEMS[system]
    poles = PoleSum(omega0, kernel, route)
    for theta in (0.05, 0.3, 1.0, 4.0):
        fd = specific_heat_fd(
            lambda t: energy_sum(omega0, kernel, 1.0 / t, route).value, theta)
        assert poles.heat(theta) == pytest.approx(fd.value, abs=1e-6)
        own = specific_heat_fd(poles.energy, theta)
        assert abs(poles.heat(theta) - own.value) <= 10.0 * own.err + 1e-9


def test_undamped_limit():
    for kernel in (DampingKernel.ohmic(0.0), DampingKernel.drude(0.0, 3.0)):
        for route in Prescription:
            poles = PoleSum(1.0, kernel, route)
            assert not poles.regularized
            for theta in (0.1, 1.0, 10.0):
                want = undamped_thermo(theta)
                assert poles.energy(theta) == pytest.approx(want.E, rel=1e-13)
                assert poles.heat(theta) == pytest.approx(want.C, abs=1e-13)


@pytest.mark.parametrize("alpha", [1e-300, 1e-200, 1e-155])
def test_weak_coupling_answers_as_the_undamped_oscillator(alpha):
    # in units of the radius (8) gamma omega_D underflows below the normal
    # doubles, but D's constant term omega0^2 omega_D does not: no pole is lost
    want = undamped_thermo(0.37)
    for route in Prescription:
        poles = PoleSum(1.0, DampingKernel.drude(alpha, 10.0 * alpha), route)
        assert poles.energy(0.37) == pytest.approx(want.E, rel=1e-15)
        assert poles.heat(0.37) == pytest.approx(want.C, rel=1e-14)


def test_poles_300_decades_apart_are_found():
    # in units of its radius the free particle at cutoff ratio 1e300 has poles
    # near -0.19 and -1.9e-301; the small one is their product over the large
    # one, where the quadratic formula's difference would cancel; references:
    # the pole form at 400 digits (mpmath)
    poles = PoleSum(0.0, DampingKernel.drude(1.0, 1e300), Prescription.ENERGY)
    assert poles.energy(0.37) == pytest.approx(109.99599272665347, rel=1e-14)
    assert poles.energy(3.0) == pytest.approx(111.05147484252356, rel=1e-14)


# E and C of Drude oscillators (omega0 = 1) whose slow pair lies 44 to 100
# decades below omega_D, by (gamma, omega_D, route, theta), from
# scripts/freeze_oracles.py (the pole form with 2 log10(omega_D) + 41 digits)
E_DRUDE_FAST = {
    (1.0, 1e44, "energy", 1e-3): 16.4132588335451330028765,
    (1.0, 1e44, "energy", 0.37): 16.50976057046704696216502,
    (1.0, 1e44, "energy", 30.0): 45.38400345180918592216175,
    (1.0, 1e44, "partition", 1e-3): 16.57241377663702833864538,
    (1.0, 1e44, "partition", 0.37): 16.6689155135589422979339,
    (1.0, 1e44, "partition", 30.0): 45.54315839490108125793064,
    (1e-3, 1e100, "energy", 1e-3): 0.5364875630377434765159551,
    (1e-3, 1e100, "energy", 0.37): 0.6083596874254898586533411,
    (1e-3, 1e100, "energy", 30.0): 30.03868253087190770600964,
    (1e-3, 1e100, "partition", 1e-3): 0.536646717980835371855037,
    (1e-3, 1e100, "partition", 0.37): 0.608518842368581753992423,
    (1e-3, 1e100, "partition", 30.0): 30.03884168581499960134872,
    (1e3, 1e54, "energy", 1e-3): 18689.86039132570082852507,
    (1e3, 1e54, "energy", 0.37): 18690.04405915268363297561,
    (1e3, 1e54, "energy", 30.0): 18705.32788038451840731038,
    (1e3, 1e54, "partition", 1e-3): 18849.01533441759616429395,
    (1e3, 1e54, "partition", 0.37): 18849.1990022445789687445,
    (1e3, 1e54, "partition", 30.0): 18864.48282347641374307927,
}
# C at theta = 1e-3 is left out: there it keeps about -log10(eps / theta^2) digits
C_DRUDE_FAST = {
    (1.0, 1e44, "energy", 0.37): 0.5214971550847977082309669,
    (1.0, 1e44, "energy", 30.0): 0.9946492542740051731594448,
    (1.0, 1e44, "partition", 0.37): 0.5214971550847977082309669,
    (1.0, 1e44, "partition", 30.0): 0.9946492542740051731594448,
    (1e-3, 1e100, "energy", 0.37): 0.5623794622388858074020143,
    (1e-3, 1e100, "energy", 30.0): 0.999902108509536181124172,
    (1e-3, 1e100, "partition", 0.37): 0.5623794622388858074020143,
    (1e-3, 1e100, "partition", 30.0): 0.999902108509536181124172,
    (1e3, 1e54, "energy", 0.37): 0.4999576183053881453794845,
    (1e3, 1e54, "energy", 30.0): 0.5311928113222981431524796,
    (1e3, 1e54, "partition", 0.37): 0.4999576183053881453794845,
    (1e3, 1e54, "partition", 30.0): 0.5311928113222981431524796,
}


@pytest.mark.parametrize("point", sorted(E_DRUDE_FAST))
def test_energy_keeps_the_slow_pair_far_below_the_cutoff(point):
    gamma, omega_d, route, theta = point
    poles = PoleSum(1.0, DampingKernel.drude(gamma, omega_d), Prescription(route))
    assert poles.energy(theta) == pytest.approx(E_DRUDE_FAST[point], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("point", sorted(C_DRUDE_FAST))
def test_heat_keeps_the_slow_pair_far_below_the_cutoff(point):
    gamma, omega_d, route, theta = point
    poles = PoleSum(1.0, DampingKernel.drude(gamma, omega_d), Prescription(route))
    assert poles.heat(theta) == pytest.approx(C_DRUDE_FAST[point], rel=1e-12, abs=0.0)


def _backward_error(d, p) -> float:
    # |D(p)| / sum_j |d_j| |p|^j in units of eps, with 40 decimal digits
    # from the doubles' exact values, and no underflow
    with decimal.localcontext(decimal.Context(prec=40)):
        re, im = decimal.Decimal(p.real), decimal.Decimal(p.imag)
        size = (re * re + im * im).sqrt()
        u = v = bound = decimal.Decimal(0)
        for c in map(decimal.Decimal, d):
            u, v = u * re - v * im + c, u * im + v * re
            bound = bound * size + abs(c)
        return float((u * u + v * v).sqrt() / bound) / EPS


def _swept_systems():
    # omega_D log-uniform over [1e6, 1e300] and, where the cubic's real root
    # is the small one and deflates forward, over [1e-300, 1e-6], drawn with
    # a fixed seed; then the double roots of alpha = 2 and r = 4 and the
    # weakest couplings
    rng = random.Random(33)
    fast = [10.0 ** rng.uniform(6.0, 300.0) for _ in range(100)]
    for omega_d in fast + [10.0 ** rng.uniform(-300.0, -6.0) for _ in range(30)]:
        for gamma in (1e-3, 1.0, 1e3):
            for omega0 in (0.0, 1.0):
                yield omega0, DampingKernel.drude(gamma, omega_d)
    yield 1.0, DampingKernel.ohmic(2.0)
    yield 0.0, DampingKernel.drude(1.0, 4.0)
    for alpha in (1e-155, 1e-300):
        yield 1.0, DampingKernel.drude(alpha, 10.0 * alpha)


def test_every_root_has_a_backward_error_below_8_eps():
    # every D that PoleSum accepts: deg D roots, complex ones in exactly
    # conjugate pairs, each with |D(p)| <= 8 eps sum_j |d_j| |p|^j
    checked = 0
    for omega0, kernel in _swept_systems():
        try:
            for route in Prescription:
                PoleSum(omega0, kernel, route)
        except DomainError:
            continue
        # D is the same on both routes: the partition route adds -omega_D
        d = _summand_fractions(omega0, kernel, Prescription.PARTITION)[1]
        roots = _roots(d)
        assert len(roots) == len(d) - 1, (omega0, kernel)
        assert all(p.imag == 0.0 or p.conjugate() in roots for p in roots), roots
        for p in roots:
            assert _backward_error(d, p) <= 8.0, (omega0, kernel, p)
        checked += 1
    assert checked > 500


# the free particle's C at cutoff ratio 1e300 from scripts/freeze_oracles.py
# (the defining closed form at 640 digits)
C_FREE_DRUDE_1E300 = {
    1e-3: 0.00104718928308929465764697,
    1.0: 0.3745489281290333881492902,
    1e3: 0.4998408867138848093400302,
}


@pytest.mark.parametrize("theta", sorted(C_FREE_DRUDE_1E300))
def test_heat_answers_where_s_squared_underflows(theta):
    # s = 2 pi theta / radius is about 1e-299 here, so s^2 underflows; C's
    # terms are formed in z = nu / s and never square s
    poles = PoleSum(0.0, DampingKernel.drude(1.0, 1e300), Prescription.ENERGY)
    want = C_FREE_DRUDE_1E300[theta]
    assert poles.heat(theta) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_free_particle_without_coupling_is_classical():
    poles = PoleSum(0.0, DampingKernel.ohmic(0.0), Prescription.ENERGY)
    assert poles.energy(3.0) == 1.5
    assert poles.heat(3.0) == 0.5


def test_cost_does_not_grow_at_low_temperature():
    # far below the sums' reach: energy_sum stops at its term cap here
    poles = PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.ENERGY)
    e_low = poles.energy(1e-8)
    assert math.isfinite(e_low)
    # the ground-state energy is reached: E - E0 ~ theta^2
    assert e_low == pytest.approx(poles.energy(1e-6), abs=1e-9)


def test_heat_fails_loudly_when_cancellation_wins():
    # each pole's term -r h(-p/s)/p is O(theta), as C is, so C keeps its
    # digits at theta = 1e-8; where s = 2 pi theta / radius makes -p/s
    # overflow, C must raise
    poles = PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.PARTITION)
    assert poles.heat(1e-8) == pytest.approx(C_OSC_DRUDE_LOW[1e-8, "partition"],
                                             rel=1e-13, abs=0.0)
    with pytest.raises(ConvergenceError, match="theta=1e-320 is not finite"):
        poles.heat(1e-320)


# C where the terms of c (1 - sum_i r_i (p_i/s^2) psi'(1 - p_i/s)) cancel,
# with 60 digits from mpmath's roots and psi', each root its own simple pole
# (scripts/freeze_oracles.py): the Drude oscillator (1, 10) and the stiff
# one (1e4, 1e6), on both routes
C_OSC_DRUDE_LOW = {
    (1e-3, "energy"): 0.001047212351673833559829412,
    (1e-3, "partition"): 0.001047211359455819826376369,
    (1e-8, "energy"): 1.047197551196599248097209e-8,
    (1e-8, "partition"): 1.047197551196599148877124e-8,
}
C_STIFF = {"energy": 0.3745489375906168374524785,
           "partition": 0.3745489375233519740739346}
# the free particle at r = 1 on the partition route, where C's leading
# (pi/3)(1 - 1/r) theta vanishes and the O(theta) terms cancel 4e4-fold
C_FREE_R1_PARTITION = 2.480502134423638899426061e-8


@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
def test_heat_keeps_its_digits_where_its_definition_cancels(route):
    # where the psi' terms of the definition cancel 1e3-fold (theta = 1e-3),
    # 1e13-fold (1e-8) and, among poles from 1e-4 to 1e6, at theta = 1e-4
    poles = PoleSum(1.0, DampingKernel.drude(1.0, 10.0), route)
    for theta in (1e-3, 1e-8):
        assert poles.heat(theta) == pytest.approx(C_OSC_DRUDE_LOW[theta, route.value],
                                                  rel=1e-13, abs=0.0)
    stiff = PoleSum(1.0, DampingKernel.drude(1e4, 1e6), route)
    assert stiff.heat(1e-4) == pytest.approx(C_STIFF[route.value], rel=1e-13, abs=0.0)


def test_heat_is_within_its_bound_where_it_is_ill_conditioned():
    # C ~ theta^3 here while its terms are O(theta): rounding the poles and
    # residues to doubles alone moves C by ~1e-11, and its own roundoff
    # estimate, magnitude * eps, reads 2.8e-11
    poles = PoleSum(0.0, DampingKernel.drude(1.0, 1.0), Prescription.PARTITION)
    assert poles.heat(1e-3) == pytest.approx(C_FREE_R1_PARTITION, rel=1e-10, abs=0.0)


def test_validation():
    with pytest.raises(DomainError):
        PoleSum(-1.0, DampingKernel.ohmic(1.0), Prescription.ENERGY)
    with pytest.raises(DomainError):
        PoleSum(1.0, DampingKernel.ohmic(1.0), "energy")
    with pytest.raises(DomainError):
        PoleSum(1.0, DampingKernel.ohmic(1e300), Prescription.ENERGY)
    poles = PoleSum(1.0, DampingKernel.ohmic(1.0), Prescription.ENERGY)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            poles.energy(bad)
        with pytest.raises(DomainError):
            poles.heat(bad)


# PoleSum's E and S against mpmath (scripts/freeze_oracles.py).  The
# regularized energies from their closed forms with 2 log10(1/theta) + 40
# digits, by (system, theta): "free" is the ohmic free particle, a number
# the ohmic oscillator's alpha
E_REGULARIZED = {
    ('free', 1e-09): 5.235987755982989362311522e-19,
    (1.0, 1e-09): 0.2886751345948128827781732,
    (2.0, 1e-09): 1.047197551196597872462304e-18,
    (5.0, 1e-09): -1.142728687950808501445365,
    ('free', 1e-08): 5.235987755982986882786505e-17,
    (1.0, 1e-08): 0.288675134594812934614452,
    (2.0, 1e-08): 1.047197551196597376557301e-16,
    (5.0, 1e-08): -1.142728687950808242263971,
    ('free', 1e-07): 5.235987755982781548383206e-15,
    (1.0, 1e-07): 0.2886751345948181182423304,
    (2.0, 1e-07): 1.047197551196556309676641e-14,
    (5.0, 1e-07): -1.142728687950782324124579,
    ('free', 1e-06): 5.235987755962317405774596e-13,
    (1.0, 1e-06): 0.2886751345953364810301768,
    (2.0, 1e-06): 1.047197551192463481154919e-12,
    (5.0, 1e-06): -1.142728687948190510185594,
    ('free', 1e-05): 5.235987753915904479276625e-11,
    (1.0, 1e-05): 0.288675134647172759855746,
    (2.0, 1e-05): 1.047197550783180895855325e-10,
    (5.0, 1e-05): -1.142728687689009118538003,
    ('free', 0.0001): 5.235987549274516890233882e-9,
    (1.0, 0.0001): 0.2886751398308010516546249,
    (2.0, 0.0001): 1.047197509854903378046776e-8,
    (5.0, 0.0001): -1.142728661770892461986525,
    ('free', 0.001): 0.0000005235967085520449066930739,
    (1.0, 0.001): 0.2886756581977226896355407,
    (2.0, 0.001): 0.000001047193417104089813386148,
    (5.0, 0.001): -1.142726070184211847511628,
    ('free', 1.0): 0.2619360234739540258380538,
    (1.0, 1.0): 0.8321042943381163864811856,
    (2.0, 1.0): 0.5238720469479080516761077,
    (5.0, 1.0): -0.6411296425076408588178475,
    ('free', 1000.0): 498.699914446244394898973,
    (1.0, 1000.0): 998.6999977650410497700849,
    (2.0, 1000.0): 997.399828892488789797946,
    (5.0, 1000.0): 993.4988227396920984225905,
    ('free', 1000000000.0): 499999996.5011493113857836,
    (1.0, 1000000000.0): 999999996.5011493114691169,
    (2.0, 1000000000.0): 999999993.0022986227715671,
    (5.0, 1000000000.0): 999999982.5057465561789178,
}
# E0 = E(theta -> 0) of the Drude oscillators (1, 10), the triple point and
# (1e4, 1e6), by (gamma, omega_D, route): (1/2 pi) int_0^inf R, by quadrature
E0_DRUDE = {
    (1.0, 10.0, 'energy'): 0.7264099731492036426120806,
    (1.0, 10.0, 'partition'): 0.8565623807211753176887819,
    (1.539600717839002, 5.196152422706632, 'energy'): 0.7351051938957227446185738,
    (1.539600717839002, 5.196152422706632, 'partition'): 0.9085450494122938189458124,
    (10000.0, 1000000.0, 'energy'): 7447.507141909111496874236,
    (10000.0, 1000000.0, 'partition'): 8987.47178823243815642504,
}
# S = d(theta ln Z)/d theta = ln Z + E/theta of the Drude oscillator (1, 10),
# Z from the Gamma functions at its poles: the partition route's S
S_PARTITION_DRUDE = {
    0.001: 0.001047202153932249259551243,
    0.01: 0.01047658081901822288839229,
    0.1: 0.1093561411942732911983111,
    1.0: 1.144404627483945199404648,
    100.0: 5.605215069319745688837333,
}
# (E, S) where poles coincide, each root a simple pole of the parameters
# scaled by 1 + 1e-30, with 60 digits or more
COINCIDENT_E_S = {
    ('free-drude-critical', 'energy', 1e-09): (0.31830988618379067206, 1.04719755119659781e-9),
    ('free-drude-critical', 'energy', 1e-06): (0.31830988618431427031, 1.047197551195219642e-6),
    ('free-drude-critical', 'energy', 0.001): (0.31831040978153273457, 0.0010471961731485997258),
    ('free-drude-critical', 'energy', 1.0): (0.61274061098970426476, 0.70239089180897227625),
    ('free-drude-critical', 'energy', 1000.0): (500.00016658916362725, 4.1073041324927632877),
    ('free-drude-critical', 'energy', 1000000000.0): (500000000.00000000017, 11.015059328193232923),
    ('free-drude-critical', 'partition', 1e-09): (0.44127120030530318719, 7.8539816339744835789e-10),
    ('free-drude-critical', 'partition', 1e-06): (0.44127120030569588587, 7.8539816339680230998e-7),
    ('free-drude-critical', 'partition', 0.001): (0.44127159300390041483, 0.00078539751743621972561),
    ('free-drude-critical', 'partition', 1.0): (0.69457741952747789617, 0.57981593070855347201),
    ('free-drude-critical', 'partition', 1000.0): (500.00033310087970968, 3.9538778060027790597),
    ('free-drude-critical', 'partition', 1000000000.0): (500000000.00000000033, 10.861632918473205578),
    ('osc-drude-triple', 'energy', 1e-09): (0.73510519389572274542, 1.6122661015415271403e-9),
    ('osc-drude-triple', 'energy', 1e-06): (0.73510519389652887767, 1.612266101541526967e-6),
    ('osc-drude-triple', 'energy', 0.001): (0.73510600002877349544, 0.0016122661015175965798),
    ('osc-drude-triple', 'energy', 1.0): (1.2772993533847912449, 1.2369430331080400862),
    ('osc-drude-triple', 'energy', 1000.0): (1000.0004164653087611, 8.0251160095138508918),
    ('osc-drude-triple', 'energy', 1000000000.0): (1000000000.0000000004, 21.84062635927902298),
    ('osc-drude-triple', 'partition', 1e-09): (0.90854504941229381975, 1.6122661015415271388e-9),
    ('osc-drude-triple', 'partition', 1e-06): (0.908545049413099952, 1.6122661015399553691e-6),
    ('osc-drude-triple', 'partition', 0.001): (0.90854585554416589876, 0.0016122645299526013394),
    ('osc-drude-triple', 'partition', 1.0): (1.4150271301037019925, 1.1669953036481169267),
    ('osc-drude-triple', 'partition', 1000.0): (1000.0007493961509931, 7.9077556535796116197),
    ('osc-drude-triple', 'partition', 1000000000.0): (1000000000.0000000007, 21.723265836946411157),
}

REGULARIZED_SYSTEMS = {"free": (0.0, DampingKernel.ohmic(1.0))}
REGULARIZED_SYSTEMS.update({alpha: (1.0, DampingKernel.ohmic(alpha)) for alpha in (1.0, 2.0, 5.0)})


@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
@pytest.mark.parametrize("system", list(REGULARIZED_SYSTEMS), ids=str)
def test_regularized_energy_keeps_its_thermal_part(system, route):
    # E0 is closed (0 for the free particle and alpha = 2), and the K sum's
    # terms are O(theta^2), as E - E0 is: no digit is lost down to 1e-9
    poles = PoleSum(*REGULARIZED_SYSTEMS[system], route)
    thetas = sorted(theta for name, theta in E_REGULARIZED if name == system)
    want = [E_REGULARIZED[system, theta] for theta in thetas]
    assert poles.energy(np.array(thetas)).tolist() == pytest.approx(want, rel=1e-13, abs=0.0)
    for theta, value in zip(thetas, want):
        assert poles.energy(theta) == pytest.approx(value, rel=1e-13, abs=0.0)


def test_energy_sum_bar_holds_the_regularization_constant():
    # the sum cancels against the constant: its bar counts the rounding of both
    for system in ("free", 1.0, 2.0):
        omega0, kernel = REGULARIZED_SYSTEMS[system]
        for theta in (1e-3, 1e-4, 1e-5, 1e-6):
            got = energy_sum(omega0, kernel, 1.0 / theta, Prescription.ENERGY)
            assert abs(got.value - E_REGULARIZED[system, theta]) <= got.err, (system, theta)


@pytest.mark.parametrize("point", sorted(E0_DRUDE))
def test_ground_energy_is_the_integral_of_the_summand(point):
    gamma, omega_d, route = point
    poles = PoleSum(1.0, DampingKernel.drude(gamma, omega_d), Prescription(route))
    # E - E0 ~ theta^2 is below the last digit of E0 at theta = 1e-9
    assert poles.energy(1e-9) == pytest.approx(E0_DRUDE[point], rel=1e-13, abs=0.0)


def test_partition_entropy_is_ln_z_plus_e_over_theta():
    # the Third-Law normalization S(0) = 0 of PoleSum's S is the partition
    # function's, at the temperatures where Z's Gamma functions cancel most
    poles = PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.PARTITION)
    for theta, want in S_PARTITION_DRUDE.items():
        assert poles.entropy(theta) == pytest.approx(want, rel=1e-13, abs=0.0), theta


@pytest.mark.parametrize("point", sorted(COINCIDENT_E_S))
def test_coincident_pole_energy_and_entropy(point):
    system, route, theta = point
    poles = PoleSum(*SYSTEMS[system], Prescription(route))
    energy, entropy = COINCIDENT_E_S[point]
    assert poles.energy(theta) == pytest.approx(energy, rel=1e-13, abs=0.0)
    assert poles.entropy(theta) == pytest.approx(entropy, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
@pytest.mark.parametrize("alpha", [0.1, 1.0, 2.0, 5.0])
def test_oscillator_entropy_matches_closed_form(alpha, route):
    # the regularized summands' pole at nu = 0 adds nothing to S
    poles = PoleSum(1.0, DampingKernel.ohmic(alpha), route)
    thetas = np.logspace(-9.0, 9.0, 37)
    want = damped_entropy(thetas, alpha).S
    assert poles.entropy(thetas).tolist() == pytest.approx(want.tolist(), rel=1e-13, abs=0.0)


ENTROPY_SYSTEMS = ["osc-drude", "osc-drude-slow", "osc-drude-triple", "osc-ohmic-critical",
                   "free-ohmic", "free-drude", "free-drude-slow", "free-drude-critical"]


@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
@pytest.mark.parametrize("system", ENTROPY_SYSTEMS)
def test_entropy_derivative_is_the_heat(system, route):
    # theta dS/dtheta = C: central difference quotients of S in theta at
    # steps h and h/2, Richardson-combined, whose truncation (h^4) and
    # roundoff (S's, some 1e-12 relative, over h) stay below 1e-8
    poles, h = PoleSum(*SYSTEMS[system], route), 1e-3

    def quotient(step):
        return (poles.entropy(theta * (1.0 + step))
                - poles.entropy(theta * (1.0 - step))) / (2.0 * step)

    for theta in (1e-3, 0.05, 0.3, 1.0, 4.0):
        derivative = (4.0 * quotient(0.5 * h) - quotient(h)) / 3.0
        assert derivative == pytest.approx(poles.heat(theta), rel=1e-8), theta


def _entropy_by_quadrature(poles, theta):
    # S = int_0^theta C(t) / t dt = int_-inf^ln theta C(e^x) dx, by 16-point
    # Gauss-Legendre on unit panels in x down to ln theta - 45, where C is
    # O(e^-45) of itself and its rest, C(e^x), is below the last digit
    nodes, weights = np.polynomial.legendre.leggauss(16)
    lows = math.log(theta) - np.arange(1.0, 46.0)
    x = (lows[:, None] + 0.5 * (nodes + 1.0)).ravel()
    return 0.5 * float(np.tile(weights, len(lows)) @ poles.heat(np.exp(x)))


@pytest.mark.parametrize("route", list(Prescription), ids=lambda r: r.value)
@pytest.mark.parametrize("system", ["osc-drude", "free-ohmic", "free-drude",
                                    "free-drude-slow"])
def test_entropy_is_the_integral_of_heat_over_temperature(system, route):
    poles = PoleSum(*SYSTEMS[system], route)
    for theta in (1e-3, 0.1, 2.0):
        assert poles.entropy(theta) == pytest.approx(
            _entropy_by_quadrature(poles, theta), rel=1e-12), theta


def test_free_particle_entropy_is_negative_below_r_1_on_the_partition_route():
    # S ~ (pi/3)(1 - 1/r) theta: the prescription dependence at r = 0.1
    poles = PoleSum(0.0, DampingKernel.drude(1.0, 0.1), Prescription.PARTITION)
    assert poles.entropy(1e-3) == pytest.approx(-9.42e-3, rel=1e-3)
    energy = PoleSum(0.0, DampingKernel.drude(1.0, 0.1), Prescription.ENERGY)
    assert energy.entropy(1e-3) > 0.0


# S of the free particle at r = 0.1, 60 digits from its pole form
# (scripts/freeze_oracles.py), where G's direct formula cancels most against S
S_FREE_SLOW_CUTOFF = {
    ('energy', 0.01): 0.01052561966238445460487292,
    ('partition', 0.316): -0.03805414160053998188876039,
}


@pytest.mark.parametrize("route, theta", list(S_FREE_SLOW_CUTOFF), ids=str)
def test_entropy_is_within_its_roundoff_estimate(route, theta):
    # G's size counts ln Gamma(1 + z)'s Stirling part and recurrence sum and
    # z psi(1 + z) apart, so magnitude * eps covers what their cancellation
    # costs; a float and a grid call round differently, and each is covered
    poles = PoleSum(0.0, DampingKernel.drude(1.0, 0.1), Prescription(route))
    s = TWO_PI * (theta / poles._radius)
    for at, scale in ((theta, s), (np.array([theta]), np.array([s]))):
        _, size = poles._sum(scale, _entropy_terms)
        error = abs(poles.entropy(at) - S_FREE_SLOW_CUTOFF[route, theta])
        assert error <= poles._dof * size * EPS, type(at)


def test_entropy_without_coupling():
    for route in Prescription:
        bare = PoleSum(1.0, DampingKernel.drude(0.0, 3.0), route)
        for theta in (0.1, 1.0, 10.0):
            assert bare.entropy(theta) == undamped_thermo(theta).S
        with pytest.raises(DomainError, match=r"no S\(0\) = 0 entropy"):
            PoleSum(0.0, DampingKernel.ohmic(0.0), route).entropy(1.0)
