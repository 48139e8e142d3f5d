"""Frozen-reference and property tests for the gamma-family kernels.

Reference values were computed independently with mpmath at 40-digit working
precision and are frozen here as literals; a smaller live mpmath comparison
on a seeded random grid guards against regressions away from the frozen
points.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from qbrownian.core import EPS
from qbrownian.specfun import _G, _K, _PUSH, _digamma, _g_terms, _h

from gamma_family import _g, _ln_gamma, _ln_gamma_terms, _trigamma

EULER_GAMMA = 0.5772156649015328606065121


LN_GAMMA_REF = complex(0.7853469580738222014792393, 2.583012925115262026571724)
DIGAMMA_REF = complex(1.607759321607187866120233, 1.570796326794825270487004)
TRIGAMMA_REF = complex(0.3521320605925588026514951, 0.2225353233424034436888091)
G_REAL_REF = -8.413113317591695781248852
G_COMPLEX_REF = complex(-0.2851014133040513546200775, -0.178933379510820016711143)
# h and G from their definitions at 40 digits, with 2 log10|z| + 40 where
# |z| > 1 (scripts/freeze_oracles.py): real, on both sides of |z| = 12,
# near the imaginary axis, and up to |z| = 1e300
H_G_REF = {
    0.5: ((0.23370055013616983+0j),
          (0.28860783245076643+0j)),
    3.0: ((0.054406601634037925+0j),
          (0.05516178639392599+0j)),
    11.9: ((0.013985920516492821+0j),
           (0.013999028547394545+0j)),
    12.1: ((0.013755379817101707+0j),
           (0.013767850985934285+0j)),
    1000.0: ((0.00016666663333335713+0j),
             (0.00016666665555556032+0j)),
    1e+300: ((1.6666666666666665e-301+0j),
             (1.6666666666666665e-301+0j)),
    (3+4j): ((0.02024859079273887-0.026565151987750543j),
             (0.020083023152538407-0.026633849856312966j)),
    (8-9j): ((0.009211014395648037+0.010333822068401248j),
             (0.009200612410398835+0.010341170068190821j)),
    (0.001+5j): ((6.834978855769868e-06-0.033608089602575456j),
                 (6.721618294862429e-06-0.03342381050559596j)),
    (1e-09+11.5j): ((1.2660092256888748e-12-0.014514790481571742j),
                    (1.2621556940497167e-12-0.014500083215648349j)),
    (0.001+12.5j): ((1.0707942663578976e-06-0.013350478642494085j),
                    (1.0680382914231538e-06-0.01333903784149288j)),
    (1e-08+100000j): ((1.6666666667666668e-19-1.6666666667e-06j),
                      (1.6666666667e-19-1.6666666666777778e-06j)),
    (2+1e+300j): (complex(0.0, -1.6666666666666665e-301),
                  complex(0.0, -1.6666666666666665e-301)),
}

# K(z) = ln z + 1/(2z) - psi(1 + z) from its definition at 40 digits, with
# 2 log10|z| + 40 where |z| > 1 (scripts/freeze_oracles.py), at H_G_REF's
# points below |z| = 1e300
K_REF = {
    0.5: complex(0.27036284546147815, 0.0),
    3.0: complex(0.009161286902975886, 0.0),
    11.9: complex(0.0005880565122571709, 0.0),
    12.1: complex(0.0005687903787713667, 0.0),
    1000.0: complex(8.333332500000397e-08, 0.0),
    (3+4j): complex(-0.0009219048993105381, -0.0032069911844322205),
    (8-9j): complex(-6.699420472738904e-05, 0.0005708401795534715),
    (0.001+5j): complex(-0.0033469317760817033, -1.3443236026261327e-06),
    (1e-09+11.5j): complex(-0.0006305979131832478, -1.0975266904780145e-13),
    (0.001+12.5j): complex(-0.0005336757037319865, -8.544306276654636e-08),
    (1e-08+100000j): complex(-8.333333333416667e-12, -1.6666666667e-24),
}


def rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def sample_points(rng: np.random.Generator, count: int,
                  re_lo: float = -8.0, re_hi: float = 12.0) -> list[complex]:
    """Random complex points staying 0.2 away from the nonpositive integers."""
    points: list[complex] = []
    while len(points) < count:
        z = complex(rng.uniform(re_lo, re_hi), rng.uniform(-10.0, 10.0))
        if z.real < 0.5 and abs(z.imag) < 0.2 and abs(z.real - round(z.real)) < 0.2:
            continue
        points.append(z)
    return points


def test_frozen_complex_references():
    assert rel_err(_ln_gamma(3.7 + 2.1j), LN_GAMMA_REF) < 1e-13
    assert rel_err(_digamma(0.5 + 5.0j), DIGAMMA_REF) < 1e-13
    assert rel_err(_trigamma(2.5 - 1.3j), TRIGAMMA_REF) < 1e-13
    assert rel_err(_g(10.0), G_REAL_REF) < 1e-13
    assert rel_err(_g(0.8 + 0.3j), G_COMPLEX_REF) < 1e-13


def test_h_and_G_against_frozen_references():
    # h within a few eps of |h| in both parts, also where Re h is 1e-10 of
    # it; G within 1e-12, and within 64 eps of the sum of |terms| it reports
    for z, (h, G) in H_G_REF.items():
        assert abs(_h(z) - h) <= 4.0 * EPS * abs(h), z
        value, magnitude = _G(z)
        assert abs(value - G) <= min(1e-12 * abs(G), 64.0 * EPS * magnitude), z


def test_K_against_frozen_references():
    # on both sides of |z| = 12, where K switches from its direct formula to
    # its series: within 1e-12, and within 64 eps of the sum of |terms|
    for z, want in K_REF.items():
        value, magnitude = _K(z)
        assert abs(value - want) <= min(1e-12 * abs(want), 64.0 * EPS * magnitude), z
        assert value.conjugate() == _K(complex(z).conjugate())[0]


def test_classic_identities():
    assert rel_err(_trigamma(1.0), math.pi ** 2 / 6.0) < 1e-12
    assert rel_err(_trigamma(0.5), math.pi ** 2 / 2.0) < 1e-12
    assert rel_err(_digamma(1.0), -EULER_GAMMA) < 1e-12
    assert rel_err(_ln_gamma(0.5), 0.5 * math.log(math.pi)) < 1e-12
    assert rel_err(_ln_gamma(1.0), 0.0) < 1e-12 or abs(_ln_gamma(1.0)) < 1e-14
    assert rel_err(_digamma(2.0), 1.0 - EULER_GAMMA) < 1e-12


def test_g_func_special_values():
    assert _g(0.0) == 0.0
    # g(1) = ln 1! - psi(2) = gamma_E - 1
    assert rel_err(_g(1.0), EULER_GAMMA - 1.0) < 1e-12


def test_g_func_prime_matches_difference_quotient():
    # g'(z) = -z psi'(1 + z), the identity that makes the entropy route's
    # specific heat the internal-energy route's
    h = 1e-6
    for z in (0.7, 2.5, 1.2 + 0.8j, 0.3 - 2.0j):
        numeric = (_g(z + h) - _g(z - h)) / (2.0 * h)
        assert abs(numeric - -z * _trigamma(1 + z)) < 5e-9


def test_conjugate_symmetry_is_exact():
    rng = np.random.default_rng(1702)
    for z in sample_points(rng, 200):
        for fn in (_ln_gamma, _digamma, _trigamma, _g):
            assert fn(z.conjugate()) == fn(z).conjugate()


def test_recurrence_relations_on_random_grid():
    rng = np.random.default_rng(2203)
    for z in sample_points(rng, 300):
        psi = _digamma(z)
        assert abs(_digamma(z + 1.0) - psi - 1.0 / z) <= 1e-13 * max(1.0, abs(psi))
        psi1 = _trigamma(z)
        assert abs(_trigamma(z + 1.0) - psi1 + 1.0 / (z * z)) <= 1e-13 * max(1.0, abs(psi1))
    # the log-recurrence is branch-safe on the right half plane
    for z in sample_points(rng, 300, re_lo=0.05):
        lg = _ln_gamma(z)
        assert abs(_ln_gamma(z + 1.0) - lg - cmath.log(z)) <= 1e-13 * max(1.0, abs(lg))


def test_trigamma_reflection_on_unit_interval():
    rng = np.random.default_rng(88)
    for x in rng.uniform(0.02, 0.98, size=50):
        lhs = _trigamma(x) + _trigamma(1.0 - x)
        rhs = (math.pi / math.sin(math.pi * x)) ** 2
        assert abs(lhs.real - rhs) <= 1e-11 * rhs
        assert abs(lhs.imag) < 1e-12


def test_digamma_is_log_gamma_derivative():
    h = 1e-5
    for z in (0.8, 3.3, 1.5 + 2.0j, 6.0 - 1.0j):
        numeric = (_ln_gamma(z + h) - _ln_gamma(z - h)) / (2.0 * h)
        assert abs(numeric - _digamma(z)) < 1e-6


def test_trigamma_is_digamma_derivative():
    h = 1e-5
    for z in (0.8, 3.3, 1.5 + 2.0j):
        numeric = (_digamma(z + h) - _digamma(z - h)) / (2.0 * h)
        assert abs(numeric - _trigamma(z)) < 1e-6


def test_against_live_mpmath_grid():
    mp.mp.dps = 30
    rng = np.random.default_rng(20260817)
    for z in sample_points(rng, 60, re_lo=0.05):
        want = complex(mp.loggamma(z))
        assert rel_err(_ln_gamma(z), want) < 1e-12
    for z in sample_points(rng, 60):
        assert rel_err(_digamma(z), complex(mp.psi(0, z))) < 1e-12
        assert rel_err(_trigamma(z), complex(mp.psi(1, z))) < 1e-12


def _bits(value):
    # a complex or an array as its type, shape and bytes: equal bit for bit,
    # nan payloads and signed zeros included
    return type(value), np.shape(value), np.asarray(value, dtype=complex).tobytes()


# Python complex numbers below _PUSH, at it (1 + z = 10) and past it, and
# non-finite ones, which _push sets to nan
G_TERMS_POINTS = [0.0, 0.37, 1e-10j, 0.5 - 5.0j, 3.7 + 2.1j, -0.5 + 0.1j, 8.25 + 1.0j,
                  _PUSH - 1.0, _PUSH - 1.0 + 3.0j, 25.5, 1e8 + 1e8j, complex(math.nan, 0.0),
                  complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(math.inf, math.nan)]


@pytest.mark.parametrize("z", [complex(z) for z in G_TERMS_POINTS], ids=repr)
def test_g_terms_push_ln_gamma_and_psi_together_bit_for_bit(z):
    # one push of 1 + z carries ln Gamma's log sum and psi's reciprocal sum:
    # each term is what its own recurrence gives, to the bit
    want = (*_ln_gamma_terms(1.0 + z), -(z * _digamma(1.0 + z)))
    assert list(map(_bits, _g_terms(z))) == list(map(_bits, want))


def test_g_terms_on_arrays_are_their_own_recurrences_bit_for_bit():
    # several shapes, a non-C-ordered view, non-finite elements and elements
    # at or past _PUSH, each array against ln Gamma and psi pushed apart
    points = np.array(G_TERMS_POINTS, dtype=complex)
    grid = np.linspace(0.0, 14.0, 30) + 1j * np.linspace(-3.0, 3.0, 30)
    arrays = [points, points.reshape(3, 5).T, grid, grid.reshape(5, 6),
              grid.reshape(5, 6).T, grid.reshape(2, 3, 5)[:, ::2], grid[:0]]
    with np.errstate(all="ignore"):
        for z in arrays:
            want = (*_ln_gamma_terms(1.0 + z), -(z * _digamma(1.0 + z)))
            got = _g_terms(z)
            assert [x.shape for x in got] == [z.shape] * 3
            assert list(map(_bits, got)) == list(map(_bits, want))
