"""Property sweep of PoleSum through the degenerate points of its poles.

Critical damping alpha = 2 (double root of the ohmic oscillator), the free
particle's critical cutoff r = 4 (double root) and the Drude oscillator's
triple root at alpha = 8/(3 sqrt 3), r = 27/8 all switch PoleSum between its
simple-pole and pole-cluster evaluations.  Energy and specific heat must be
continuous through them: a step of 1e-10 in the parameter may move them by
no more than 1e-9, wherever the sweep lands.
"""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qbrownian.matsubara import DampingKernel, PoleSum, Prescription  # noqa: E402

ALPHA_TRIPLE = 8.0 / (3.0 * math.sqrt(3.0))
RATIO_TRIPLE = 27.0 / 8.0
STEP = 1e-10

SWEEP = settings(max_examples=60, deadline=None, database=None)

# signed offsets from a degenerate point, log-uniform in size, exact zero included
offsets = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-12.0, -1.0)).map(
        lambda pair: pair[0] * 10.0 ** pair[1]))
thetas = st.floats(-2.0, 1.0).map(lambda x: 10.0 ** x)
routes = st.sampled_from(list(Prescription))


def assert_continuous(build, x: float, theta: float) -> None:
    here, there = build(x), build(x + STEP)
    assert abs(there.energy(theta) - here.energy(theta)) <= 1e-9
    assert abs(there.heat(theta) - here.heat(theta)) <= 1e-9
    assert abs(there.entropy(theta) - here.entropy(theta)) <= 1e-9


@SWEEP
@given(offset=offsets, theta=thetas)
def test_continuous_through_critical_damping(offset, theta):
    assert_continuous(
        lambda a: PoleSum(1.0, DampingKernel.ohmic(a), Prescription.ENERGY),
        2.0 + offset, theta)


@SWEEP
@given(offset=offsets, theta=thetas, route=routes)
def test_continuous_through_critical_cutoff(offset, theta, route):
    assert_continuous(
        lambda r: PoleSum(0.0, DampingKernel.drude(1.0, r), route),
        4.0 + offset, theta)


@SWEEP
@given(d_alpha=offsets, d_ratio=offsets, theta=thetas, route=routes,
       move_alpha=st.booleans())
def test_continuous_through_triple_root(d_alpha, d_ratio, theta, route, move_alpha):
    alpha, ratio = ALPHA_TRIPLE + d_alpha, RATIO_TRIPLE + d_ratio
    if move_alpha:
        def build(a):
            return PoleSum(1.0, DampingKernel.drude(a, a * ratio), route)
        assert_continuous(build, alpha, theta)
    else:
        def build(r):
            return PoleSum(1.0, DampingKernel.drude(alpha, alpha * r), route)
        assert_continuous(build, ratio, theta)
