"""Tests for the shared domain checks, tolerances, and closed-form result check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbrownian.core import (ConvergenceError, DomainError, Estimate, ThermoPoint,
                            Tolerances, check_nonnegative, check_positive,
                            checked_real, gridwise)
from qbrownian.quadrature import MomentResult


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_check_positive_rejects(value):
    with pytest.raises(DomainError, match="theta must be positive and finite"):
        check_positive("theta", value)


@pytest.mark.parametrize("value", [-1e-300, math.inf, math.nan])
def test_check_nonnegative_rejects(value):
    with pytest.raises(DomainError, match="alpha must be >= 0 and finite"):
        check_nonnegative("alpha", value)


def test_checks_accept_their_domains():
    theta = 1e-300
    assert check_positive("theta", theta) is theta
    alpha = 0.0
    assert check_nonnegative("alpha", alpha) is alpha
    # both checks return a double: a numpy scalar or a 0-d array as its
    # float; check_positive takes an array as float64, itself when it is one
    for x in (np.float32(0.5), np.float64(0.5), np.array(0.5)):
        assert type(check_positive("theta", x)) is float
        assert type(check_nonnegative("alpha", x)) is float
        assert check_nonnegative("alpha", x) == float(x)
    grid = np.linspace(0.5, 2.0, 4)
    assert check_positive("theta", grid) is grid
    assert check_positive("theta", grid.astype(np.float32)).dtype == np.float64


def test_tolerances_defaults_and_validation():
    tol = Tolerances()
    assert 0.0 < tol.quad_abs < 1.0
    with pytest.raises(DomainError):
        Tolerances(quad_abs=-1e-10)


def test_checked_real():
    assert checked_real(3.0 + 0.0j, 3.0, "value") == 3.0
    assert checked_real(complex(2.0, 1e-15), 2.0, "value") == 2.0
    with pytest.raises(DomainError, match="value should be real"):
        checked_real(complex(1.0, 1e-3), 1.0, "value")
    # terms of size 1e10 cancelling to 1e-3 leave ~4e-3 relative roundoff
    with pytest.raises(ConvergenceError,
                       match="heat at theta=0.5, alpha=2.0 lost its digits") as info:
        checked_real(1e-3, 2e10, "heat", theta=0.5, alpha=2.0)
    assert info.value.achieved == pytest.approx(2e13 * 2.0 ** -52)
    # a value or magnitude that is not finite is named so, with the roundoff
    # read as inf, never nan
    for total, magnitude in [(complex(math.nan, math.nan), math.nan), (0.5, math.nan),
                             (math.nan, math.inf), (math.inf, 1.0)]:
        with pytest.raises(ConvergenceError,
                           match="heat at theta=1e-300 is not finite in double "
                                 "precision$") as info:
            checked_real(total, magnitude, "heat", theta=1e-300)
        assert info.value.achieved == math.inf
    # the one limit is relative, however small the value: a roundoff of 2e-21
    # is a fifth of 1e-20, and an exact zero with any roundoff has lost it all
    with pytest.raises(ConvergenceError, match=r"roundoff 0\.222 exceeds 1e-06"):
        checked_real(1e-20, 1e-5, "heat", theta=1e-3)
    assert checked_real(1e-20, 1e-11, "heat", theta=1e-3) == 1e-20
    with pytest.raises(ConvergenceError, match="roundoff inf exceeds"):
        checked_real(0.0, 1.0, "heat", theta=1e-3)


def test_result_types_keep_their_fields_defaults_and_repr():
    # the three result types: built by keyword, read by field, immutable, and
    # printed as scripts/repr_dump.py and the docs show them
    est = Estimate(value=1.5, err=2e-16)
    assert (est.value, est.err, est.terms_used, est.regularized) == (1.5, 2e-16, 0, False)
    assert repr(est) == "Estimate(value=1.5, err=2e-16, terms_used=0, regularized=False)"
    assert repr(Estimate(value=-0.25, err=0.0, terms_used=64, regularized=True)) == (
        "Estimate(value=-0.25, err=0.0, terms_used=64, regularized=True)")
    point = ThermoPoint(C=0.5)
    assert (point.Z, point.E, point.S, point.C) == (None, None, None, 0.5)
    assert repr(point) == "ThermoPoint(Z=None, E=None, S=None, C=0.5)"
    moment = MomentResult(q2=0.5, p2_reg=0.25, q2_err=1e-12, p2_err=2e-12)
    assert (moment.q2, moment.p2_reg, moment.q2_err, moment.p2_err) == (
        0.5, 0.25, 1e-12, 2e-12)
    assert repr(moment) == "MomentResult(q2=0.5, p2_reg=0.25, q2_err=1e-12, p2_err=2e-12)"
    for result, field in ((est, "err"), (point, "C"), (moment, "q2")):
        with pytest.raises(AttributeError):
            setattr(result, field, 1.0)
    # NamedTuples: they unpack, and compare as the tuples of their fields
    _, err, terms_used, _ = est
    assert (err, terms_used) == (2e-16, 0)
    assert est == (1.5, 2e-16, 0, False)
    assert point == (None, None, None, 0.5)


def test_gridwise_refuses_a_result_that_is_not_finite():
    @gridwise
    def estimate(theta, err):
        return Estimate(value=theta, err=err)

    @gridwise
    def heat(theta, value):
        return ThermoPoint(C=value)

    assert estimate(0.5, 1e-16) == Estimate(value=0.5, err=1e-16)
    assert heat(0.5, 0.25) == ThermoPoint(C=0.25)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConvergenceError, match=r"^at theta=0\.5: .*estimate is not "
                                                   r"finite in double precision$"):
            estimate(0.5, bad)
        with pytest.raises(ConvergenceError, match=r"^at theta=0\.5: .*heat is not "
                                                   r"finite in double precision$"):
            heat(0.5, bad)
    # on a grid, the first theta whose err or C is not finite
    with pytest.raises(ConvergenceError, match=r"^at theta=2\.0: "):
        estimate(np.array([1.0, 2.0, 3.0]), np.array([0.0, math.inf, math.nan]))
    with pytest.raises(ConvergenceError, match=r"^at theta=3\.0: "):
        heat(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, math.nan]))
