"""Tests for the shared domain checks, tolerances, and real-part collapse."""

from __future__ import annotations

import math

import pytest

from qbrownian.core import (DomainError, Tolerances, check_nonnegative,
                            check_positive, real_with_im_check)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_check_positive_rejects(value):
    with pytest.raises(DomainError, match="theta must be positive and finite"):
        check_positive("theta", value)


@pytest.mark.parametrize("value", [-1e-300, math.inf, math.nan])
def test_check_nonnegative_rejects(value):
    with pytest.raises(DomainError, match="alpha must be >= 0 and finite"):
        check_nonnegative("alpha", value)


def test_checks_accept_their_domains():
    check_positive("theta", 1e-300)
    check_nonnegative("alpha", 0.0)


def test_tolerances_defaults_and_validation():
    tol = Tolerances()
    assert 0.0 < tol.rel_sum_tail < 1.0
    assert 0.0 < tol.quad_abs < 1.0
    with pytest.raises(DomainError):
        Tolerances(rel_sum_tail=0.0)
    with pytest.raises(DomainError):
        Tolerances(quad_abs=-1e-10)


def test_real_with_im_check():
    assert real_with_im_check(3.0 + 0.0j) == 3.0
    assert real_with_im_check(complex(2.0, 1e-15)) == 2.0
    with pytest.raises(DomainError):
        real_with_im_check(complex(1.0, 1e-3))
