"""Spectral-integral moments of the ohmically damped oscillator.

The position and momentum variances are frequency integrals of the damped
susceptibility against the thermal kernel.  In reduced units (omega0 = 1,
temperatures theta, damping alpha) the moments are

    f_n = (alpha / pi) * int_0^inf dw  w^(n+1) coth(w / (2 theta)) / den(w),
    den(w) = (w^2 - 1)^2 + alpha^2 w^2,

with <q^2> = f_0 and <p^2> = f_2.  f_2 is evaluated with the coth split
coth(x) = 1 + 2/(e^(2x) - 1): the "1" part is a temperature-independent
ultraviolet divergence and is dropped, keeping only the Bose-weighted part,
so p2_reg (and any energy built from it) is meaningful only through its
temperature dependence.  This route shares nothing with the frequency-sum
representation beyond the model itself, which is what makes their agreement
a real cross-check.

Both integrals run over the whole half line with the double-exponential rule
of Takahasi and Mori (Publ. RIMS 9, 721 (1974)): tanh-sinh on [0, 1] and
exp-sinh on [1, inf), split at the resonance w = 1, where the nodes of both
pieces cluster double-exponentially.  The nodes and weights of every step
size are tabulated once, at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConvergenceError, DEFAULT_TOL, DomainError, EPS, Tolerances,
                   check_positive)


@dataclass(frozen=True)
class MomentResult:
    """Position and regularized momentum variances with a combined error bar."""

    q2: float
    p2_reg: float
    abs_err: float


_T_MAX = 4.0            # the rule keeps the nodes at |t| <= _T_MAX
_STEPS = (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128)


def _level(h: float, first: bool) -> tuple[np.ndarray, ...]:
    """Nodes w, w^2, (w^2 - 1)^2 and weights that step h adds to the rule.

    The coarsest step takes every node j h in [-_T_MAX, _T_MAX]; each finer
    one adds the odd multiples of h, the nodes halfway between the old ones.
    """
    j = np.arange(-round(_T_MAX / h), round(_T_MAX / h) + 1)
    if not first:
        j = j[j % 2 == 1]
    u = 0.5 * math.pi * np.sinh(j * h)
    du = 0.5 * math.pi * np.cosh(j * h)
    e2u = np.exp(2.0 * u)
    eu = np.exp(u)
    # tanh-sinh w = (1 + tanh u)/2 = e2u/(1 + e2u) and exp-sinh w = 1 + eu;
    # the offset s = w - 1 is kept exact, so den stays accurate however close
    # to the resonance a node falls
    s = np.concatenate([-1.0 / (1.0 + e2u), eu])
    w = np.concatenate([e2u / (1.0 + e2u), 1.0 + eu])
    weight = h * np.concatenate([2.0 * du * e2u / (1.0 + e2u) ** 2, du * eu])
    return w, w * w, (s * (s + 2.0)) ** 2, weight


_LEVELS = tuple(_level(h, i == 0) for i, h in enumerate(_STEPS))
# The nodes stop short of w = 0 by _GAP0 and straddle w = 1 with a gap of
# _GAP1 in all; what the integrand holds there is bounded, not sampled.
_U_MAX = 0.5 * math.pi * math.sinh(_T_MAX)
_GAP0 = 1.0 / (1.0 + math.exp(2.0 * _U_MAX))
_GAP1 = _GAP0 + math.exp(-_U_MAX)


def _bose(y):
    """2/(e^y - 1), the coth(y/2) - 1 remainder, without overflow for y > 0."""
    return 2.0 * np.exp(-y) / -np.expm1(-y)


def f_n_integral(n: int, theta: float, alpha: float,
                 tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Return (f_n, error bar) for n = 0 (full) or n = 2 (regularized).

    The step is halved until the error bar is within tol.quad_abs / 4; after
    the finest step, a bar above tol.quad_abs raises ConvergenceError.  The
    bar is the change of the value on the last halving, plus the roundoff
    floor sum|f w| eps sqrt(nodes), plus a bound on the two gaps the nodes
    leave: near w = 0 the integrand is at most its limit there, and near
    w = 1 at most its value at 1, g(1) / (pi alpha), since den >= alpha^2 w^2.
    """
    check_positive("theta", theta)
    check_positive("alpha", alpha)
    if n not in (0, 2):
        raise DomainError(f"only the n = 0 and n = 2 moments exist here, got {n!r}")
    target = tol.quad_abs
    pref = alpha / math.pi
    bose_1 = float(_bose(1.0 / theta))
    if n == 0:
        gaps = _GAP0 * 2.0 * theta * pref + _GAP1 * (1.0 + bose_1) / (math.pi * alpha)
    else:
        gaps = _GAP1 * bose_1 / (math.pi * alpha)
    a2 = alpha * alpha
    total = 0.0
    previous = math.inf             # the coarsest step has nothing to compare with
    nodes = 0
    # at extreme theta or alpha the integrand overflows or divides by zero
    # on some nodes; the resulting inf or nan error bar raises below
    with np.errstate(over="ignore", divide="ignore"):
        for w, w2, u2, weight in _LEVELS:
            bose = _bose(w / theta)
            g = w * w2 * bose if n == 2 else w + w * bose
            # halving the step halves the weights of the nodes already summed
            total = 0.5 * total + float((g / (u2 + a2 * w2) * weight).sum())
            nodes += w.size
            # the integrand and the weights are nonnegative, so total = sum|f w|
            err = pref * (abs(total - previous) + total * EPS * math.sqrt(nodes)) + gaps
            if err <= 0.25 * target:
                break
            previous = total
    if not err <= target:          # a nan error bar raises too
        raise ConvergenceError(
            f"f_{n} error bar {err:g} exceeds the requested {target:g} at "
            f"theta={theta!r}, alpha={alpha!r}", achieved=err, requested=target)
    return pref * total, err


def moments(theta: float, alpha: float,
            tol: Tolerances = DEFAULT_TOL) -> MomentResult:
    """Both variances at once: q2 = f_0, p2_reg = regularized f_2."""
    q2, err0 = f_n_integral(0, theta, alpha, tol)
    p2, err2 = f_n_integral(2, theta, alpha, tol)
    return MomentResult(q2=q2, p2_reg=p2, abs_err=err0 + err2)


def spectral_energy(theta: float, alpha: float,
                    tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Regularized internal energy (q2 + p2_reg)/2 with its error estimate.

    Carries the additive offset of the dropped zero-point momentum part, so
    only temperature differences and derivatives of it are physical.
    """
    m = moments(theta, alpha, tol)
    return 0.5 * (m.q2 + m.p2_reg), 0.5 * m.abs_err
