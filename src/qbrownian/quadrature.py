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
pieces cluster double-exponentially.  The nodes of every step size and
their weighted numerators (w, w^3) weight are tabulated once, at import.
Divided by den, which depends on alpha but not on theta, they are tabulated
again per damping and step size, on the first call that reaches that step
at that damping, and kept for the next.  One pass over them gives both
moments: the first two step sizes, which every call sums, share one Bose
evaluation over their nodes, tabulated as one vector; each finer step size
costs one more; each step size costs one matrix-vector product; and each
moment stops at its own step size, with its own error bar.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .core import ConvergenceError, DomainError, EPS, Tolerances, check_positive


class MomentResult(NamedTuple):
    """Position and regularized momentum variances, each with its error bar."""

    q2: float
    p2_reg: float
    q2_err: float
    p2_err: float


_T_MAX = 4.0            # the rule keeps the nodes at |t| <= _T_MAX
_STEPS = (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128)


def _level(h: float, first: bool) -> tuple[np.ndarray, ...]:
    """Nodes w, rows (w, w^3) weight, w^2 and (w^2 - 1)^2 that step h adds.

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
    w2 = w * w
    return w, np.stack([w, w * w2]) * weight, w2, (s * (s + 2.0)) ** 2


_LEVELS = tuple(_level(h, i == 0) for i, h in enumerate(_STEPS))
# every call sums the first two step sizes, as the coarsest has no previous
# value to stop on: their nodes, as one vector, take one Bose evaluation
_FIRST_TWO = np.concatenate([_LEVELS[0][0], _LEVELS[1][0]])
_FIRST_TWO_PARTS = (slice(0, _LEVELS[0][0].size), slice(_LEVELS[0][0].size, None))
# The nodes stop short of w = 0 by _GAP0 and straddle w = 1 with a gap of
# _GAP1 in all; what the integrand holds there is bounded, not sampled.
_U_MAX = 0.5 * math.pi * math.sinh(_T_MAX)
_GAP0 = 1.0 / (1.0 + math.exp(2.0 * _U_MAX))
_GAP1 = _GAP0 + math.exp(-_U_MAX)


# the (alpha, level) tables kept: five levels for each of the last 25 dampings
_TABLES_KEPT = 125


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _table(alpha: float, level: int) -> tuple[np.ndarray, float]:
    """Read-only rows (w, w^3) weight / den of a level, and the first row's sum.

    The sum is the level's share of the "1" in q2's integrand w (1 + bose).
    """
    _, numerators, w2, u2 = _LEVELS[level]
    rows = numerators / (u2 + alpha * alpha * w2)
    rows.flags.writeable = False
    return rows, float(rows[0].sum())


def _bose(y: np.ndarray) -> np.ndarray:
    """2/(e^y - 1), the coth(y/2) - 1 remainder, formed in y; 0 where e^y overflows."""
    return np.divide(2.0, np.expm1(y, out=y), out=y)


@np.errstate(all="ignore")
def moments(theta: float, alpha: float,
            tol: Tolerances = Tolerances()) -> MomentResult:
    """Both variances in one pass: q2 = f_0 and p2_reg = regularized f_2.

    theta and alpha are single values; an array of them raises DomainError.
    The Bose factor is evaluated once for the first two step sizes together
    and once for each finer one reached, and each step size takes both
    moments' sums from it in one product with that damping's table, built on
    the first call at that damping (see _table).  Each moment stops at the
    first step whose error bar is within tol.quad_abs / 4 and keeps that
    value and bar; after the finest step, a bar above tol.quad_abs raises
    ConvergenceError, f_0's before f_2's.  The bar is the change of the
    value on the last halving, plus the roundoff floor sum|f w| eps
    sqrt(nodes), plus a bound on the two gaps the nodes leave: near w = 0
    the integrand is at most its limit there, and near w = 1 at most its
    value at 1, g(1) / (pi alpha), since den >= alpha^2 w^2.  At extreme
    theta or alpha the integrands overflow or divide by zero on some nodes,
    with numpy kept quiet; the resulting inf or nan error bar raises.
    """
    theta = check_positive("theta", theta)
    alpha = check_positive("alpha", alpha)
    if type(theta) is not float or type(alpha) is not float:
        # check_positive gives a float unless it was given an array
        raise DomainError("moments takes one theta and one alpha, not an array")
    target = tol.quad_abs
    stop = 0.25 * target
    pref = alpha / math.pi
    # the coarsest step has no previous value to compare with
    totals, previous, errs = [0.0, 0.0], [math.inf] * 2, [math.inf] * 2
    nodes = 0
    bose_1 = float(2.0 / np.expm1(1.0 / theta))
    gaps = (_GAP0 * 2.0 * theta * pref
            + _GAP1 * (1.0 + bose_1) / (math.pi * alpha),
            _GAP1 * bose_1 / (math.pi * alpha))
    # the first two step sizes' Bose factors in one pass, each finer one's
    # where it is reached
    first_two = _bose(_FIRST_TWO / theta)
    for level, (w, _, _, _) in enumerate(_LEVELS):
        rows, ones = _table(alpha, level)
        bose = first_two[_FIRST_TWO_PARTS[level]] if level < 2 else _bose(w / theta)
        # both moments' Bose-weighted sums in one product
        bosed = (rows @ bose).tolist()
        sums = (ones + bosed[0], bosed[1])
        nodes += w.size
        for k in (0, 1):
            if errs[k] <= stop:
                continue            # this moment stopped at a coarser step
            # halving the step halves the weights of the nodes already summed
            total = 0.5 * totals[k] + sums[k]
            # the integrand and the weights are nonnegative, so total = sum|f w|
            change = abs(total - previous[k])
            errs[k] = pref * (change + total * EPS * math.sqrt(nodes)) + gaps[k]
            totals[k] = previous[k] = total
        if errs[0] <= stop and errs[1] <= stop:
            break
    for k, err in enumerate(errs):
        if not err <= target:       # a nan error bar raises too
            raise ConvergenceError(
                f"f_{2 * k} error bar {err:g} exceeds the requested {target:g} at "
                f"theta={theta!r}, alpha={alpha!r}", achieved=err, requested=target)
    return MomentResult(pref * totals[0], pref * totals[1], errs[0], errs[1])


def spectral_energy(theta: float, alpha: float,
                    tol: Tolerances = Tolerances()) -> tuple[float, float]:
    """Regularized internal energy (q2 + p2_reg)/2 with its error estimate.

    Carries the additive offset of the dropped zero-point momentum part, so
    only temperature differences and derivatives of it are physical.
    """
    m = moments(theta, alpha, tol)
    return 0.5 * (m.q2 + m.p2_reg), 0.5 * (m.q2_err + m.p2_err)
