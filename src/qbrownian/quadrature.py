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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .core import ConvergenceError, DEFAULT_TOL, DomainError, Tolerances, check_positive


@dataclass(frozen=True)
class MomentResult:
    """Position and regularized momentum variances with a combined error bar."""

    q2: float
    p2_reg: float
    abs_err: float


def _den(w: float, alpha: float) -> float:
    u = w * w - 1.0
    return u * u + alpha * alpha * w * w


def _bose_factor(y: float) -> float:
    # 2/(e^y - 1), the coth(y/2) - 1 remainder, stable for all y > 0
    if y > 700.0:
        return 0.0
    return 2.0 / math.expm1(y)


def _quad_checked(func, upper: float, epsabs: float, what: str) -> tuple[float, float]:
    out = quad(func, 0.0, upper, points=[1.0], limit=400,
               epsabs=epsabs, epsrel=1e-12, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise ConvergenceError(f"{what} quadrature did not converge: {out[3]}",
                               achieved=abserr, requested=epsabs)
    return value, abserr


def f_n_integral(n: int, theta: float, alpha: float,
                 tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Return (f_n, error estimate) for n = 0 (full) or n = 2 (regularized).

    The finite integration window is chosen so that both the analytic
    power-law continuation of the n = 0 tail and the exponential bound on the
    Bose tail sit below the requested absolute tolerance; both residuals are
    folded into the reported error, and an unreachable tolerance raises.
    """
    check_positive("theta", theta)
    check_positive("alpha", alpha)
    if n not in (0, 2):
        raise DomainError(f"only the n = 0 and n = 2 moments exist here, got {n!r}")
    target = tol.quad_abs
    pref = alpha / math.pi
    kappa = (alpha * alpha - 2.0) ** 2 + 1.0

    if n == 0:
        w_power = (2.0 * alpha * kappa / (3.0 * math.pi * target)) ** (1.0 / 6.0)
        w_bose = theta * (math.log(1.0 / target) + 5.0)
        upper = max(10.0, 4.0 * alpha, w_power, w_bose)

        def integrand(w: float) -> float:
            if w == 0.0:
                return 2.0 * pref * theta
            x = w / (2.0 * theta)
            coth = 1.0 / math.tanh(x) if x < 350.0 else 1.0
            return pref * w * coth / _den(w, alpha)

        value, abserr = _quad_checked(integrand, upper, 0.25 * target, "f_0")
        # zero-point part of the tail, integrated analytically through W^-4
        value += pref * (0.5 / upper ** 2
                         - 0.25 * (alpha * alpha - 2.0) / upper ** 4)
        power_resid = pref * kappa / (3.0 * upper ** 6)
        bose_resid = (2.0 * pref * theta / upper ** 3) * math.exp(-upper / theta)
        total_err = abserr + power_resid + bose_resid
    else:
        w_bose = theta * (math.log(1.0 / target) + 5.0)
        upper = max(10.0, 4.0 * alpha, w_bose)

        def integrand(w: float) -> float:
            if w == 0.0:
                return 0.0
            return pref * w ** 3 * _bose_factor(w / theta) / _den(w, alpha)

        value, abserr = _quad_checked(integrand, upper, 0.25 * target, "f_2")
        bose_resid = (2.0 * pref * theta / upper) * math.exp(-upper / theta)
        total_err = abserr + bose_resid

    if total_err > target:
        raise ConvergenceError(
            f"f_{n} error estimate {total_err:g} exceeds the requested {target:g}",
            achieved=total_err, requested=target)
    return value, total_err


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
