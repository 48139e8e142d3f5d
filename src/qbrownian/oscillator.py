"""Closed-form thermodynamics of the quantum harmonic oscillator, damped and not.

Reduced units throughout: temperature theta = k_B T / (hbar omega0), damping
ratio alpha = gamma / omega0, energies in hbar omega0, entropy and specific
heat in k_B.  The damped closed forms hold for strictly ohmic (memoryless)
damping and are assembled from the characteristic pair

    lambda_pm = (1 / (2 pi theta)) * (alpha/2 +- sqrt((alpha/2)^2 - 1)),

a complex-conjugate pair below critical damping (alpha < 2) and a real pair
above it.  The two specific-heat routes, differentiating the internal energy
and differentiating the entropy, are algebraically identical but are kept as
separately coded expressions so their agreement stays a meaningful check.
At low temperature their terms grow like 1/theta while the results vanish
like theta; each closed form raises ConvergenceError when that cancellation
would leave fewer than six digits, which happens below theta ~ 1e-5.

Every function here takes theta as a float or as an ndarray of temperatures
(alpha stays a float) and returns floats or arrays to match.
"""

from __future__ import annotations

import cmath
import math

from .core import (TWO_PI, DomainError, ThermoPoint, check_nonnegative,
                   check_positive, checked_real, elementwise, gridwise, where)
from .specfun import _g, _g_prime, _trigamma


@gridwise
def undamped_thermo(theta) -> ThermoPoint:
    """Textbook single-oscillator Z, E, S, C at reduced temperature theta.

    Uses expm1-based forms so the deep quantum regime (theta << 1) underflows
    gracefully to the ground state instead of losing digits.
    """
    check_positive("theta", theta)
    f = elementwise(theta)
    x = 1.0 / theta
    # beyond x = 700 each quantity is its ground-state limit; x is capped
    # there so that the branch not taken stays finite
    xw = where(x > 700.0, 700.0, x)
    # occupation 1/(e^x - 1), stable at both ends
    occupation = where(x > 700.0, f.exp(-x), 1.0 / f.expm1(xw))
    energy = 0.5 + occupation
    warm = x < 700.0
    # S = x n(x) - ln(1 - e^-x)
    entropy = where(warm, xw * occupation - f.log1p(-f.exp(-xw)), 0.0)
    # C = x^2 e^-x / (1 - e^-x)^2 written through expm1 for small x
    em = f.expm1(-xw)
    heat = where(warm, xw * xw * f.exp(-xw) / (em * em), 0.0)
    half = where(x / 2.0 < 700.0, x / 2.0, 700.0)
    partition = where(x / 2.0 < 700.0, 1.0 / (2.0 * f.sinh(half)), 0.0)
    return ThermoPoint(theta=theta, Z=partition, E=energy, S=entropy, C=heat)


@gridwise
def lambda_pm(theta, alpha: float) -> tuple[complex, complex]:
    """Characteristic pair (lam_+, lam_-); conjugate for alpha < 2, else real."""
    return _lambda_pm(theta, alpha)


def _lambda_pm(theta, alpha: float):
    # lambda_pm's body: the closed forms are gridwise themselves and call
    # this, so that a float call pays for one wrapper, not two
    check_positive("theta", theta)
    check_nonnegative("alpha", alpha)
    scale = 1.0 / (TWO_PI * theta)
    half = alpha / 2.0
    square = half * half
    if square == math.inf:
        raise DomainError(f"alpha is too large: (alpha/2)^2 overflows double "
                          f"precision, got alpha={alpha!r}")
    root = cmath.sqrt(complex(square - 1.0, 0.0))
    return scale * (half + root), scale * (half - root)


@gridwise
def damped_specific_heat(theta, alpha: float) -> ThermoPoint:
    """Specific heat of the ohmically damped oscillator, internal-energy route.

    C/k_B = 1 - a + lam_+^2 psi'(1 + lam_+) + lam_-^2 psi'(1 + lam_-) with
    a = alpha / (2 pi theta).  At alpha = 0 this reduces to the undamped
    closed form analytically; it is evaluated through the same expression so
    the reduction is a checked property, not a special case.
    """
    lam_plus, lam_minus = _lambda_pm(theta, alpha)
    a = alpha / (TWO_PI * theta)
    t_plus = lam_plus ** 2 * _trigamma(1.0 + lam_plus)
    t_minus = lam_minus ** 2 * _trigamma(1.0 + lam_minus)
    total = (1.0 - a) + t_plus + t_minus
    magnitude = 1.0 + a + abs(t_plus) + abs(t_minus)
    heat = checked_real(total, magnitude, "specific heat", theta=theta, alpha=alpha)
    return ThermoPoint(theta=theta, C=heat)


@gridwise
def damped_entropy(theta, alpha: float) -> ThermoPoint:
    """Entropy of the ohmically damped oscillator.

    S/k_B = 1 + ln theta + a + g(lam_+) + g(lam_-).  Vanishes for theta -> 0
    at any damping, with leading slope (pi/3) alpha.
    """
    lam_plus, lam_minus = _lambda_pm(theta, alpha)
    a = alpha / (TWO_PI * theta)
    log_theta = elementwise(theta).log(theta)
    g_plus, g_minus = _g(lam_plus), _g(lam_minus)
    total = (1.0 + log_theta + a) + (g_plus + g_minus)
    magnitude = 1.0 + abs(log_theta) + a + abs(g_plus) + abs(g_minus)
    entropy = checked_real(total, magnitude, "entropy", theta=theta, alpha=alpha)
    return ThermoPoint(theta=theta, S=entropy)


@gridwise
def damped_specific_heat_via_entropy(theta, alpha: float) -> ThermoPoint:
    """Specific heat obtained by differentiating the entropy instead.

    C/k_B = 1 - a - lam_+ g'(lam_+) - lam_- g'(lam_-).  Algebraically
    identical to the internal-energy route; evaluated through g' so the two
    code paths share no intermediate expression.
    """
    lam_plus, lam_minus = _lambda_pm(theta, alpha)
    a = alpha / (TWO_PI * theta)
    t_plus = lam_plus * _g_prime(lam_plus)
    t_minus = lam_minus * _g_prime(lam_minus)
    total = (1.0 - a) - t_plus - t_minus
    magnitude = 1.0 + a + abs(t_plus) + abs(t_minus)
    heat = checked_real(total, magnitude, "specific heat", theta=theta, alpha=alpha)
    return ThermoPoint(theta=theta, C=heat)


_EXPANSION_KINDS = ("undamped_lowT", "undamped_highT", "damped_lowT", "damped_highT")


@gridwise
def oscillator_expansion(kind: str, theta, alpha: float = 0.0):
    """Truncated limit expansions of C/k_B.

    undamped_lowT   theta^-2 exp(-1/theta)                      error O(e^-1/theta/theta^3)
    undamped_highT  1 - (1/12) theta^-2                         error O(theta^-4)
    damped_lowT     (pi/3) a th + (4 pi^3/15) a (3-a^2) th^3    error O(theta^5)
    damped_highT    1 - a/(2 pi th) + (a^2-2)/(24 th^2)         error O(theta^-3)

    The damped kinds take the power-law structure that any nonzero coupling
    enforces; they are meaningless at alpha = 0, where the low-temperature
    behavior is exponential instead.
    """
    check_positive("theta", theta)
    if kind not in _EXPANSION_KINDS:
        raise DomainError(f"kind must be one of {_EXPANSION_KINDS}, got {kind!r}")
    if kind == "undamped_lowT":
        x = 1.0 / theta
        xw = where(x < 700.0, x, 700.0)
        return where(x < 700.0, xw * xw * elementwise(theta).exp(-xw), 0.0)
    if kind == "undamped_highT":
        return 1.0 - 1.0 / (12.0 * theta * theta)
    check_nonnegative("alpha", alpha)
    if alpha == 0.0:
        raise DomainError("damped expansions need alpha > 0")
    if kind == "damped_lowT":
        t1 = (math.pi / 3.0) * alpha * theta
        t3 = (4.0 * math.pi ** 3 / 15.0) * alpha * (3.0 - alpha * alpha) * theta ** 3
        return t1 + t3
    t1 = alpha / (TWO_PI * theta)
    t2 = (alpha * alpha - 2.0) / (24.0 * theta * theta)
    return 1.0 - t1 + t2
