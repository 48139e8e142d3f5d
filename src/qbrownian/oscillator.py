"""Closed-form thermodynamics of the quantum harmonic oscillator, damped and not.

Reduced units throughout: temperature theta = k_B T / (hbar omega0), damping
ratio alpha = gamma / omega0, energies in hbar omega0, entropy and specific
heat in k_B.  The damped closed forms hold for strictly ohmic (memoryless)
damping and are assembled from the characteristic pair

    lam_pm = (1 / (2 pi theta)) * (alpha/2 +- sqrt((alpha/2)^2 - 1)),

a complex-conjugate pair below critical damping (alpha < 2) and a real pair
from it up, whose small root lam_- is taken from the product lam_+ lam_- =
(2 pi theta)^-2 above alpha = 2, where the difference would cancel; each
form takes the pair from the private _lambda_pm, as Python complex numbers
or complex arrays below alpha = 2 and as floats or float64 arrays from it
up, so that a real pair's kernels run in real arithmetic.  Below alpha = 2
each form evaluates its kernel once per pair, at lam_+, and takes lam_-'s
term as the conjugate of lam_+'s: the kernels map conjugate arguments to
exactly conjugate values, so that term has the bits that a second
evaluation would give.  At alpha = 2 the two roots are one real number,
evaluated once.  The two
specific-heat routes, differentiating the internal energy and the entropy,
are one sum term by term (g'(z) = -z psi'(1 + z)), so one closed form serves
both: damped_specific_heat_via_entropy returns damped_specific_heat.
Each form is a sum of h(lam) or G(lam) (specfun), whose terms are O(theta)
where the results are, so each refuses (ConvergenceError) only where lam is
not finite or, at small alpha, where Re lam is small, its roundoff does.

Every function here takes theta as a float or as an ndarray of temperatures
(alpha stays a float) and returns floats or arrays to match.
"""

from __future__ import annotations

import cmath
import math
import sys

from .core import (TWO_PI, DomainError, ThermoPoint, check_nonnegative,
                   checked_real, elementwise, gridwise, where)
from .specfun import _G, _h


@gridwise
def undamped_thermo(theta) -> ThermoPoint:
    """Textbook single-oscillator Z, E, S, C at reduced temperature theta.

    In x = 1/theta and g = 1 - e^-x = -expm1(-x) every exponential is taken at
    -x <= 0, where none overflows: Z = e^(-x/2)/g, E = 1/2 + e^-x/g,
    C = (x e^(-x/2)/g)^2 and S = x e^-x/g - ln g, with ln g = log1p(-e^-x)
    from x = 1 on.  Wherever one is a normal double it is within a few x eps,
    the error that rounding x leaves in e^-x.
    """
    f = elementwise(theta)
    # 1/theta overflows below theta ~ 5.6e-309, and x e^-x would be inf * 0
    x = 1.0 / theta
    x = where(x < math.inf, x, sys.float_info.max)
    g, em, half = -f.expm1(-x), f.exp(-x), f.exp(-0.5 * x)
    # log1p(-e^-x) at 0 where it is not taken: e^-x rounds to 1 below x ~ 1e-16
    hot = x < 1.0
    log_g = where(hot, f.log(g), f.log1p(-where(hot, 0.0, em)))
    # x e^-x/g from C's root, in one rounding where it is subnormal
    root_c = x * half / g
    return ThermoPoint(Z=half / g, E=0.5 + em / g, S=root_c * half - log_g,
                       C=root_c * root_c)


def _lambda_pm(theta, alpha: float):
    # (lam_+, lam_-, alpha), the damped forms' arguments for a checked theta,
    # with alpha checked and taken as a double
    alpha = check_nonnegative("alpha", alpha)
    scale = 1.0 / (TWO_PI * theta)
    half = alpha / 2.0
    square = half * half
    if square == math.inf:
        raise DomainError(f"alpha is too large: (alpha/2)^2 overflows double "
                          f"precision, got alpha={alpha!r}")
    # a real pair from alpha = 2 up, whose kernels then run in real arithmetic
    root = (math.sqrt(square - 1.0) if square >= 1.0
            else cmath.sqrt(complex(square - 1.0, 0.0)))
    # lam_- = scale^2 / lam_+ above alpha = 2; scale times a factor, as lam_+
    # is, so that a grid has the bits of its float calls
    lam_minus = scale * (half - root if alpha <= 2.0 else 1.0 / (half + root))
    return scale * (half + root), lam_minus, alpha


@gridwise
def damped_specific_heat(theta, alpha: float) -> ThermoPoint:
    """Specific heat of the ohmically damped oscillator, internal-energy route.

    C/k_B = h(lam_+) + h(lam_-) = 1 - a + sum lam^2 psi'(1 + lam), as
    lam_+ + lam_- = a = alpha / (2 pi theta).  At alpha = 0 the real part
    of an imaginary pair's series is exactly 0: the undamped form answers.
    """
    lam_plus, lam_minus, alpha = _lambda_pm(theta, alpha)
    if alpha == 0.0:
        return ThermoPoint(C=undamped_thermo(theta).C)
    h_plus = _h(lam_plus)
    h_minus = h_plus.conjugate() if alpha <= 2.0 else _h(lam_minus)
    heat = checked_real(h_plus + h_minus, abs(h_plus) + abs(h_minus), "specific heat",
                        theta=theta, alpha=alpha)
    return ThermoPoint(C=heat)


@gridwise
def damped_entropy(theta, alpha: float) -> ThermoPoint:
    """Entropy of the ohmically damped oscillator.

    S/k_B = G(lam_+) + G(lam_-) = 1 + ln theta + a + g(lam_+) + g(lam_-), as
    lam_+ lam_- = (2 pi theta)^-2.  Vanishes for theta -> 0 at any damping,
    with leading slope (pi/3) alpha; at alpha = 0 as for C.
    """
    lam_plus, lam_minus, alpha = _lambda_pm(theta, alpha)
    if alpha == 0.0:
        return ThermoPoint(S=undamped_thermo(theta).S)
    g_plus, size_plus = _G(lam_plus)
    g_minus, size_minus = ((g_plus.conjugate(), size_plus) if alpha <= 2.0
                           else _G(lam_minus))
    entropy = checked_real(g_plus + g_minus, size_plus + size_minus, "entropy",
                           theta=theta, alpha=alpha)
    return ThermoPoint(S=entropy)


def damped_specific_heat_via_entropy(theta, alpha: float) -> ThermoPoint:
    """An alias that returns damped_specific_heat(theta, alpha).

    The entropy route is the energy route term by term (module docstring),
    so it has no formula of its own; the alias stays while the benchmark's
    route_crosscheck workload calls it.
    """
    return damped_specific_heat(theta, alpha)


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
    if kind not in _EXPANSION_KINDS:
        raise DomainError(f"kind must be one of {_EXPANSION_KINDS}, got {kind!r}")
    if kind == "undamped_lowT":
        x = 1.0 / theta
        x = where(x < math.inf, x, sys.float_info.max)
        term = x * elementwise(theta).exp(-0.5 * x)
        return term * term
    if kind == "undamped_highT":
        return 1.0 - 1.0 / (12.0 * theta * theta)
    alpha = check_nonnegative("alpha", alpha)
    if alpha == 0.0:
        raise DomainError("damped expansions need alpha > 0")
    if kind == "damped_lowT":
        t1 = (math.pi / 3.0) * alpha * theta
        t3 = (4.0 * math.pi ** 3 / 15.0) * alpha * (3.0 - alpha * alpha) * theta ** 3
        return t1 + t3
    t1 = alpha / (TWO_PI * theta)
    t2 = (alpha * alpha - 2.0) / (24.0 * theta * theta)
    return 1.0 - t1 + t2
