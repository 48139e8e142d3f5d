"""Frequency-sum thermodynamics: damping kernels, the two energy prescriptions,
tail-accelerated summation, and finite-difference specific heat.

In hbar = k_B = 1 units the internal energy of a dissipative oscillator is

    E = (1/beta) * [1 + sum_{n>=1} (2 w0^2 + nu gh(nu) - P nu^2 gh'(nu))
                                   / (nu^2 + nu gh(nu) + w0^2)],

with nu = 2 pi n / beta, gh the Laplace-transformed damping kernel, and P = 1
for the partition-function prescription (-d ln Z / d beta) or P = 0 for the
direct system-energy expectation.  At w0 = 0 the prefactor becomes 1/(2 beta)
and the sum doubles (one surviving degree of freedom).

Strictly ohmic damping (gh = gamma) makes the summand fall off only like
gamma/nu, so the absolute energy carries a logarithmically cutoff-dependent
constant.  energy_sum removes it by subtracting gamma/nu term by term and
restoring the temperature-dependent remainder of a sharp frequency cutoff
analytically:

    E = pref * (1 + sum_reg) + (gamma / 2 pi) * (euler_gamma + ln(beta w_ref / 2 pi)),

where w_ref is w0 (oscillator) or gamma (free particle).  Only differences and
temperature derivatives of such a regularized value are physical; the result
is flagged so callers cannot mistake it for an absolute energy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (ConvergenceError, DEFAULT_TOL, DivergenceError, DomainError,
                   Tolerances, check_nonnegative, check_positive)
from .specfun import trigamma

EULER_GAMMA = 0.5772156649015328606065121
TWO_PI = 2.0 * math.pi

_FIRST_BLOCK = 1024


class Prescription(enum.Enum):
    """Which thermodynamic definition of the oscillator energy is summed."""

    ENERGY = "energy"          # direct expectation of the system Hamiltonian
    PARTITION = "partition"    # -d ln Z / d beta of the reduced partition function


@dataclass(frozen=True)
class DampingKernel:
    """Laplace-space damping kernel gh(z); omega_d = inf means strictly ohmic."""

    gamma: float
    omega_d: float = math.inf

    def __post_init__(self):
        check_nonnegative("gamma", self.gamma)
        if self.omega_d <= 0.0 or math.isnan(self.omega_d):
            raise DomainError(f"omega_d must be positive, got {self.omega_d!r}")

    @classmethod
    def ohmic(cls, gamma: float) -> "DampingKernel":
        return cls(gamma=gamma, omega_d=math.inf)

    @classmethod
    def drude(cls, gamma: float, omega_d: float) -> "DampingKernel":
        if not math.isfinite(omega_d):
            raise DomainError("a Drude kernel needs a finite omega_d; use ohmic()")
        return cls(gamma=gamma, omega_d=omega_d)

    @property
    def is_ohmic(self) -> bool:
        return self.omega_d == math.inf

    def laplace(self, z):
        """Return (gh(z), gh'(z)); works elementwise on scalars or arrays."""
        if self.is_ohmic:
            return 0.0 * z + self.gamma, 0.0 * z
        q = self.gamma * self.omega_d
        d = z + self.omega_d
        return q / d, -q / (d * d)


@dataclass(frozen=True)
class SumResult:
    """A converged frequency sum with an a posteriori tail bound.

    tail_bound is a deliberately conservative estimate of the remaining
    truncation error (successive-refinement difference, which overshoots the
    true residual of the accelerated estimate).  regularized marks values
    that are only defined up to a temperature-independent constant.
    """

    value: float
    terms_used: int
    tail_bound: float
    route: Prescription
    regularized: bool = False


def _power_tails(n_last: int) -> tuple[float, float, float]:
    # sum_{n>N} n^-s for s = 2, 3, 4; s = 2 exactly via trigamma, the others
    # from the a = N+1 asymptotic series, good to O(a^-6)
    a = float(n_last + 1)
    s2 = trigamma(a).real
    s3 = 0.5 / a ** 2 + 0.5 / a ** 3 + 0.25 / a ** 4
    s4 = (1.0 / 3.0) / a ** 3 + 0.5 / a ** 4 + (1.0 / 3.0) / a ** 5
    return s2, s3, s4


def _tail_fit(summand: Callable, n_last: int) -> float:
    """Extrapolate sum_{n>n_last} summand(n) for summands with c/n^2 tails.

    Fits n^2 summand(n) = c + d/n + e/n^2 at n_last, ~n_last/1.5, n_last/2
    (rescaled to v = n_last/n for conditioning) and integrates the model with
    exact power-law tail sums.
    """
    m = np.array([n_last, int(round(n_last / 1.5)), n_last // 2], dtype=float)
    y = m * m * summand(m)
    v = n_last / m
    coeff = np.linalg.solve(np.vstack([np.ones(3), v, v * v]).T, y)
    c, d_hat, e_hat = (float(x) for x in coeff)
    s2, s3, s4 = _power_tails(n_last)
    return c * s2 + d_hat * n_last * s3 + e_hat * n_last * n_last * s4


def _accelerated_sum(summand: Callable, rel_tol: float, max_terms: int,
                     scale_hint: float = 0.0) -> tuple[float, int, float]:
    """Sum summand(n) over n >= 1 to a relative tail target.

    Doubles the truncation point per round, correcting each partial sum with
    the fitted tail; converged when two successive corrected estimates agree.
    scale_hint widens the relative-tolerance denominator for sums that enter
    a larger expression (for example a sum that gets added to 1).
    """
    partials: list[float] = []
    n_done = 0
    block = _FIRST_BLOCK
    prev = None
    err = math.inf
    while True:
        if n_done + block > max_terms:
            raise ConvergenceError(
                f"frequency sum exceeded {max_terms} terms without meeting "
                f"the relative tail target {rel_tol:g}",
                achieved=err, requested=rel_tol)
        n = np.arange(n_done + 1, n_done + block + 1, dtype=float)
        partials.append(float(np.sum(summand(n))))
        n_done += block
        estimate = math.fsum(partials) + _tail_fit(summand, n_done)
        if prev is not None:
            err = abs(estimate - prev)
            if err <= rel_tol * max(abs(estimate), scale_hint, 1e-300):
                return estimate, n_done, err
        prev = estimate
        block = n_done


def energy_sum(omega0: float, kernel: DampingKernel, beta: float,
               route: Prescription, tol: Tolerances = DEFAULT_TOL, *,
               regularized: bool = True, max_terms: int = 10 ** 8) -> SumResult:
    """Internal energy from the frequency sum, under either prescription.

    omega0 = 0 selects the free particle.  For a strictly ohmic kernel with
    gamma > 0 the absolute energy diverges; with regularized=True (default)
    the cutoff-regularized value described in the module docstring is
    returned and flagged, otherwise DivergenceError is raised.
    """
    check_nonnegative("omega0", omega0)
    check_positive("beta", beta)
    if not isinstance(route, Prescription):
        raise DomainError(f"route must be a Prescription, got {route!r}")

    g0 = kernel.gamma
    needs_reg = kernel.is_ohmic and g0 > 0.0
    if needs_reg and not regularized:
        raise DivergenceError(
            "the absolute internal energy diverges logarithmically for a "
            "strictly ohmic kernel; request the regularized value and use "
            "only temperature differences or derivatives of it")

    nu_scale = TWO_PI / beta
    w2 = omega0 * omega0
    part = route is Prescription.PARTITION

    if needs_reg:
        # gamma/nu already subtracted in closed form, so no cancellation;
        # gh' = 0 makes both prescriptions identical here
        if omega0 > 0.0:
            def summand(n):
                nu = nu_scale * n
                return ((2.0 * w2 - g0 * g0) * nu - g0 * w2) / (
                    nu * (nu * nu + g0 * nu + w2))
        else:
            def summand(n):
                nu = nu_scale * n
                return -2.0 * g0 * g0 / (nu * (nu + g0))
    elif omega0 > 0.0:
        def summand(n):
            nu = nu_scale * n
            gh, ghp = kernel.laplace(nu)
            num = 2.0 * w2 + nu * gh
            if part:
                num = num - nu * nu * ghp
            return num / (nu * nu + nu * gh + w2)
    else:
        def summand(n):
            nu = nu_scale * n
            gh, ghp = kernel.laplace(nu)
            num = nu * gh
            if part:
                num = num - nu * nu * ghp
            return 2.0 * num / (nu * nu + nu * gh)

    pref = 1.0 / beta if omega0 > 0.0 else 0.5 / beta
    est, terms, err = _accelerated_sum(summand, tol.rel_sum_tail, max_terms,
                                       scale_hint=1.0)
    value = pref * (1.0 + est)
    if needs_reg:
        w_ref = omega0 if omega0 > 0.0 else g0
        value += (g0 / TWO_PI) * (EULER_GAMMA + math.log(beta * w_ref / TWO_PI))
    return SumResult(value=value, terms_used=terms, tail_bound=pref * err,
                     route=route, regularized=needs_reg)


def prescription_gap(omega0: float, kernel: DampingKernel, beta: float,
                     tol: Tolerances = DEFAULT_TOL, *,
                     max_terms: int = 10 ** 8) -> SumResult:
    """Partition-route energy minus direct-route energy, summed directly.

    The difference isolates the gh' term, so it converges absolutely even
    when the individual energies need regularization.  Identically zero for
    any strictly ohmic kernel (gh' = 0), returned without summing.
    """
    check_nonnegative("omega0", omega0)
    check_positive("beta", beta)
    if kernel.is_ohmic:
        return SumResult(value=0.0, terms_used=0, tail_bound=0.0,
                         route=Prescription.PARTITION)
    nu_scale = TWO_PI / beta
    w2 = omega0 * omega0

    def summand(n):
        nu = nu_scale * n
        gh, ghp = kernel.laplace(nu)
        return (-nu * nu * ghp) / (nu * nu + nu * gh + w2)

    est, terms, err = _accelerated_sum(summand, tol.rel_sum_tail, max_terms)
    pref = 1.0 / beta
    return SumResult(value=pref * est, terms_used=terms, tail_bound=pref * err,
                     route=Prescription.PARTITION)


def position_variance_sum(theta: float, alpha: float,
                          tol: Tolerances = DEFAULT_TOL, *,
                          max_terms: int = 10 ** 8) -> SumResult:
    """<q^2> of the ohmically damped oscillator in reduced units.

    theta * (1 + 2 sum_{n>=1} 1/(nu_n^2 + alpha nu_n + 1)), nu_n = 2 pi n theta.
    Serves as the frequency-sum counterpart of the spectral-integral moment.
    """
    check_positive("theta", theta)
    check_nonnegative("alpha", alpha)
    nu_scale = TWO_PI * theta

    def summand(n):
        nu = nu_scale * n
        return 1.0 / (nu * nu + alpha * nu + 1.0)

    est, terms, err = _accelerated_sum(summand, tol.rel_sum_tail, max_terms,
                                       scale_hint=1.0)
    return SumResult(value=theta * (1.0 + 2.0 * est), terms_used=terms,
                     tail_bound=2.0 * theta * err, route=Prescription.ENERGY)


@dataclass(frozen=True)
class FdResult:
    """Central-difference specific heat with a step-halving error estimate."""

    value: float
    error_estimate: float
    step: float


def specific_heat_fd(energy_evaluator: Callable[[float], float], theta: float,
                     rel_step: float | None = None) -> FdResult:
    """C = dE/dT by symmetric finite difference in the reduced temperature.

    energy_evaluator maps theta to an internal energy; an additive constant
    in it (a regularized energy, say) drops out exactly.  The error estimate
    compares against a half-step evaluation, which bounds the h^2 truncation
    error of the reported value to leading order.
    """
    if rel_step is None:
        rel_step = DEFAULT_TOL.fd_step
    check_positive("theta", theta)
    if not (0.0 < rel_step < 0.5):
        raise DomainError(f"rel_step must lie in (0, 0.5), got {rel_step!r}")

    def slope(h: float) -> float:
        e_hi = float(energy_evaluator(theta * (1.0 + h)))
        e_lo = float(energy_evaluator(theta * (1.0 - h)))
        if not (math.isfinite(e_hi) and math.isfinite(e_lo)):
            raise DomainError(
                f"energy evaluator returned a non-finite value near theta={theta!r}")
        return (e_hi - e_lo) / (2.0 * theta * h)

    c_full = slope(rel_step)
    c_half = slope(0.5 * rel_step)
    return FdResult(value=c_full,
                    error_estimate=(4.0 / 3.0) * abs(c_full - c_half),
                    step=rel_step)
