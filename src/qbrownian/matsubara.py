"""Frequency-sum thermodynamics: damping kernels, the two energy prescriptions,
the sums in pole form, tail-accelerated summation, and finite-difference
specific heat.

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

Every summand above is a rational function R(nu) = P(nu)/Q(nu) with
deg Q >= deg P + 2.  For a Drude kernel gh = gamma wd/(nu + wd), Q is a cubic
(oscillator) or a quadratic (free particle), times (nu + wd) on the partition
route; the regularized ohmic summands carry a pole at nu = 0.  Summed over
nu_n = s n, s = 2 pi / beta, with poles p_i and residues r_i,

    sum_{n>=1} R(s n) = -(1/s) sum_i r_i psi(1 - p_i/s).

PoleSum evaluates E this way, and C = dE/dT through psi', at a cost that does
not depend on the temperature; near-coincident poles are summed in confluent
form with higher polygamma functions.  energy_sum adds the terms one by one,
at a cost growing like beta, and stays as the independent cross-check.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DEFAULT_TOL, EPS, TWO_PI, ConvergenceError, DomainError,
                   Estimate, Tolerances, check_nonnegative, check_positive,
                   checked_real, elementwise, gridwise)
from .specfun import _polygamma, trigamma

EULER_GAMMA = 0.5772156649015328606065121

_FIRST_BLOCK = 1024
_CHUNK = 1 << 16          # terms evaluated per numpy call, bounding memory

# grouping of near-coincident poles in PoleSum (see _group_poles)
_CLUSTER_REL = 0.1
_CLUSTER_RATIO = 0.1
_MAX_TAYLOR = 24


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

    @property
    def regularized(self) -> bool:
        """Strictly ohmic with gamma > 0: the energy needs regularization."""
        return self.is_ohmic and self.gamma > 0.0

    def laplace(self, z):
        """Return (gh(z), gh'(z)); works elementwise on scalars or arrays."""
        if self.is_ohmic:
            return 0.0 * z + self.gamma, 0.0 * z
        q = self.gamma * self.omega_d
        d = z + self.omega_d
        return q / d, -q / (d * d)


def _regularization(gamma: float, beta, w_ref: float):
    """The ohmic energy's restored cutoff remainder; see the module docstring."""
    log = elementwise(beta).log
    return (gamma / TWO_PI) * (EULER_GAMMA + log(beta * w_ref / TWO_PI))


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
        # one chunk per block up to _CHUNK terms, so short sums round as
        # whole-block sums and long ones never hold more than a chunk
        for start in range(n_done, n_done + block, _CHUNK):
            n = np.arange(start + 1, min(start + _CHUNK, n_done + block) + 1,
                          dtype=float)
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
               max_terms: int = 10 ** 8) -> Estimate:
    """Internal energy from the frequency sum, under either prescription.

    omega0 = 0 selects the free particle.  For a regularized kernel (strictly
    ohmic, gamma > 0) the absolute energy diverges, so the cutoff-regularized
    value described in the module docstring is returned and flagged.  err is
    the difference of the last two refinements, a deliberately conservative
    bound that overshoots the true residual of the accelerated estimate.
    """
    check_nonnegative("omega0", omega0)
    check_positive("beta", beta)
    if not isinstance(route, Prescription):
        raise DomainError(f"route must be a Prescription, got {route!r}")

    g0 = kernel.gamma
    nu_scale = TWO_PI / beta
    w2 = omega0 * omega0
    part = route is Prescription.PARTITION

    if kernel.regularized:
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
    if kernel.regularized:
        value += _regularization(g0, beta, omega0 if omega0 > 0.0 else g0)
    return Estimate(value=value, err=pref * err, terms_used=terms,
                    regularized=kernel.regularized)


def _summand_fractions(omega0: float, kernel: DampingKernel, route: Prescription):
    """energy_sum's summand as P(nu) / (D(nu) prod_j (nu - fixed_j)).

    Returns (P, D, fixed): coefficient lists, highest power first, of the
    numerator and of a monic denominator factor whose roots still have to be
    found, plus the roots known exactly.  In every case the denominator's
    degree exceeds the numerator's by at least two.
    """
    g, w2 = kernel.gamma, omega0 * omega0
    if g == 0.0:
        # zero coupling: the bare oscillator, or a free particle with no sum
        return ([2.0 * w2], [1.0, 0.0, w2], []) if omega0 > 0.0 else ([], [1.0], [])
    if kernel.regularized:
        # the regularized summands of energy_sum, with their pole at nu = 0
        if omega0 > 0.0:
            return [2.0 * w2 - g * g, -g * w2], [1.0, g, w2], [0.0]
        return [-2.0 * g * g], [1.0], [0.0, -g]
    wd = kernel.omega_d
    q = g * wd
    part = route is Prescription.PARTITION
    # multiplying through by (nu + wd), twice for the partition route's gh'
    if omega0 > 0.0:
        cubic = [1.0, wd, w2 + q, w2 * wd]
        if part:
            numerator = [2.0 * (w2 + q), wd * (4.0 * w2 + q), 2.0 * w2 * wd * wd]
            return numerator, cubic, [-wd]
        return [2.0 * w2 + q, 2.0 * w2 * wd], cubic, []
    quadratic = [1.0, wd, q]
    if part:
        return [4.0 * q, 2.0 * q * wd], quadratic, [-wd]
    return [2.0 * q], quadratic, []


def _conjugate_roots(coeffs) -> list[complex]:
    """Roots of a real polynomial, complex ones in exactly conjugate pairs."""
    if len(coeffs) < 2:
        return []
    found = np.roots(np.array(coeffs, dtype=float))
    upper = [complex(p) for p in found if p.imag > 0.0]
    roots = ([complex(p.real, 0.0) for p in found if p.imag == 0.0]
             + upper + [p.conjugate() for p in upper])
    if len(roots) != len(coeffs) - 1 or not all(
            math.isfinite(p.real) and math.isfinite(p.imag) for p in roots):
        raise DomainError(
            f"no finite conjugate-paired roots for coefficients {coeffs!r}")
    return roots


def _group_poles(poles: list[complex]) -> list[list[complex]]:
    """Partition poles into clusters that are summed in confluent form.

    Two poles closer than _CLUSTER_REL times the smaller of their magnitudes
    share a cluster, and a cluster absorbs its nearest pole while its radius
    exceeds _CLUSTER_RATIO times the distance to it, so that the Taylor
    series about each center converges fast.
    """
    groups = [[p] for p in poles]

    def close(p, q):
        return abs(p - q) <= _CLUSTER_REL * min(abs(p), abs(q))

    def center(group):
        return sum(group) / len(group)

    def radius(group):
        c = center(group)
        return max(abs(p - c) for p in group)

    merged = True
    while merged and len(groups) > 1:
        merged = False
        for i, j in itertools.combinations(range(len(groups)), 2):
            a, b = groups[i], groups[j]
            if (any(close(p, q) for p in a for q in b)
                    or radius(a) > _CLUSTER_RATIO * min(abs(center(a) - q) for q in b)
                    or radius(b) > _CLUSTER_RATIO * min(abs(center(b) - p) for p in a)):
                groups[i] = a + groups.pop(j)
                merged = True
                break
    return groups


def _series_product(a: list, b: list, order: int) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)
                if i < len(a) and k - i < len(b))
            for k in range(order + 1)]


@dataclass(frozen=True)
class _Cluster:
    """m poles near center: their share of the sum as a divided difference.

    With h(nu) the summand times the product of (nu - p) over the cluster's
    poles, the cluster contributes the divided difference (h f)[p_1..p_m] of
    h times the psi function f of the pole formula.  Expanded about the
    center, that is sum_k phi_k H_{k-m+1}(d), with phi the Taylor
    coefficients of h f and H the complete homogeneous symmetric polynomials
    of the offsets d = p - center.  A single pole (m = 1, one term) is its
    residue times f.
    """

    center: complex
    weight: float               # 2 for a complex pole standing in for its conjugate
    size: int
    h: tuple[complex, ...]      # Taylor coefficients of h, orders 0..size-1+K
    homog: tuple[complex, ...]  # H_0..H_K of the offsets

    @classmethod
    def build(cls, poles: list[complex], numerator, others: list[complex],
              weight: float) -> "_Cluster":
        m = len(poles)
        c = sum(poles) / m if m > 1 else poles[0]
        offsets = [p - c for p in poles]
        rho = max(abs(d) for d in offsets)
        # the psi factor is singular at nu = s > 0, at least |c| away
        sigma = min([abs(c)] + [abs(c - q) for q in others])
        order = 0
        if rho > 0.0:
            ratio = rho / sigma
            order = min(_MAX_TAYLOR, math.ceil(math.log(EPS) / math.log(ratio)))
        top = m - 1 + order
        # Taylor coefficients of P about c by repeated synthetic division
        p_coef, rest = [], list(numerator)
        for _ in range(top + 1):
            acc, quotient = 0.0 + 0.0j, []
            for coef in rest:
                acc = acc * c + coef
                quotient.append(acc)
            p_coef.append(quotient.pop() if quotient else 0.0j)
            rest = quotient
        h = p_coef
        for q in others:
            a = c - q       # 1 / (a + x) = sum_k (-x)^k / a^(k+1)
            h = _series_product(h, [(-1.0) ** k / a ** (k + 1)
                                    for k in range(top + 1)], top)
        homog = [1.0 + 0.0j] + [0.0j] * order
        for d in offsets:
            homog = _series_product(homog, [d ** k for k in range(order + 1)], order)
        return cls(center=c, weight=weight, size=m, h=tuple(h), homog=tuple(homog))

    def value(self, s, heat: bool):
        """The cluster's share of S (heat=False) or of C's sum (heat=True).

        S uses f(nu) = -psi(1 - nu/s)/s, C uses f(nu) = -(nu/s^2) psi'(1 - nu/s).
        s is a float or an array; the share is a complex or a complex array.
        """
        top = len(self.h) - 1
        u = 1.0 - self.center / s
        step = -1.0 / s
        # Taylor coefficients in x = nu - center of psi^(j)(1 - nu/s), j = 0|1
        base = 1 if heat else 0
        psi = [_polygamma(base + k, u) * step ** k / math.factorial(k)
               for k in range(top + 1)]
        if heat:
            f = [-(self.center * psi[k] + (psi[k - 1] if k else 0.0)) / (s * s)
                 for k in range(top + 1)]
        else:
            f = [x * step for x in psi]
        total = 0.0 + 0.0j
        for k in range(self.size - 1, top + 1):
            phi = sum(self.h[k - j] * f[j] for j in range(k + 1))
            total += phi * self.homog[k - self.size + 1]
        return total


class PoleSum:
    """energy_sum in closed form: the frequency sum as psi at its poles.

    Every summand R(nu) of energy_sum is rational with deg Q >= deg P + 2, so
    with poles p_i, residues r_i and s = 2 pi theta,

        sum_{n>=1} R(s n) = -(1/s) sum_i r_i psi(1 - p_i/s),

    and E = c theta (1 + that sum) plus the same regularization constant as
    energy_sum, with c = 1 for the oscillator and 1/2 for the free particle.
    Its theta derivative needs psi' only:

        C = dE/dtheta = c (1 - sum_i r_i (p_i/s^2) psi'(1 - p_i/s))
                        - gamma / (2 pi theta)  [regularized only].

    Poles and residues are computed once per (omega0, kernel, route); each
    theta then costs a few psi evaluations, independent of theta.  Near
    coincident poles (critical damping, the free particle's r = 4, the Drude
    oscillator's triple root) are summed in confluent form, so E and C stay
    continuous through every degeneracy.  theta is k_B T in the units of
    omega0 and the kernel's rates, i.e. theta = 1 / beta; energy and heat take
    it as a float or as an ndarray of temperatures, evaluated in one pass.
    """

    def __init__(self, omega0: float, kernel: DampingKernel, route: Prescription):
        check_nonnegative("omega0", omega0)
        if not isinstance(route, Prescription):
            raise DomainError(f"route must be a Prescription, got {route!r}")
        # a strictly ohmic kernel's energy is energy_sum's regularized value
        self.regularized = kernel.regularized
        numerator, core, fixed = _summand_fractions(omega0, kernel, route)
        if not all(math.isfinite(c) for c in numerator + core + fixed):
            raise DomainError("the summand's coefficients overflow double "
                              f"precision at omega0={omega0!r}, kernel={kernel!r}")
        self._gamma = kernel.gamma
        self._w_ref = omega0 if omega0 > 0.0 else kernel.gamma
        self._dof = 1.0 if omega0 > 0.0 else 0.5
        poles = _conjugate_roots(core) + [complex(p) for p in fixed]
        self._clusters = []
        for group in _group_poles(poles):
            c = sum(group) / len(group)
            if c.imag < 0.0:
                continue    # summed through its conjugate partner
            others = [p for p in poles if p not in group]
            self._clusters.append(_Cluster.build(
                group, numerator, others, 2.0 if c.imag > 0.0 else 1.0))

    def _sum(self, theta, heat: bool):
        s = TWO_PI * theta
        # zeros shaped like theta, so a kernel without poles still gives arrays
        total = magnitude = 0.0 * s
        for cluster in self._clusters:
            part = cluster.weight * cluster.value(s, heat)
            total = total + part.real
            magnitude = magnitude + abs(part)
        return total, magnitude

    @gridwise
    def energy(self, theta):
        """Internal energy at theta; regularized like energy_sum's value."""
        check_positive("theta", theta)
        total, _ = self._sum(theta, heat=False)
        value = self._dof * theta * (1.0 + total)
        if self.regularized:
            value += _regularization(self._gamma, 1.0 / theta, self._w_ref)
        return value

    @gridwise
    def heat(self, theta):
        """Specific heat dE/dtheta, exact; ConvergenceError if cancellation ate it.

        At low theta the terms grow like 1/theta while C falls like theta, so
        C keeps about -log10(eps / theta^2) digits and fails below theta ~ 1e-5.
        """
        check_positive("theta", theta)
        total, magnitude = self._sum(theta, heat=True)
        value = self._dof * (1.0 + total)
        magnitude = self._dof * (1.0 + magnitude)
        if self.regularized:
            tail = self._gamma / (TWO_PI * theta)
            value -= tail
            magnitude += tail
        return checked_real(value, magnitude, "specific heat", theta=theta)


def prescription_gap(omega0: float, kernel: DampingKernel, beta: float,
                     tol: Tolerances = DEFAULT_TOL, *,
                     max_terms: int = 10 ** 8) -> Estimate:
    """Partition-route energy minus direct-route energy, summed directly.

    The difference isolates the gh' term, so it converges absolutely even
    when the individual energies need regularization.  Identically zero for
    any strictly ohmic kernel (gh' = 0), returned without summing.
    """
    check_nonnegative("omega0", omega0)
    check_positive("beta", beta)
    if kernel.is_ohmic:
        return Estimate(value=0.0, err=0.0)
    nu_scale = TWO_PI / beta
    w2 = omega0 * omega0

    def summand(n):
        nu = nu_scale * n
        gh, ghp = kernel.laplace(nu)
        return (-nu * nu * ghp) / (nu * nu + nu * gh + w2)

    est, terms, err = _accelerated_sum(summand, tol.rel_sum_tail, max_terms)
    pref = 1.0 / beta
    return Estimate(value=pref * est, err=pref * err, terms_used=terms)


def position_variance_sum(theta: float, alpha: float,
                          tol: Tolerances = DEFAULT_TOL, *,
                          max_terms: int = 10 ** 8) -> Estimate:
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
    return Estimate(value=theta * (1.0 + 2.0 * est), err=2.0 * theta * err,
                    terms_used=terms)


def specific_heat_fd(energy_evaluator: Callable[[float], float], theta: float,
                     rel_step: float = 1e-5) -> Estimate:
    """C = dE/dT by symmetric finite difference in the reduced temperature.

    energy_evaluator maps theta to an internal energy; an additive constant
    in it (a regularized energy, say) drops out exactly.  The error bar
    compares against a half-step evaluation, which bounds the h^2 truncation
    error of the reported value to leading order, and adds the roundoff
    max(|E(theta(1+h))|, |E(theta(1-h))|) * eps / (theta h) of the difference.
    """
    check_positive("theta", theta)
    if not (0.0 < rel_step < 0.5):
        raise DomainError(f"rel_step must lie in (0, 0.5), got {rel_step!r}")

    def slope(h: float) -> tuple[float, float]:
        e_hi = float(energy_evaluator(theta * (1.0 + h)))
        e_lo = float(energy_evaluator(theta * (1.0 - h)))
        if not (math.isfinite(e_hi) and math.isfinite(e_lo)):
            raise DomainError(
                f"energy evaluator returned a non-finite value near theta={theta!r}")
        # roundoff of the energies, amplified by the division; two identical
        # energies (a constant evaluator) difference to an exact zero
        roundoff = (0.0 if e_hi == e_lo
                    else max(abs(e_hi), abs(e_lo)) * EPS / (theta * h))
        return (e_hi - e_lo) / (2.0 * theta * h), roundoff

    c_full, roundoff = slope(rel_step)
    c_half, _ = slope(0.5 * rel_step)
    return Estimate(value=c_full,
                    err=(4.0 / 3.0) * abs(c_full - c_half) + roundoff)
