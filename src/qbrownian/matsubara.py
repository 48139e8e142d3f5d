"""Frequency-sum thermodynamics: damping kernels, the two energy prescriptions,
the sums in pole form and term by term with an exact tail, and
finite-difference specific heat.

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
not depend on the temperature; the share of a cluster of near-coincident
poles is the contour integral of R times the psi factor around it, by the
trapezoid rule on a circle.  energy_sum adds the terms one by one
up to N = 4 B beta / (2 pi), B a bound on the poles, and the rest exactly in
Hurwitz zeta form (see _summed), as the independent cross-check of PoleSum;
its kernel _energy_sum, like _prescription_gap, also sums a grid of beta.
The rest needs R's Laurent coefficients beyond the poles, R = sum_k c_k nu^-k.
They do not depend on the temperature, so each system samples R once, at 32
points of the circle |nu| = rho = 4 B, and keeps the DFT e_k = c_k rho^-k
(aliased at (B / rho)^32 = 4^-32) in its record (_system); every theta then
scales the same table by (rho / (s N))^k <= 1, and the DFT's roundoff enters
the error bar as (|e_0| + |e_1|) (rho / (s N))^2 times the sum of the tail's
weights.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (EPS, TWO_PI, ConvergenceError, DomainError, Estimate,
                   check_nonnegative, check_positive, checked_real, elementwise,
                   gridwise, where)
from .specfun import _BERNOULLI, _digamma, _trigamma

EULER_GAMMA = 0.5772156649015328606065121

_CHUNK = 1 << 16          # terms evaluated per numpy call, bounding memory
_MAX_TERMS = 10 ** 8      # cap on the head of a term-by-term sum
_REL_TAIL = 1e-12         # largest error bar of a term-by-term sum, relative

# grouping of near-coincident poles in PoleSum (see _group_poles)
_CLUSTER_REL = 0.1
_CLUSTER_RATIO = 0.1


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
        object.__setattr__(self, "gamma", check_nonnegative("gamma", self.gamma))
        # a double, so that a numpy omega_d is computed, named and keyed as one
        object.__setattr__(self, "omega_d", float(self.omega_d))
        if not self.omega_d > 0.0:
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


def _pole_bound(omega0: float, kernel: DampingKernel) -> float:
    """Fujiwara's bound on |nu| at the poles of every term-by-term summand."""
    wd = 0.0 if kernel.is_ohmic else kernel.omega_d
    g = kernel.gamma
    return 2.0 * max(wd, math.sqrt(omega0 * omega0 + g * wd), g + omega0)


_CIRCLE = 32              # samples of a summand on the circle |nu| = 4 B
_SYSTEMS_KEPT = 64        # the summed systems whose records are kept


@functools.cache
def _tail_tables():
    # built on first use, so that programs that never sum hold none: the roots
    # of unity, the DFT to e_k, the ones whose running product by a ratio
    # gives its powers 1.._CIRCLE-1, k >= 2 and B_2m/(2m)! (k)_(2m-1), m <= 8
    roots = np.exp(-2j * np.pi * np.arange(_CIRCLE) / _CIRCLE)
    dft = roots[np.outer(np.arange(_CIRCLE), np.arange(_CIRCLE)) % _CIRCLE] / _CIRCLE
    powers = np.arange(2.0, _CIRCLE)
    return roots, dft, np.ones(_CIRCLE - 1), powers, np.array([
        b2m / math.factorial(2 * m) * np.prod([powers + j for j in range(2 * m - 1)], 0)
        for m, b2m in enumerate(_BERNOULLI, start=1)])


@functools.lru_cache(maxsize=256)
def _tail_weights(head: int):
    # N^k zeta(k, N+1), k = 2.._CIRCLE-1, at N = head and their sum, read-only
    powers, euler_maclaurin = _tail_tables()[3:]
    a = head + 1.0
    # N^k zeta(k, a) = (N/a)^k [a/(k-1) + 1/2 + sum_m B_2m/(2m)! (k)_(2m-1) a^(1-2m)]
    series = (1.0 / a) * (1.0 / (a * a)) ** np.arange(len(_BERNOULLI))
    weights = (head / a) ** powers * (a / (powers - 1) + 0.5 + series @ euler_maclaurin)
    weights.flags.writeable = False
    return weights, weights.sum()


@functools.lru_cache(maxsize=_SYSTEMS_KEPT)
def _system(summand_of: Callable, *params) -> tuple:
    """What a term-by-term sum needs of a system, whatever theta is, built once.

    summand_of(*params) gives the summand and the bound on its poles.  The
    summand is rational in nu, real on the real axis and O(nu^-2), takes
    complex nu, and has its poles in |nu| <= bound; beyond them it is
    sum_{k>=2} c_k nu^-k.  The record is (summand, bound, radius, table):
    table holds e_k = c_k radius^-k, k < _CIRCLE, read-only, from a DFT of
    the summand on |nu| = radius = 4 bound (1 where bound = 0, a summand
    without poles, which is zero).
    """
    summand, bound = summand_of(*params)
    radius = 4.0 * bound if bound > 0.0 else 1.0
    roots, dft = _tail_tables()[:2]
    # at an extreme bound the circle's nu^2 overflows: a table that is not
    # finite gives a bar that is not, and every theta it serves refuses
    with np.errstate(all="ignore"):
        table = (dft @ summand(radius * roots)).real.copy()
    table.flags.writeable = False
    return summand, bound, radius, table


def _summed(system: tuple, s, theta, floor: float = 1.0):
    """(sum over n >= 1 of summand(s n), the coldest theta's terms, an error bound).

    system is a record of _system; s = 2 pi theta; theta is a float or an
    ndarray, whose type and shape the sum and the bound take.  A theta needs
    the terms up to N = 4 bound / s (64 at least).  The coldest theta left
    adds its head at every theta left that needs at least half of it, so no
    theta adds more than 2 N terms, in chunks of at most _CHUNK elements;
    beyond the poles summand(s n) = sum_{k>=2} d_k n^-k with
    d_k N^-k = e_k (radius / (s N))^k, so the rest is sum_k d_k zeta(k, N+1)
    (DLMF 25.11), with the system's table e_k (aliased at
    (bound/radius)^_CIRCLE = 4^-_CIRCLE) and zeta by Euler-Maclaurin.  Every
    theta scales the same table, since s N >= radius.  The head's length
    fixes the work; the bar only decides whether the sum answers.  It adds the four last tail terms, the head's roundoff, and the
    table's: e_0 and e_1 vanish in exact arithmetic, so what the DFT made of
    them is its roundoff in every coefficient, which the ratio's powers
    shrink by at least (radius / (s N))^2 before the weights carry it into
    the tail.  Where nu^2 overflows, numpy stays quiet: a term that is not
    finite gives a bar that is not.  ConvergenceError names the first
    failing theta in C order: where N exceeds _MAX_TERMS, before a term is
    added, and where the bound misses _REL_TAIL times max(|sum|, floor).
    """
    summand, bound, radius, table = system
    grid = isinstance(theta, np.ndarray)
    thetas, scales = (theta.ravel().tolist(), s.ravel().tolist()) if grid else ([theta], [s])
    reach = [max(64.0, 4.0 * (bound / x)) for x in scales]
    for at, needed in zip(thetas, reach):
        if not needed <= _MAX_TERMS:
            raise ConvergenceError(f"at theta={at!r}: frequency sum needs {needed:.3g} "
                                   f"> {_MAX_TERMS} terms", achieved=math.inf,
                                   requested=_REL_TAIL)
    heads = [math.ceil(needed) for needed in reach]
    totals, bars = [0.0] * len(heads), [0.0] * len(heads)
    left = list(range(len(heads)))
    with np.errstate(all="ignore"):
        while left:
            head = max(heads[i] for i in left)
            group = [i for i in left if 2 * heads[i] >= head]
            left = [i for i in left if 2 * heads[i] < head]
            # a float sums along one axis, as fast as a scalar-only body would
            rows = s.ravel()[group].reshape(-1, 1) if grid else s
            width = max(1, _CHUNK // len(group))
            partials, magnitude = [], 0.0
            for start in range(0, head, width):
                terms = summand(rows * np.arange(start + 1, min(start + width, head) + 1,
                                                 dtype=float))
                partials.append(terms.sum(axis=-1, keepdims=True))
                magnitude = magnitude + np.abs(terms).sum(axis=-1)
            # (radius / (s N))^k, k = 2.._CIRCLE-1, by running products, so
            # that a row and its float call agree to the bit; the ratio exceeds
            # 1 only for a summand without poles, whose table is zero
            ratio = radius / (rows * head)
            ratio = where(ratio < 1.0, ratio, 1.0) * _tail_tables()[2]
            scaled = np.multiply.accumulate(ratio, axis=-1)[..., 1:]
            weights, weight_sum = _tail_weights(head)
            tail = table[2:] * scaled * weights
            err = (np.abs(tail[..., -4:]).max(axis=-1)
                   + (abs(table[0]) + abs(table[1])) * scaled[..., 0] * weight_sum
                   + magnitude * EPS)
            parts = np.concatenate(partials + [tail], axis=-1).reshape(len(group), -1)
            for i, terms, bar in zip(group, parts.tolist(), err.reshape(-1).tolist()):
                totals[i], bars[i] = math.fsum(terms), bar
    for at, total, bar in zip(thetas, totals, bars):
        scale = max(abs(total), floor)
        if not bar <= _REL_TAIL * scale:
            raise ConvergenceError(
                f"at theta={at!r}: frequency sum error bar {bar:.3g} misses the "
                f"relative tail target {_REL_TAIL:g}",
                achieved=bar / scale if scale else math.inf, requested=_REL_TAIL)
    if grid:
        return np.reshape(totals, theta.shape), max(heads), np.reshape(bars, theta.shape)
    return totals[0], heads[0], bars[0]


def _energy_summand(omega0: float, kernel: DampingKernel, route: Prescription):
    # energy_sum's summand and its pole bound
    g = kernel.gamma
    w2 = omega0 * omega0
    dof = 1.0 if omega0 > 0.0 else 2.0

    # the free particle's summand is the oscillator's at omega0 = 0, doubled
    if kernel.regularized:
        # gamma/nu already subtracted in closed form, so no cancellation;
        # gh' = 0 makes both prescriptions identical here
        def summand(nu):
            return dof * ((2.0 * w2 - g * g) * nu - g * w2) / (
                nu * (nu * nu + g * nu + w2))
    else:
        def summand(nu):
            gh, ghp = kernel.laplace(nu)
            num = 2.0 * w2 + nu * gh
            if route is Prescription.PARTITION:
                num = num - nu * nu * ghp
            return dof * num / (nu * nu + nu * gh + w2)

    return summand, _pole_bound(omega0, kernel)


def _energy_sum(omega0: float, kernel: DampingKernel, beta,
                route: Prescription) -> Estimate:
    # energy_sum without its checks, on a float or an ndarray beta
    pref = 1.0 / beta if omega0 > 0.0 else 0.5 / beta
    est, terms, err = _summed(_system(_energy_summand, omega0, kernel, route),
                              TWO_PI / beta, 1.0 / beta)
    value = pref * (1.0 + est)
    if kernel.regularized:
        g = kernel.gamma
        value += _regularization(g, beta, omega0 if omega0 > 0.0 else g)
    return Estimate(value=value, err=pref * err, terms_used=terms,
                    regularized=kernel.regularized)


def energy_sum(omega0: float, kernel: DampingKernel, beta: float,
               route: Prescription) -> Estimate:
    """Internal energy from the frequency sum, under either prescription.

    omega0 = 0 selects the free particle.  For a regularized kernel (strictly
    ohmic, gamma > 0) the absolute energy diverges, so the cutoff-regularized
    value described in the module docstring is returned and flagged.  err
    bounds the exact tail's truncation and the sum's roundoff; terms_used
    counts the head's terms.  A refusal names theta = 1/beta.
    """
    omega0 = check_nonnegative("omega0", omega0)
    beta = check_positive("beta", beta)
    if not isinstance(route, Prescription):
        raise DomainError(f"route must be a Prescription, got {route!r}")
    return _energy_sum(omega0, kernel, beta, route)


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
    """Partition poles into clusters that are summed as one (see _share).

    Two poles closer than _CLUSTER_REL times the smaller of their magnitudes
    share a cluster, and a cluster absorbs its nearest pole while its radius
    exceeds _CLUSTER_RATIO times the distance to it, so that a circle about
    each center stays far from the cluster's poles and from all others.
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


def _energy_factor(nu, s):
    # E's factor in the pole formula: -psi(1 - nu/s) / s
    return _digamma(1.0 - nu / s) * (-1.0 / s)


def _heat_factor(nu, s):
    # C's factor in the pole formula: -(nu/s^2) psi'(1 - nu/s)
    return -(nu * _trigamma(1.0 - nu / s)) / (s * s)


def _share(nodes, coefficients, s, factor):
    """A pole group's share of sum_i r_i f(p_i), and the sum of |terms| added.

    A single pole is a complex node, its residue the coefficient: the share is
    r f(p).  A cluster about c carries the _CIRCLE nodes z_j of a circle about
    c and the coefficients R(z_j) (z_j - c) / _CIRCLE: the share, the sum of
    the terms R f (z - c) / _CIRCLE, is the trapezoid rule for the contour
    integral of R f around the cluster.  f is _energy_factor or _heat_factor;
    s is a float or an array of any shape, the nodes on a new leading axis.
    """
    if not isinstance(nodes, np.ndarray):
        part = coefficients * factor(nodes, s)
        return part, abs(part)
    shape = (_CIRCLE,) + (1,) * np.ndim(s)
    with np.errstate(all="ignore"):
        terms = coefficients.reshape(shape) * factor(nodes.reshape(shape), s)
        share, size = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    if isinstance(s, np.ndarray):
        return share, size
    return complex(share), float(size)


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
    oscillator's triple root) are summed together, as the integral of R
    times the psi factor around a circle enclosing them, by the trapezoid
    rule on _CIRCLE points, so E and C stay continuous through every
    degeneracy and C's check sees the cancellation among the circle's terms
    as it sees it among simple poles.  theta is k_B T in the units of
    omega0 and the kernel's rates, i.e. theta = 1 / beta; energy and heat take
    it as a float or as an ndarray of temperatures, evaluated in one pass.
    """

    def __init__(self, omega0: float, kernel: DampingKernel, route: Prescription):
        omega0 = check_nonnegative("omega0", omega0)
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
        # (nodes, coefficients) per group, weighted 2 for a complex center
        # that stands in for its conjugate: see _share
        self._groups = []
        for group in _group_poles(poles):
            c = sum(group) / len(group)
            if c.imag < 0.0:
                continue    # summed through its conjugate partner
            weight = 2.0 if c.imag > 0.0 else 1.0
            others = [p for p in poles if p not in group]
            if len(group) == 1:
                p = group[0]
                residue = 0.0j
                for coef in numerator:
                    residue = residue * p + coef
                for q in others:
                    residue = residue * (1.0 / (p - q))
                self._groups.append((p, weight * residue))
                continue
            rho = max(abs(p - c) for p in group)
            # psi's poles at nu = s, 2s, ... are at least |c| away, as Re c <= 0;
            # the rule's error is about (rho/radius)^_CIRCLE + (radius/sigma)^_CIRCLE
            sigma = min([abs(c)] + [abs(c - q) for q in others])
            z = c + max(math.sqrt(rho * sigma), 0.25 * sigma) * _tail_tables()[0]
            ratio = np.polyval(numerator, z) / np.prod([z - p for p in poles], axis=0)
            self._groups.append((z, (weight / _CIRCLE) * ratio * (z - c)))

    def _sum(self, theta, factor):
        s = TWO_PI * theta
        # zeros shaped like theta, so a kernel without poles still gives arrays
        total = magnitude = 0.0 * s
        for nodes, coefficients in self._groups:
            share, size = _share(nodes, coefficients, s, factor)
            total = total + share.real
            magnitude = magnitude + size
        return total, magnitude

    @gridwise
    def energy(self, theta):
        """Internal energy at theta; regularized like energy_sum's value."""
        total, _ = self._sum(theta, _energy_factor)
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
        # where s * s underflows, C's 1/s^2 terms have no digits left: an inf
        # magnitude refuses them, summed at theta = 1 to keep the terms finite
        s = TWO_PI * theta
        lost = s * s < sys.float_info.min
        total, magnitude = self._sum(where(lost, 1.0, theta), _heat_factor)
        value = self._dof * (1.0 + total)
        magnitude = self._dof * (1.0 + magnitude) + where(lost, math.inf, 0.0)
        if self.regularized:
            tail = self._gamma / (TWO_PI * theta)
            value -= tail
            magnitude += tail
        return checked_real(value, magnitude, "specific heat", theta=theta)


def _gap_summand(omega0: float, kernel: DampingKernel):
    # prescription_gap's summand and its pole bound
    w2 = omega0 * omega0

    def summand(nu):
        gh, ghp = kernel.laplace(nu)
        return (-nu * nu * ghp) / (nu * nu + nu * gh + w2)

    return summand, _pole_bound(omega0, kernel)


def _prescription_gap(omega0: float, kernel: DampingKernel, beta) -> Estimate:
    # prescription_gap without its checks, on a float or an ndarray beta
    if kernel.is_ohmic:
        return Estimate(value=0.0 * beta, err=0.0 * beta)
    est, terms, err = _summed(_system(_gap_summand, omega0, kernel),
                              TWO_PI / beta, 1.0 / beta, floor=0.0)
    pref = 1.0 / beta
    return Estimate(value=pref * est, err=pref * err, terms_used=terms)


def prescription_gap(omega0: float, kernel: DampingKernel, beta: float) -> Estimate:
    """Partition-route energy minus direct-route energy, summed directly.

    The difference isolates the gh' term, so it converges absolutely even
    when the individual energies need regularization.  Identically zero for
    any strictly ohmic kernel (gh' = 0), returned without summing.
    """
    omega0 = check_nonnegative("omega0", omega0)
    beta = check_positive("beta", beta)
    return _prescription_gap(omega0, kernel, beta)


def _variance_summand(alpha: float):
    # position_variance_sum's summand and its pole bound
    def summand(nu):
        return 1.0 / (nu * nu + alpha * nu + 1.0)

    return summand, _pole_bound(1.0, DampingKernel.ohmic(alpha))


@gridwise
def position_variance_sum(theta, alpha: float) -> Estimate:
    """<q^2> of the ohmically damped oscillator in reduced units.

    theta * (1 + 2 sum_{n>=1} 1/(nu_n^2 + alpha nu_n + 1)), nu_n = 2 pi n theta.
    Serves as the frequency-sum counterpart of the spectral-integral moment.
    theta may be an ndarray, summed as one grid; value and err take its shape.
    """
    alpha = check_nonnegative("alpha", alpha)
    est, terms, err = _summed(_system(_variance_summand, alpha), TWO_PI * theta, theta)
    return Estimate(value=theta * (1.0 + 2.0 * est), err=2.0 * theta * err,
                    terms_used=terms)


@gridwise
def specific_heat_fd(energy_evaluator: Callable, theta,
                     rel_step: float = 1e-5) -> Estimate:
    """C = dE/dT by symmetric finite difference in the reduced temperature.

    energy_evaluator maps theta to an internal energy; an additive constant
    in it (a regularized energy, say) drops out exactly.  The error bar
    compares against a half-step evaluation, whose difference beyond both
    slopes' roundoff bounds the h^2 truncation error to leading order, and
    adds the roundoff max(|E(theta(1+h))|, |E(theta(1-h))|) eps / (theta h).
    theta may also be an ndarray, which the evaluator then takes whole;
    gridwise refuses a value or err that is not finite.
    """
    if not (0.0 < rel_step < 0.5):
        raise DomainError(f"rel_step must lie in (0, 0.5), got {rel_step!r}")

    def slope(h: float):
        e_hi = energy_evaluator(theta * (1.0 + h))
        e_lo = energy_evaluator(theta * (1.0 - h))
        # roundoff of the energies, amplified by the division; two identical
        # energies (a constant evaluator) difference to an exact zero
        size = where(abs(e_hi) > abs(e_lo), abs(e_hi), abs(e_lo))
        roundoff = where(e_hi == e_lo, 0.0, size * EPS / (theta * h))
        return (e_hi - e_lo) / (2.0 * theta * h), roundoff

    c_full, roundoff = slope(rel_step)
    c_half, roundoff_half = slope(0.5 * rel_step)
    excess = abs(c_full - c_half) - roundoff - roundoff_half
    err = (4.0 / 3.0) * where(excess < 0.0, 0.0, excess) + roundoff
    return Estimate(value=c_full, err=err)
