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
trapezoid rule on a circle.  energy_sum adds the terms one by one, by
Horner's rule in 1/nu, up to N = 4 B beta / (2 pi), B a bound on the poles,
and the rest exactly in Hurwitz zeta form from R's Laurent coefficients,
which series division of PoleSum's P by its Q gives once per system
(_system, _summed): a cross-check that shares no roots or residues with
PoleSum.  Its kernel _energy_sum, like _prescription_gap, sums a grid too.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (EPS, TWO_PI, ConvergenceError, DomainError, Estimate,
                   check_nonnegative, check_positive, checked_real, elementwise,
                   gridwise, where)
from .specfun import _BERNOULLI, _digamma, _trigamma

EULER_GAMMA = 0.5772156649015328606065121

_CHUNK = 1 << 16          # terms evaluated per numpy call, bounding memory
_SHORT = 1 << 10          # heads up to this long share one vector of 1/n
_MAX_TERMS = 10 ** 8      # cap on the head of a term-by-term sum
_REL_TAIL = 1e-12         # largest error bar of a term-by-term sum, relative
_LAURENT = 32             # Laurent coefficients e_k, k < _LAURENT, in a sum's tail
_SYSTEMS_KEPT = 64        # the summed systems whose records are kept

# PoleSum's clusters of near-coincident poles (_group_poles) and their circles (_share)
_CLUSTER_REL = 0.1
_CLUSTER_RATIO = 0.1
_CLUSTER_NODES = 32


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
    log, x = elementwise(beta).log, beta * w_ref / TWO_PI
    lost = x < sys.float_info.min   # x lost digits, which its factors' logs keep
    ln = log(x) if lost is False else where(   # a float that lost none: one log
        lost, log(beta) + math.log(w_ref) - math.log(TWO_PI), log(where(lost, 1.0, x)))
    return (gamma / TWO_PI) * (EULER_GAMMA + ln)


def _pole_bound(omega0: float, kernel: DampingKernel) -> tuple:
    """The bound on |nu| at a summand's poles (Fujiwara's), and its record's radius."""
    # at zero coupling there is no bath, and so no pole at the cutoff
    wd = 0.0 if kernel.is_ohmic or kernel.gamma == 0.0 else kernel.omega_d
    g = kernel.gamma
    bound = 2.0 * max(wd, math.sqrt(omega0 * omega0 + g * wd), g + omega0)
    return bound, math.ldexp(1.0, math.frexp(4.0 * bound)[1] - 1)


class _Tables(NamedTuple):
    # what every sum shares, built on first use: programs that never sum hold none
    ones: np.ndarray        # whose running product by a ratio gives its powers
    zeta_terms: np.ndarray  # B_2m/(2m)! (k)_(2m-1), m <= 8, by k = 2.._LAURENT-1
    inverse_n: np.ndarray   # 1/n, n = 1.._SHORT, which a short head slices


@functools.cache
def _tail_tables() -> _Tables:
    powers = np.arange(2.0, _LAURENT)
    return _Tables(np.ones(_LAURENT - 1), np.array([
        b2m / math.factorial(2 * m) * np.prod([powers + j for j in range(2 * m - 1)], 0)
        for m, b2m in enumerate(_BERNOULLI, start=1)]), 1.0 / np.arange(1.0, _SHORT + 1))


@functools.lru_cache(maxsize=256)
def _tail_weights(head: int):
    # N^k zeta(k, N+1), k = 2.._LAURENT-1, at N = head and their sum, read-only
    powers, a = np.arange(2.0, _LAURENT), head + 1.0
    # N^k zeta(k, a) = (N/a)^k [a/(k-1) + 1/2 + sum_m B_2m/(2m)! (k)_(2m-1) a^(1-2m)]
    series = (1.0 / a) * (1.0 / (a * a)) ** np.arange(len(_BERNOULLI))
    weights = (head / a) ** powers * (
        a / (powers - 1) + 0.5 + series @ _tail_tables().zeta_terms)
    weights.flags.writeable = False
    return weights, float(weights.sum())


class _System(NamedTuple):
    numerator: tuple      # P(t), t = radius / nu, from t^0 up
    denominator: tuple    # Q(t), from t^0 up
    order: int            # deg Q - deg P, so that R = t^order P(t) / Q(t)
    bound: float          # on |nu| at the poles
    radius: float         # 4 bound rounded down to a power of two: scales exactly
    table: np.ndarray     # e_k = c_k radius^-k, k = 2.._LAURENT-1, read-only
    roundoff: float       # on each e_k, from the series division
    underflow: float      # a term's least rounding over eps, 0 where P has no terms


@functools.lru_cache(maxsize=_SYSTEMS_KEPT)
def _system(fraction_of: Callable, *params) -> _System:
    """What a term-by-term sum needs of a system, whatever theta is, built once.

    fraction_of(*params) gives P(x), Q(x), highest power first, with
    R(radius x) = P(x) / Q(x), Q monic, deg Q >= deg P + 2, and the pole bound
    and radius of _pole_bound.  Read from t^0 up, the lists are P(t), Q(t) in
    t = radius / nu, and R = t^order P(t) / Q(t) = sum_{k>=2} e_k t^k beyond
    the poles: series division gives e_k = c_k radius^-k, k < _LAURENT, each
    rounded by at most roundoff = eps sum |e_k|.  Below the smallest normal
    double rounding is absolute: eps underflow per term, 0 where P has no terms.
    """
    numerator, denominator, bound, radius = fraction_of(*params)
    p, q = (tuple(np.trim_zeros(c, "b")) for c in (numerator, denominator))
    order = len(denominator) - len(numerator)
    series = ([0.0] * order + list(p) + [0.0] * _LAURENT)[:_LAURENT]
    for k in range(1, _LAURENT):
        series[k] -= sum(c * e for c, e in zip(q[1:], reversed(series[:k])))
    table = np.array(series[2:])
    table.flags.writeable = False
    size = float(abs(table).sum())
    return _System(p, q, order, bound, radius, table, EPS * size,
                   sys.float_info.min * (1.0 + size) if numerator else 0.0)


def _terms(system: _System, t):
    """R at nu = radius / t elementwise, by Horner's rule, which cannot overflow."""
    p, q = system.numerator, system.denominator
    if not p:
        return np.zeros_like(t)
    top, bottom = p[-1] * t, q[-1] * t
    for c in p[-2::-1]:
        top += c
        top *= t
    for _ in range(system.order - 1):
        top *= t
    for c in q[-2:0:-1]:
        bottom += c
        bottom *= t
    bottom += q[0]
    top /= bottom
    return top


def _head(bound: float, s: float, theta) -> int:
    # a theta's head length N; a head beyond the cap refuses before any term
    needed = max(64.0, 4.0 * (bound / s))
    if not needed <= _MAX_TERMS:
        raise ConvergenceError(f"at theta={theta!r}: frequency sum needs {needed:.3g} "
                               f"> {_MAX_TERMS} terms", achieved=math.inf,
                               requested=_REL_TAIL)
    return math.ceil(needed)


def _t(start: int, stop: int, unit: float):
    # t = radius / (s n), n = start + 1..stop, unit = s / radius; 1/n shared to _SHORT
    return (_tail_tables().inverse_n[start:stop] if stop <= _SHORT
            else 1.0 / np.arange(start + 1, stop + 1, dtype=float)) / unit


def _bar(tail: list, power: float, weight_sum: float, roundoff: float, size: float):
    # a row's error bar; a tail term that is not finite comes from a table
    # that is not, whose roundoff already makes the bar not finite
    return max(map(abs, tail[-4:])) + roundoff * power * weight_sum + size * EPS


def _row(system: _System, s: float, head: int):
    # (sum, bar) at a float s: one row of _rows, added in the same order
    weights, weight_sum = _tail_weights(head)
    partials, magnitude = [], (head + weight_sum) * system.underflow
    for start in range(0, head, _CHUNK):
        terms = _terms(system, _t(start, min(start + _CHUNK, head), s / system.radius))
        partials.append(float(np.add.reduce(terms)))
        magnitude += float(np.add.reduce(np.abs(terms)))
    ratio = system.radius / (s * head)
    scaled = np.multiply.accumulate((ratio if ratio < 1.0 else 1.0) * _tail_tables().ones)
    tail = (system.table * scaled[1:] * weights).tolist()
    return (math.fsum([*partials, *tail]),
            _bar(tail, float(scaled[1]), weight_sum, system.roundoff, magnitude))


def _rows(system: _System, s: np.ndarray, head: int) -> list:
    # (sum, bar) at each s of a column, as _row adds them
    width = max(1, _CHUNK // len(s))
    weights, weight_sum = _tail_weights(head)
    partials, magnitude = [], (head + weight_sum) * system.underflow
    for start in range(0, head, width):
        terms = _terms(system, _t(start, min(start + width, head), s / system.radius))
        partials.append(np.add.reduce(terms, axis=-1).tolist())
        magnitude = magnitude + np.add.reduce(np.abs(terms), axis=-1)
    # running products, as in _row: N >= radius / s keeps the ratio <= 1 but where R = 0
    ratio = system.radius / (s * head)
    scaled = np.multiply.accumulate(
        np.where(ratio < 1.0, ratio, 1.0) * _tail_tables().ones, axis=-1)
    rows = zip(zip(*partials), (system.table * scaled[:, 1:] * weights).tolist(),
               scaled[:, 1].tolist(), magnitude.tolist())
    return [(math.fsum([*heads, *tail]),
             _bar(tail, power, weight_sum, system.roundoff, size))
            for heads, tail, power, size in rows]


def _check_bar(theta, total: float, bar: float, floor: float) -> None:
    # ConvergenceError at theta unless bar meets _REL_TAIL max(|total|, floor)
    scale = max(abs(total), floor)
    if not bar <= _REL_TAIL * scale:
        cause = (f"error bar {bar:.3g} misses the relative tail target "
                 f"{_REL_TAIL:g}" if math.isfinite(bar) else
                 "meets a term that is not finite in double precision")
        raise ConvergenceError(
            f"at theta={theta!r}: frequency sum {cause}",
            achieved=bar / scale if scale else math.inf, requested=_REL_TAIL)


def _summed(system: _System, s, theta, floor: float = 1.0):
    """(sum over n >= 1 of R(s n), the coldest theta's terms, an error bound).

    system is a record of _system; s = 2 pi theta; theta is a float or an
    ndarray, whose type and shape the sum and the bound take.  A theta adds the
    terms up to N = 4 bound / s (64 at least), each at t = radius / (s n), and
    the rest, sum_k d_k zeta(k, N+1) with d_k N^-k = e_k (radius / (s N))^k
    (DLMF 25.11), zeta by Euler-Maclaurin.  The bar adds the four last tail
    terms, the head's roundoff (eps per term, each at least eps underflow) and
    the table's, which the ratio's powers shrink by at least (radius / (s N))^2
    before the weights carry it into the tail.  A float is one row, summed by
    _row without a grid's lists; a grid's rows are summed by _rows in the same
    order, each equal to its float call to the bit when it adds the same head.
    A grid's coldest theta left adds its head at every theta left that needs at
    least half of it, so no theta adds more than 2 N terms, in chunks of at
    most _CHUNK elements; numpy stays quiet where a term underflows.
    ConvergenceError names the first failing theta in C order: where N exceeds
    _MAX_TERMS, before a term is added; where a term or the bar is not finite;
    and where the bar misses _REL_TAIL times max(|sum|, floor).
    """
    if not isinstance(theta, np.ndarray):
        head = _head(system.bound, s, theta)
        with np.errstate(all="ignore"):
            total, bar = _row(system, s, head)
        _check_bar(theta, total, bar, floor)
        return total, head, bar
    thetas, scales = theta.ravel().tolist(), s.ravel()
    heads = [_head(system.bound, x, at) for x, at in zip(scales.tolist(), thetas)]
    sums = [None] * len(heads)
    left = list(range(len(heads)))
    with np.errstate(all="ignore"):
        while left:
            head = max(heads[i] for i in left)
            group = [i for i in left if 2 * heads[i] >= head]
            left = [i for i in left if 2 * heads[i] < head]
            for i, result in zip(group, _rows(system, scales[group, None], head)):
                sums[i] = result
    for at, (total, bar) in zip(thetas, sums):
        _check_bar(at, total, bar, floor)
    return (np.reshape([total for total, _ in sums], theta.shape), max(heads),
            np.reshape([bar for _, bar in sums], theta.shape))


def _energy_sum(omega0: float, kernel: DampingKernel, beta,
                route: Prescription) -> Estimate:
    # energy_sum without its checks, on a float or an ndarray beta
    pref = 1.0 / beta if omega0 > 0.0 else 0.5 / beta
    est, terms, err = _summed(_system(_energy_fraction, omega0, kernel, route),
                              TWO_PI / beta, 1.0 / beta)
    value = pref * (1.0 + est)
    regularized = kernel.regularized
    if regularized:
        g = kernel.gamma
        value += _regularization(g, beta, omega0 if omega0 > 0.0 else g)
    return Estimate(value=value, err=pref * err, terms_used=terms,
                    regularized=regularized)


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


def _rates(omega0: float, kernel: DampingKernel, scale: float):
    # gamma, omega0^2, omega_d, q = gamma omega_d over scale (omega_d, q unread if ohmic)
    g, w0, wd = kernel.gamma / scale, omega0 / scale, kernel.omega_d / scale
    return g, w0 * w0, wd, g * wd


def _summand_fractions(omega0: float, kernel: DampingKernel, route: Prescription,
                       scale: float = 1.0):
    """energy_sum's summand as P(x) / (D(x) prod_j (x - fixed_j)), x = nu / scale.

    Returns (P, D, fixed): coefficient lists, highest power first, of the
    numerator and of a monic denominator factor whose roots still have to be
    found, plus the roots known exactly; deg D + len(fixed) >= deg P + 2.  The
    summand is homogeneous of degree 0 in nu and the rates, here over scale.
    """
    g, w2, wd, q = _rates(omega0, kernel, scale)
    if kernel.gamma == 0.0:
        # zero coupling: the bare oscillator, or a free particle with no sum
        return ([2.0 * w2], [1.0, 0.0, w2], []) if omega0 > 0.0 else ([], [1.0], [])
    if kernel.regularized:
        # the regularized summands of energy_sum, with their pole at nu = 0
        if omega0 > 0.0:
            return [2.0 * w2 - g * g, -g * w2], [1.0, g, w2], [0.0]
        return [-2.0 * g * g], [1.0], [0.0, -g]
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


def _energy_fraction(omega0: float, kernel: DampingKernel, route: Prescription):
    bound, radius = _pole_bound(omega0, kernel)
    numerator, core, fixed = _summand_fractions(omega0, kernel, route, radius)
    return numerator, np.polymul(core, np.poly(fixed)).tolist(), bound, radius


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
    r f(p).  A cluster about c carries the M = _CLUSTER_NODES nodes z_j of a
    circle about c and the coefficients R(z_j) (z_j - c) / M: the share, the
    sum of the terms R f (z - c) / M, is the trapezoid rule for the contour
    integral of R f around the cluster.  f is _energy_factor or _heat_factor;
    s is a float or an array of any shape, the nodes on a new leading axis.
    """
    if not isinstance(nodes, np.ndarray):
        part = coefficients * factor(nodes, s)
        return part, abs(part)
    shape = (_CLUSTER_NODES,) + (1,) * np.ndim(s)
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
    rule on _CLUSTER_NODES points, so E and C stay continuous through every
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
            # with M nodes the rule's error is about (rho/radius)^M + (radius/sigma)^M
            sigma = min([abs(c)] + [abs(c - q) for q in others])
            z = c + max(math.sqrt(rho * sigma), 0.25 * sigma) * np.exp(
                -2j * np.pi * np.arange(_CLUSTER_NODES) / _CLUSTER_NODES)
            ratio = np.polyval(numerator, z) / np.prod([z - p for p in poles], axis=0)
            self._groups.append((z, (weight / _CLUSTER_NODES) * ratio * (z - c)))

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


def _gap_fraction(omega0: float, kernel: DampingKernel):
    # prescription_gap's summand, -nu^2 gh' / (nu^2 + nu gh + w0^2), over the partition Q
    _, den, bound, radius = _energy_fraction(omega0, kernel, Prescription.PARTITION)
    q = _rates(omega0, kernel, radius)[3]
    return ([q, 0.0, 0.0] if omega0 > 0.0 else [q, 0.0]), den, bound, radius


def _prescription_gap(omega0: float, kernel: DampingKernel, beta) -> Estimate:
    # prescription_gap without its checks, on a float or an ndarray beta
    if kernel.is_ohmic or kernel.gamma == 0.0:
        return Estimate(value=0.0 * beta, err=0.0 * beta)
    est, terms, err = _summed(_system(_gap_fraction, omega0, kernel),
                              TWO_PI / beta, 1.0 / beta, floor=0.0)
    pref = 1.0 / beta
    return Estimate(value=pref * est, err=pref * err, terms_used=terms)


def prescription_gap(omega0: float, kernel: DampingKernel, beta: float) -> Estimate:
    """Partition-route energy minus direct-route energy, summed directly.

    The difference isolates the gh' term, so it converges absolutely even
    when the individual energies need regularization.  Identically zero for
    any strictly ohmic kernel and at zero coupling (gh' = 0), returned
    without summing.
    """
    omega0 = check_nonnegative("omega0", omega0)
    beta = check_positive("beta", beta)
    return _prescription_gap(omega0, kernel, beta)


def _variance_fraction(alpha: float):
    bound, radius = _pole_bound(1.0, DampingKernel.ohmic(alpha))
    g, w2, _, _ = _rates(1.0, DampingKernel.ohmic(alpha), radius)
    return [w2], [1.0, g, w2], bound, radius


@gridwise
def position_variance_sum(theta, alpha: float) -> Estimate:
    """<q^2> of the ohmically damped oscillator in reduced units.

    theta * (1 + 2 sum_{n>=1} 1/(nu_n^2 + alpha nu_n + 1)), nu_n = 2 pi n theta.
    Serves as the frequency-sum counterpart of the spectral-integral moment.
    theta may be an ndarray, summed as one grid; value and err take its shape.
    """
    alpha = check_nonnegative("alpha", alpha)
    est, terms, err = _summed(_system(_variance_fraction, alpha), TWO_PI * theta, theta)
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
