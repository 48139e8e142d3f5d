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
(oscillator) or a quadratic (free particle), rooted by formula, times (nu + wd)
on the partition route; the regularized ohmic summands carry a pole at nu = 0.
Summed over nu_n = s n, s = 2 pi / beta, with poles p_i and residues r_i,

    sum_{n>=1} R(s n) = -(1/s) sum_i r_i psi(1 - p_i/s).

PoleSum takes E, C = dE/dT and S from these poles, each a residue sum of a
specfun kernel with nothing to cancel, at a cost flat in theta; a cluster of
near-coincident poles adds the contour integral of R times the kernel around
it (trapezoid rule).  energy_sum adds the terms one by
one, by Horner's rule in 1/nu, up to N = 4 B beta / (2 pi), B a bound on the
poles, and the rest exactly in Hurwitz zeta form from R's Laurent coefficients
(series division, once per system: _system, _summed), sharing no roots with
PoleSum; it and the gap sum grids too.  Both routes read P and Q in units of a
power-of-two radius (_rates): a power-of-two unit of frequency changes no bit.
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
from .oscillator import undamped_thermo
from .specfun import _BERNOULLI, _G, _K, _h, _log, _sized

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
    """Laplace-space damping kernel gh(z) = gamma omega_d / (z + omega_d);
    omega_d = inf means strictly ohmic, gh(z) = gamma."""

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


def _regularization(gamma: float, beta, w_ref: float):
    """The ohmic energy's restored cutoff remainder; see the module docstring."""
    x = beta * w_ref / TWO_PI
    if type(x) is float and x >= sys.float_info.min:
        ln = math.log(x)        # a float that lost no digits: one log
    else:
        log = elementwise(beta).log
        lost = x < sys.float_info.min   # x lost digits, which its factors' logs keep
        ln = where(lost, log(beta) + math.log(w_ref) - math.log(TWO_PI),
                   log(where(lost, 1.0, x)))
    return (gamma / TWO_PI) * (EULER_GAMMA + ln)


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
    # P and Q as float64 0-d arrays, which an in-place Horner step on an array
    # takes faster than a Python float, with the same bits
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
    and radius of _rates.  Read from t^0 up, the lists are P(t), Q(t) in
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
    p, q = (tuple(np.array(c, float) for c in fraction) for fraction in (p, q))
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


@np.errstate(all="ignore")
def _row(system: _System, s: float, head: int):
    # (sum, bar) at a float s: one row of _rows, added in the same order; a
    # head that the shared 1/n covers is one chunk, its t sliced straight from it
    tables, (weights, weight_sum) = _tail_tables(), _tail_weights(head)
    unit = s / system.radius
    chunks = ([tables.inverse_n[:head] / unit] if head <= _SHORT else
              (_t(start, min(start + _CHUNK, head), unit)
               for start in range(0, head, _CHUNK)))
    partials, magnitude = [], (head + weight_sum) * system.underflow
    for t in chunks:
        terms = _terms(system, t)
        partials.append(float(np.add.reduce(terms)))
        magnitude += float(np.add.reduce(np.abs(terms, out=terms)))
    ratio = system.radius / (s * head)
    ratio = ratio if ratio < 1.0 else 1.0
    # the running product's second power is the ratio squared, to the bit
    scaled = np.multiply.accumulate(ratio * tables.ones)
    tail = (system.table * scaled[1:] * weights).tolist()
    return (math.fsum([*partials, *tail]),
            _bar(tail, ratio * ratio, weight_sum, system.roundoff, magnitude))


@np.errstate(all="ignore")
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


def _refusal(theta, total: float, bar: float, floor: float) -> ConvergenceError:
    # why a sum at theta whose bar misses _REL_TAIL max(|total|, floor) < inf is refused
    scale = max(abs(total), floor)
    cause = (f"error bar {bar:.3g} misses the relative tail target "
             f"{_REL_TAIL:g}" if math.isfinite(bar + total) else
             "meets a term that is not finite in double precision")
    return ConvergenceError(
        f"at theta={theta!r}: frequency sum {cause}", requested=_REL_TAIL,
        achieved=bar / scale if 0.0 < scale < math.inf else math.inf)


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
    _row without a grid's lists: a head of at most _SHORT terms is one chunk,
    its t sliced straight from the shared 1/n, and the bar is one comparison
    that builds a refusal only where it fails.  A grid's rows are summed by
    _rows in the same order, each equal to its float call to the bit when it
    adds the same head.  A grid's coldest theta left adds its head at every
    theta left that needs at least half of it, so no theta adds more than 2 N
    terms, in chunks of at most _CHUNK elements.  _row and _rows keep numpy
    quiet where a term underflows (np.errstate as their decorator).
    ConvergenceError names the first failing theta in C order: where N exceeds
    _MAX_TERMS, before a term is added; where a term or the bar is not finite;
    and where the bar misses _REL_TAIL times max(|sum|, floor).
    """
    if not isinstance(theta, np.ndarray):
        head = _head(system.bound, s, theta)
        total, bar = _row(system, s, head)
        if not bar <= _REL_TAIL * max(abs(total), floor) < math.inf:
            raise _refusal(theta, total, bar, floor)
        return total, head, bar
    thetas, scales = theta.ravel().tolist(), s.ravel()
    heads = [_head(system.bound, x, at) for x, at in zip(scales.tolist(), thetas)]
    sums = [None] * len(heads)
    left = list(range(len(heads)))
    while left:
        head = max(heads[i] for i in left)
        group = [i for i in left if 2 * heads[i] >= head]
        left = [i for i in left if 2 * heads[i] < head]
        for i, result in zip(group, _rows(system, scales[group, None], head)):
            sums[i] = result
    for at, (total, bar) in zip(thetas, sums):
        if not bar <= _REL_TAIL * max(abs(total), floor) < math.inf:
            raise _refusal(at, total, bar, floor)
    return (np.reshape([total for total, _ in sums], theta.shape), max(heads),
            np.reshape([bar for _, bar in sums], theta.shape))


def _energy_sum(omega0: float, kernel: DampingKernel, beta,
                route: Prescription) -> Estimate:
    # energy_sum without its checks, on a float or an ndarray beta
    pref = 1.0 / beta if omega0 > 0.0 else 0.5 / beta
    est, terms, err = _summed(_system(_energy_fraction, omega0, kernel, route),
                              TWO_PI / beta, 1.0 / beta)
    value, err = pref * (1.0 + est), pref * err
    regularized = kernel.regularized
    if regularized:
        g = kernel.gamma
        constant = _regularization(g, beta, omega0 if omega0 > 0.0 else g)
        # the rounding of the constant and of the sum that cancels against it
        value, err = value + constant, err + EPS * (abs(constant) + abs(value))
    return Estimate(value, err, terms, regularized)


def energy_sum(omega0: float, kernel: DampingKernel, beta: float,
               route: Prescription) -> Estimate:
    """Internal energy from the frequency sum, under either prescription.

    omega0 = 0 selects the free particle.  For a regularized kernel (strictly
    ohmic, gamma > 0) the absolute energy diverges, so the cutoff-regularized
    value described in the module docstring is returned and flagged.  err
    bounds the exact tail's truncation and the roundoff, the constant's too;
    terms_used counts the head's terms.  A refusal names theta = 1/beta.
    """
    omega0 = check_nonnegative("omega0", omega0)
    beta = check_positive("beta", beta)
    if not isinstance(route, Prescription):
        raise DomainError(f"route must be a Prescription, got {route!r}")
    return _energy_sum(omega0, kernel, beta, route)


def _rates(omega0: float, kernel: DampingKernel):
    """gamma, omega0^2, omega_d, q = gamma omega_d over the radius (omega_d, q
    unread if ohmic), Fujiwara's bound B on |nu| at the poles, formed in units
    of a power of two above every rate, and the radius, 4 B rounded down to a
    power of two; both are inf where the radius would pass the doubles."""
    # at zero coupling there is no bath, and so no pole at the cutoff
    wd = 0.0 if kernel.is_ohmic or kernel.gamma == 0.0 else kernel.omega_d
    unit = math.frexp(max(omega0, kernel.gamma, wd))[1]
    g, w0, wd = (math.ldexp(x, -unit) for x in (kernel.gamma, omega0, wd))
    bound = 2.0 * max(wd, math.sqrt(w0 * w0 + g * wd), g + w0)
    power = unit + math.frexp(bound)[1] + 1
    bound, radius = ((math.ldexp(bound, unit), math.ldexp(1.0, power))
                     if power < sys.float_info.max_exp else (math.inf, math.inf))
    g, w0, wd = kernel.gamma / radius, omega0 / radius, kernel.omega_d / radius
    return g, w0 * w0, wd, g * wd, bound, radius


def _summand_fractions(omega0: float, kernel: DampingKernel, route: Prescription):
    """energy_sum's summand as P(x) / (D(x) prod_j (x - fixed_j)), x = nu / radius.

    Returns (P, D, fixed, bound, radius): coefficient lists, highest power
    first, of the numerator and of a monic denominator factor whose roots
    still have to be found, the roots known exactly, and _rates' pole bound
    and radius; deg D + len(fixed) >= deg P + 2, and R is homogeneous of degree 0.
    """
    g, w2, wd, q, bound, radius = _rates(omega0, kernel)
    part = route is Prescription.PARTITION
    if kernel.gamma == 0.0:
        # zero coupling: the bare oscillator, or a free particle with no sum
        fraction = ([2.0 * w2], [1.0, 0.0, w2], []) if omega0 > 0.0 else ([], [1.0], [])
    elif kernel.regularized:
        # the regularized summands of energy_sum, with their pole at nu = 0
        fraction = (([2.0 * w2 - g * g, -g * w2], [1.0, g, w2], [0.0]) if omega0 > 0.0
                    else ([-2.0 * g * g], [1.0], [0.0, -g]))
    elif omega0 > 0.0:
        # multiplying through by (nu + wd), twice for the partition route's gh'
        cubic = [1.0, wd, w2 + q, w2 * wd]
        fraction = (([2.0 * (w2 + q), wd * (4.0 * w2 + q), 2.0 * w2 * wd * wd], cubic,
                     [-wd]) if part else ([2.0 * w2 + q, 2.0 * w2 * wd], cubic, []))
    else:
        quadratic = [1.0, wd, q]
        fraction = (([4.0 * q, 2.0 * q * wd], quadratic, [-wd]) if part
                    else ([2.0 * q], quadratic, []))
    return (*fraction, bound, radius)


def _energy_fraction(omega0: float, kernel: DampingKernel, route: Prescription):
    numerator, core, fixed, bound, radius = _summand_fractions(omega0, kernel, route)
    return numerator, np.polymul(core, np.poly(fixed)).tolist(), bound, radius


def _roots(d) -> list[complex]:
    """The roots of _summand_fractions' D = x^n + d_1 x^(n-1) + ... + d_n,
    n = 0, 2 or 3, every d_j >= 0, a complex pair exactly conjugate.

    A cubic's real root in [-d_1, 0] (D(-d_1) = -q d_1 <= 0 < D(0)) takes
    Newton steps until one changes no bit, bisecting where one leaves the
    bracket, and is divided out backward if it is the largest root, else
    forward (Wilkinson 1963); a quadratic's small root is c / big (Higham 1.8).
    """
    if len(d) < 3:
        return []
    if len(d) == 4:
        _, d1, d2, d3 = d
        x, lo, hi = -d1, -d1, 0.0
        while value := ((x + d1) * x + d2) * x + d3:
            lo, hi = (x, hi) if value < 0.0 else (lo, x)
            slope = (3.0 * x + 2.0 * d1) * x + d2
            step = x - value / slope if slope else math.inf
            step = step if step == x or lo < step < hi else 0.5 * (lo + hi)
            if step == x:
                break
            x = step
        return [complex(x)] + _roots([1.0, d1 + x, d2 + x * (d1 + x)] if x * x * x > -d3
                                     else [1.0, (-d3 / x - d2) / x, -d3 / x])
    _, b, c = d
    disc = b * b - 4.0 * c
    if disc < 0.0:
        pair = complex(-0.5 * b, 0.5 * math.sqrt(-disc))
        return [pair, pair.conjugate()]
    big = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [complex(big), complex(c / big)]


def _ratio(numerator, x, poles):
    # P(x) / prod (x - p), one factor at a time, so that no product underflows
    value = functools.reduce(lambda v, coef: v * x + coef, numerator)
    return functools.reduce(lambda v, p: v / (x - p), poles, value)


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


def _energy_terms(nu, s):
    # E's factor K(z), z = -nu/s, and the sum of |terms| it is formed from
    return _K(-nu / s)


def _heat_terms(nu, s):
    # C's factor h(z) / -nu: no s^2 is formed
    return _sized(_h(-nu / s) / -nu)


def _entropy_terms(nu, s):
    value, size = _G(-nu / s)
    return value / -nu, size / abs(nu)


def _share(coefficients, value, size):
    """A pole group's share of sum_i r_i f(p_i), and the sum of |terms| added,
    from f and its sum of |terms| at the group's nodes.

    A single pole is one node, its residue the coefficient: the share is
    r f(p).  A cluster about c carries the M = _CLUSTER_NODES nodes z_j of a
    circle about c and the coefficients R(z_j) (z_j - c) / M: the share, the
    sum of the terms R f (z - c) / M, is the trapezoid rule for the contour
    integral of R f around the cluster.  A cluster's value and size hold its
    nodes on axis 0, over s's shape.
    """
    if not isinstance(coefficients, np.ndarray):
        return coefficients * value, abs(coefficients) * size
    weights = coefficients.reshape(coefficients.shape + (1,) * (np.ndim(value) - 1))
    return (weights * value).sum(axis=0), (abs(weights) * size).sum(axis=0)


class PoleSum:
    """energy_sum in closed form: one residue sum per quantity over one pole list.

    Every summand R(nu) of energy_sum is rational with deg Q >= deg P + 2, so
    with poles p_i, residues r_i, s = 2 pi theta and z_i = -p_i/s, sum_{n>=1}
    R(s n) = -(1/s) sum_i r_i psi(1 + z_i), and E = c theta (1 + that sum),
    c = 1 for the oscillator and 1/2 for the free particle.  As sum_i r_i = 0
    and R(0) = 2 wherever there is a coupling, with specfun's K, h and G,

        E = E0 + (c/2 pi) sum_i r_i K(z_i),    E0 = -(c/2 pi) sum_i r_i ln(-p_i),
        C = dE/dtheta = -c sum_i r_i h(z_i) / p_i,    S = -c sum_i r_i G(z_i) / p_i,

    each term as small as E - E0, C or S, and theta dS/dtheta = C, S(0) = 0.
    The regularized summands' pole at nu = 0 stays out: in E its psi(1) and
    energy_sum's regularization cancel exactly, and E0 is closed.  At zero
    coupling the bare oscillator, or the classical free particle, answers.

    Poles (by formula: _roots) and residues are computed once per (omega0,
    kernel, route); each theta then costs a few kernel evaluations.  Near
    coincident poles (critical damping, the free particle's r = 4, the Drude
    oscillator's triple root) are summed together, as the integral of R
    times the quantity's factor around a circle enclosing them, by the
    trapezoid rule on _CLUSTER_NODES points, so each quantity stays
    continuous through every degeneracy, and checked_real, against the sum
    of |terms| (and |E0|), sees any cancellation among the circle's terms as
    among simple poles.  theta = 1 / beta, k_B T in the units of omega0 and
    the kernel's rates, is a float or an ndarray of temperatures.  A float is
    evaluated group by group; a grid in one kernel call over every group's
    nodes, whose shares are then added in the float call's order, so a grid
    has the bits of its own per-group sums.  Where every group is one real
    pole (as for the free particle above r = 4 and the ohmic one, and the
    ohmic oscillator above alpha = 2) the nodes and residues are floats, and
    the kernels run in real arithmetic.  Poles, residues, circles and s are in
    units of _rates' radius.
    """

    def __init__(self, omega0: float, kernel: DampingKernel, route: Prescription):
        omega0 = check_nonnegative("omega0", omega0)
        if not isinstance(route, Prescription):
            raise DomainError(f"route must be a Prescription, got {route!r}")
        # a strictly ohmic kernel's energy is energy_sum's regularized value
        self.regularized = kernel.regularized
        numerator, core, fixed, _, radius = _summand_fractions(omega0, kernel, route)
        # D's constant term is the product of its roots: subnormal, one is lost
        if not (core[-1] >= sys.float_info.min and radius < math.inf):
            raise DomainError(f"a pole of the summand underflows in units of its radius "
                              f"{radius!r} at omega0={omega0!r}, kernel={kernel!r}")
        self._radius, self._gamma, self._omega0 = radius, kernel.gamma, omega0
        self._dof = 1.0 if omega0 > 0.0 else 0.5
        poles = _roots(core) + [complex(p) for p in fixed]
        # (nodes, coefficients, where the nodes are in self._nodes) per group,
        # weighted 2 for a complex center that stands in for its conjugate: see
        # _share
        self._groups, count = [], 0
        for group in _group_poles(poles):
            c = sum(group) / len(group)
            if c.imag < 0.0 or c == 0.0:
                continue    # summed through its conjugate partner, or nu = 0
            weight = 2.0 if c.imag > 0.0 else 1.0
            others = [p for p in poles if p not in group]
            if len(group) == 1:
                self._groups.append((c, weight * _ratio(numerator, c, others), count))
                count += 1
                continue
            rho = max(abs(p - c) for p in group)
            # psi's poles at nu = s, 2s, ... are at least |c| away, as Re c <= 0;
            # with M nodes on a circle of radius a the error is (rho/a)^M + (a/sigma)^M
            sigma = min([abs(c)] + [abs(c - q) for q in others])
            z = c + max(math.sqrt(rho * sigma), 0.25 * sigma) * np.exp(
                -2j * np.pi * np.arange(_CLUSTER_NODES) / _CLUSTER_NODES)
            ratio = _ratio(numerator, z, poles)
            self._groups.append((z, (weight / _CLUSTER_NODES) * ratio * (z - c),
                                 slice(count, count + _CLUSTER_NODES)))
            count += _CLUSTER_NODES
        # where every group is one real pole its node and residue are floats,
        # whose kernels run in real arithmetic
        if all(type(nodes) is complex and nodes.imag == 0.0 for nodes, _, _ in self._groups):
            self._groups = [(nodes.real, coefficients.real, part)
                            for nodes, coefficients, part in self._groups]
        # every group's nodes, for a grid's one kernel call
        self._nodes = np.array([x for nodes, _, _ in self._groups for x in np.ravel(nodes)])
        self._scale = self._dof * radius / TWO_PI
        # E0 by its residue sum, or closed where regularized: 0 for the free
        # particle, else (omega0/pi) sqrt(1 - a^2) arccos a, a = alpha/2, continued
        if not self.regularized:
            ground, _ = self._sum(1.0, lambda nu, s: _sized(_log(-nu)))
            self._ground = -self._scale * ground
        else:
            a = 0.5 * kernel.gamma / omega0 if omega0 > 0.0 else 1.0
            root = math.sqrt(abs((1.0 - a) * (1.0 + a)))
            self._ground = omega0 / math.pi * root * (
                math.acos(a) if a <= 1.0 else -math.acosh(a))

    def _sum(self, s, terms):
        # (sum_i Re r_i f(p_i), the sum of |terms|), f by terms at s: a grid in
        # one call of terms over every group's nodes on a new axis 0, a float
        # group by group; either way the shares are added in the groups' order
        total = magnitude = 0.0 * s   # zeros shaped like s
        if isinstance(s, np.ndarray):
            values, sizes = terms(self._nodes.reshape((-1,) + (1,) * s.ndim), s)
            for _, coefficients, part in self._groups:
                share, size = _share(coefficients, values[part], sizes[part])
                total = total + share.real
                magnitude = magnitude + size
            return total, magnitude
        for nodes, coefficients, _ in self._groups:
            if isinstance(nodes, np.ndarray):
                with np.errstate(all="ignore"):
                    share, size = _share(coefficients, *terms(nodes, s))
                share, size = complex(share), float(size)
            else:   # _share's single pole, inline: a float call costs its calls
                value, size = terms(nodes, s)
                share, size = coefficients * value, abs(coefficients) * size
            total = total + share.real
            magnitude = magnitude + size
        return total, magnitude

    def _quantity(self, theta, quantity: str, terms, name: str):
        if self._gamma == 0.0:
            # zero coupling: the bare oscillator, or the classical free particle
            if self._dof == 1.0:
                value = getattr(undamped_thermo(theta / self._omega0), quantity)
                return self._omega0 * value if quantity == "E" else value
            if quantity == "S":
                raise DomainError("the uncoupled free particle has no S(0) = 0 entropy")
            return 0.5 * theta if quantity == "E" else 0.5 + 0.0 * theta
        # s is inf where theta / radius overflows
        total, magnitude = self._sum(TWO_PI * (theta / self._radius), terms)
        ground, scale = ((self._ground, self._scale) if quantity == "E"
                         else (0.0, self._dof))
        return checked_real(ground + scale * total, abs(ground) + scale * magnitude,
                            name, theta=theta)

    @gridwise
    def energy(self, theta):
        """Internal energy at theta, regularized like energy_sum's value."""
        return self._quantity(theta, "E", _energy_terms, "energy")

    @gridwise
    def heat(self, theta):
        """Specific heat dE/dtheta at theta."""
        return self._quantity(theta, "C", _heat_terms, "specific heat")

    @gridwise
    def entropy(self, theta):
        """Entropy at theta; DomainError for a free particle without coupling."""
        return self._quantity(theta, "S", _entropy_terms, "entropy")


def _gap_fraction(omega0: float, kernel: DampingKernel):
    # prescription_gap's summand, -nu^2 gh' / (nu^2 + nu gh + w0^2), over the partition Q
    _, den, bound, radius = _energy_fraction(omega0, kernel, Prescription.PARTITION)
    q = _rates(omega0, kernel)[3]
    return ([q, 0.0, 0.0] if omega0 > 0.0 else [q, 0.0]), den, bound, radius


def _prescription_gap(omega0: float, kernel: DampingKernel, beta) -> Estimate:
    # prescription_gap without its checks, on a float or an ndarray beta
    if kernel.is_ohmic or kernel.gamma == 0.0:
        return Estimate(value=0.0 * beta, err=0.0 * beta)
    est, terms, err = _summed(_system(_gap_fraction, omega0, kernel),
                              TWO_PI / beta, 1.0 / beta, floor=0.0)
    pref = 1.0 / beta
    return Estimate(pref * est, pref * err, terms)


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
    g, w2, _, _, bound, radius = _rates(1.0, DampingKernel.ohmic(alpha))
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
    return Estimate(theta * (1.0 + 2.0 * est), 2.0 * theta * err, terms)


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
    return Estimate(c_full, err)
