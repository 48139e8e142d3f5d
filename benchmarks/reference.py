"""Independent references and acceptance tolerances for the benchmark's check.

Every reference is computed with mpmath at 34 significant digits straight from
a formula that shares no code with qbrownian:

- closed forms (damped-oscillator C and S, free-particle C for ohmic and Drude
  damping, the undamped oscillator, the limit expansions) from their
  trigamma / log-gamma definitions, as scripts/freeze_oracles.py writes them;
- frequency sums by partial fractions: every summand is a rational function
  R(nu) = P(nu)/Q(nu) of nu_n = s n with s = 2 pi theta, so

      sum_{n>=1} R(s n) = -(1/s) sum_i rho_i psi(1 - q_i/s),

  with q_i the roots of Q and rho_i = P(q_i)/Q'(q_i) (this needs
  deg Q >= deg P + 2, which holds for every summand used here).  The
  temperature derivative follows in closed form from psi', so the specific
  heats that the program gets by finite differences are checked against
  exact derivatives;
- the regularized ohmic-oscillator energy from its digamma closed form; the
  benchmark compares it only through differences, so the additive constant
  of the regularization convention never enters the check.

Values are looked up first in a frozen table (benchmarks/frozen.json, written
by benchmarks/freeze.py) and computed with mpmath only when a key is missing,
so the default seed needs no mpmath at run time.  Missing values are computed
in a child process (this file run as a script: keys on stdin, a JSON object
on stdout), so mpmath never runs in the process that is timed: on a 2-vCPU
VM, computing ~1200 references in-process made the later frequency-sum
passes of sum_datasets about a quarter slower.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

DPS = 34
CHILD_TIMEOUT_S = 150
NO_MPMATH_EXIT = 3

# (absolute, relative) tolerance per check class, each taken from the test that
# pins that kind of value; a value passes when |got - ref| <= atol + rtol |ref|.
TOLERANCES = {
    # closed forms: routes agree below 1e-11 (test_acceptance test_02)
    "closed": (1e-11, 0.0),
    # truncated expansions are plain polynomials (test_oscillator, rel 1e-14)
    "expansion": (0.0, 1e-13),
    # frequency-sum energies at the default tail target (test_matsubara, 1e-10)
    "sum": (0.0, 1e-10),
    # FD of a frequency sum against the exact derivative (test_03/test_04)
    "fd_sum": (1e-6, 0.0),
    # FD of the spectral energy at quad_abs=1e-11, rel_step=3e-4 (test_05)
    "fd_spectral": (1e-5, 0.0),
    # position variance, quadrature and frequency sum (test_05)
    "variance": (1e-8, 0.0),
}

MAX_DIGITS = 17.0


@dataclass(frozen=True)
class Check:
    """One produced number, the reference key it is compared with, its class.

    anchor names a second (got, reference key) pair for values that are only
    defined up to an additive constant: the check then compares got - anchor
    with ref - ref(anchor), measured against the reference's own magnitude.
    """

    tol: str
    got: float
    key: str
    anchor_got: float | None = None
    anchor_key: str | None = None


def key(kind: str, *args: float) -> str:
    return kind + "(" + ",".join(repr(float(a)) for a in args) + ")"


class ReferenceUnavailable(RuntimeError):
    """A reference value is neither frozen nor computable here."""


class References:
    """Frozen reference values with an mpmath fallback for missing keys."""

    def __init__(self, frozen: dict[str, float]):
        self.values = dict(frozen)
        self.computed = 0

    @classmethod
    def load(cls, path: str) -> "References":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls({k: float(v) for k, v in data["references"].items()})

    def resolve(self, keys) -> None:
        missing = sorted({k for k in keys if k not in self.values})
        if not missing:
            return
        proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                              input="\n".join(missing), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode == NO_MPMATH_EXIT:
            raise ReferenceUnavailable(
                f"{len(missing)} reference values are not frozen and mpmath is "
                "not importable to compute them")
        if proc.returncode != 0:
            raise ReferenceUnavailable(
                f"computing {len(missing)} references failed: "
                f"{proc.stderr.strip()[-400:]}")
        values = json.loads(proc.stdout)
        for k in missing:
            self.values[k] = float(values[k])
        self.computed += len(missing)

    def error(self, check: Check) -> tuple[bool, float]:
        """Return (within tolerance, correct significant digits)."""
        ref = self.values[check.key]
        if not math.isfinite(check.got):
            return False, 0.0
        if check.anchor_key is None:
            err = abs(check.got - ref)
            scale = abs(ref)
        else:
            ref_anchor = self.values[check.anchor_key]
            err = abs((check.got - check.anchor_got) - (ref - ref_anchor))
            scale = max(abs(ref), abs(ref_anchor))
        atol, rtol = TOLERANCES[check.tol]
        ok = err <= atol + rtol * scale
        if err == 0.0:
            return ok, MAX_DIGITS
        if scale == 0.0:
            return ok, 0.0
        return ok, min(MAX_DIGITS, max(0.0, -math.log10(err / scale)))


# --------------------------------------------------------------- formulas

def evaluate(k: str):
    """Compute the reference named by a key such as 'c_damped(0.5,2.0)'."""
    import mpmath as mp
    mp.mp.dps = DPS
    kind, _, rest = k.partition("(")
    args = [mp.mpf(a) for a in rest.rstrip(")").split(",")]
    return _FORMULAS[kind](mp, *args)


def _lam_pm(mp, theta, alpha):
    s = 1 / (2 * mp.pi * theta)
    half = alpha / 2
    root = mp.sqrt(mp.mpc(half * half - 1))
    return s * (half + root), s * (half - root)


def _c_damped(mp, theta, alpha):
    lp, lm = _lam_pm(mp, theta, alpha)
    a = alpha / (2 * mp.pi * theta)
    return mp.re(1 - a + lp ** 2 * mp.psi(1, 1 + lp) + lm ** 2 * mp.psi(1, 1 + lm))


def _s_damped(mp, theta, alpha):
    lp, lm = _lam_pm(mp, theta, alpha)
    a = alpha / (2 * mp.pi * theta)

    def g(z):
        return mp.loggamma(1 + z) - z * mp.psi(0, 1 + z)

    return mp.re(1 + mp.log(theta) + a + g(lp) + g(lm))


def _e_reg_osc(mp, theta, alpha):
    lp, lm = _lam_pm(mp, theta, alpha)
    a = alpha / (2 * mp.pi * theta)
    return mp.re(theta * (1 - lp * mp.psi(0, 1 + lp) - lm * mp.psi(0, 1 + lm)
                          + a * mp.log(1 / (2 * mp.pi * theta))))


def _c_undamped(mp, theta):
    x = 1 / theta
    return (x / (2 * mp.sinh(x / 2))) ** 2


def _c_free_ohmic(mp, theta):
    a = 1 / (2 * mp.pi * theta)
    return mp.mpf(1) / 2 - a + a * a * mp.psi(1, 1 + a)


def _c_free_drude(mp, theta, r):
    a = 1 / (2 * mp.pi * theta)
    s = mp.sqrt(mp.mpc(1 - 4 / r))
    z0 = r / (4 * mp.pi * theta)
    if s == 0:
        bracket_over_s = 2 * z0 * (mp.psi(1, 1 + z0) + z0 * mp.psi(2, 1 + z0))
    else:
        zp, zm = z0 * (1 + s), z0 * (1 - s)
        bracket_over_s = (zp * mp.psi(1, 1 + zp) - zm * mp.psi(1, 1 + zm)) / s
    return mp.re(mp.mpf(1) / 2 - a * bracket_over_s)


def _exp_undamped_low(mp, theta):
    x = 1 / theta
    return x * x * mp.exp(-x)


def _exp_undamped_high(mp, theta):
    return 1 - 1 / (12 * theta ** 2)


def _exp_damped_low(mp, theta, alpha):
    return (mp.pi / 3) * alpha * theta + (4 * mp.pi ** 3 / 15) * alpha * (3 - alpha ** 2) * theta ** 3


def _exp_damped_high(mp, theta, alpha):
    return 1 - alpha / (2 * mp.pi * theta) + (alpha ** 2 - 2) / (24 * theta ** 2)


def _exp_free_low(mp, theta):
    return (mp.pi / 3) * theta - (4 * mp.pi ** 3 / 15) * theta ** 3


# Rational summands as (P, Q) coefficient lists in nu, highest power first.
# Oscillator (omega0 = 1): gamma = alpha, omega_D = r alpha; free particle:
# gamma = 1, omega_D = r.  "energy" is the direct expectation, "partition"
# adds the -nu^2 gh'(nu) term of -d ln Z / d beta.

def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    p = [0] * (n - len(p)) + list(p)
    q = [0] * (n - len(q)) + list(q)
    return [a + b for a, b in zip(p, q)]


def _osc_drude(alpha, r, partition):
    gw = alpha * (r * alpha)         # gamma * omega_D
    wd = r * alpha
    num = [gw + 2, 2 * wd]           # 2 (nu + wd) + gamma wd nu
    den = _poly_add(_poly_mul([1, 0, 1], [1, wd]), [gw, 0])
    if partition:
        num = _poly_add(_poly_mul(num, [1, wd]), [gw, 0, 0])
        den = _poly_mul(den, [1, wd])
    return num, den


def _free_drude(r, partition):
    gw = r
    den = [1, r, gw]
    if partition:
        return [4 * gw, 2 * gw * r], _poly_mul(den, [1, r])
    return [2 * gw], den


_ROOTS: dict = {}


def _rational_sum(mp, num, den, s):
    """(S, dS/ds) for S(s) = sum_{n>=1} num(s n)/den(s n)."""
    cache_key = (tuple(str(c) for c in num), tuple(str(c) for c in den), mp.mp.dps)
    if cache_key not in _ROOTS:
        roots = mp.polyroots(den, maxsteps=200, extraprec=2 * DPS)
        dden = [c * (len(den) - 1 - i) for i, c in enumerate(den[:-1])]
        _ROOTS[cache_key] = [(q, mp.polyval(num, q) / mp.polyval(dden, q))
                             for q in roots]
    total = 0
    dtotal = 0
    for q, rho in _ROOTS[cache_key]:
        arg = 1 - q / s
        psi0 = mp.psi(0, arg)
        total += rho * psi0
        dtotal += rho * (psi0 / s ** 2 - mp.psi(1, arg) * q / s ** 3)
    return mp.re(-total / s), mp.re(dtotal)


def _sum_energy(mp, theta, num, den, weight):
    # E = weight * theta * (1 + S(2 pi theta)); dE/dtheta likewise
    s = 2 * mp.pi * theta
    total, dtotal = _rational_sum(mp, num, den, s)
    return weight * theta * (1 + total), weight * (1 + total + s * dtotal)


def _e_osc_drude(mp, theta, alpha, r, partition):
    return _sum_energy(mp, theta, *_osc_drude(alpha, r, partition), 1)[0]


def _c_osc_drude(mp, theta, alpha, r, partition):
    return _sum_energy(mp, theta, *_osc_drude(alpha, r, partition), 1)[1]


def _e_free_drude(mp, theta, r, partition):
    return _sum_energy(mp, theta, *_free_drude(r, partition), mp.mpf(1) / 2)[0]


def _c_free_drude_sum(mp, theta, r, partition):
    return _sum_energy(mp, theta, *_free_drude(r, partition), mp.mpf(1) / 2)[1]


def _gap_osc_drude(mp, theta, alpha, r):
    return _e_osc_drude(mp, theta, alpha, r, 1) - _e_osc_drude(mp, theta, alpha, r, 0)


def _gap_free_drude(mp, theta, r):
    return _e_free_drude(mp, theta, r, 1) - _e_free_drude(mp, theta, r, 0)


def _q2(mp, theta, alpha):
    return _sum_energy(mp, theta, [2], [1, alpha, 1], 1)[0]


_FORMULAS = {
    "c_damped": _c_damped,
    "s_damped": _s_damped,
    "e_reg_osc": _e_reg_osc,
    "c_undamped": _c_undamped,
    "c_free_ohmic": _c_free_ohmic,
    "c_free_drude": _c_free_drude,
    "exp_undamped_lowT": _exp_undamped_low,
    "exp_undamped_highT": _exp_undamped_high,
    "exp_damped_lowT": _exp_damped_low,
    "exp_damped_highT": _exp_damped_high,
    "exp_free_lowT": _exp_free_low,
    "e_osc_drude": _e_osc_drude,
    "c_osc_drude": _c_osc_drude,
    "e_free_drude": _e_free_drude,
    "c_free_drude_sum": _c_free_drude_sum,
    "gap_osc_drude": _gap_osc_drude,
    "gap_free_drude": _gap_free_drude,
    "q2": _q2,
}


def main() -> int:
    """Compute the references named on stdin, one key a line, as JSON."""
    try:
        import mpmath  # noqa: F401
    except ImportError:
        return NO_MPMATH_EXIT
    keys = sys.stdin.read().split()
    json.dump({k: float(evaluate(k)) for k in keys}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
