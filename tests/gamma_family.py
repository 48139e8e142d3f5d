"""psi', ln Gamma and g for the tests, formed from specfun's private kernels.

The package keeps none of the three: its sums read only h, G, K and g's
terms.  Each helper gives the bits that the tests and scripts/repr_dump.py
pinned when the package had its own; the dump keeps a copy of its own.
"""

from __future__ import annotations

from qbrownian.core import where
from qbrownian.specfun import (_HALF_LOG_TWO_PI, _LN_GAMMA, _g_terms, _h, _log, _push,
                               _series)


def _trigamma(z):
    # psi'(z) = 1/z + (1/2 + h(z)) / z^2, which h sums without cancellation
    return (1.0 + (0.5 + _h(z)) / z) / z


def _ln_gamma_terms(z):
    # ln Gamma(z)'s two terms from a push of its own, which g's shared push
    # must match: Stirling's series at z + k and -sum_j ln(z + j), j < k
    w, logs = _push(z, _log)
    rw = 1.0 / w
    return ((w - 0.5) * _log(w) - w + _HALF_LOG_TWO_PI
            + _series(0.0 + 0.0j, rw, rw * rw, _LN_GAMMA)), -logs


def _ln_gamma(z):
    # ln Gamma(z), the sum of _ln_gamma_terms
    stirling, minus_logs = _ln_gamma_terms(z)
    return stirling + minus_logs


def _g(z):
    # g(z) = ln Gamma(1 + z) - z psi(1 + z), the sum of _g_terms; g(0) = 0
    # exactly, not the roundoff of ln Gamma(1)
    stirling, minus_logs, minus_z_psi = _g_terms(z)
    return where(z == 0, 0.0j, stirling + minus_logs + minus_z_psi)
