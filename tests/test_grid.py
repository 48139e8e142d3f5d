"""Whole-grid evaluation: the closed forms and PoleSum on arrays of theta.

An array of temperatures must give, element by element, the values of the
per-theta float calls (up to the last bits, where numpy rounds complex
arithmetic differently from Python), fail where they fail, and leave the
float calls' types alone.  Values agree to AGREE_ABS absolute where they are
at most 1 in size (every C and S) and to AGREE_ABS relative above that, where
an absolute 1e-11 is below the last bit (E and the expansions at theta = 1e4).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbrownian.core import ConvergenceError, DomainError
from qbrownian.free_particle import (drude_specific_heat, drude_z_pm,
                                     ohmic_lowT_expansion, ohmic_specific_heat)
from qbrownian.matsubara import DampingKernel, PoleSum, Prescription
from qbrownian.oscillator import (damped_entropy, damped_specific_heat,
                                  damped_specific_heat_via_entropy, lambda_pm,
                                  oscillator_expansion, undamped_thermo)
from qbrownian.specfun import (_digamma, _g, _g_prime, _ln_gamma, _polygamma,
                               _trigamma)

GRID = np.logspace(-4.0, 4.0, 241)
ALPHAS = (0.0, 0.5, 2.0, 5.0)
RATIOS = (0.01, 1.0, 4.0, 10.0, math.inf)
ALPHA_TRIPLE = 8.0 / (3.0 * math.sqrt(3.0))
RATIO_TRIPLE = 27.0 / 8.0
AGREE_ABS = 1e-11


def closed_forms():
    """(id, theta -> value) of every closed form and expansion."""
    forms = [("undamped_" + q, lambda t, q=q: getattr(undamped_thermo(t), q))
             for q in ("Z", "E", "S", "C")]
    for alpha in ALPHAS:
        forms += [
            (f"C alpha={alpha}", lambda t, a=alpha: damped_specific_heat(t, a).C),
            (f"S alpha={alpha}", lambda t, a=alpha: damped_entropy(t, a).S),
            (f"C_S alpha={alpha}",
             lambda t, a=alpha: damped_specific_heat_via_entropy(t, a).C)]
    forms += [(f"drude r={r}", lambda t, r=r: drude_specific_heat(t, r).C)
              for r in RATIOS]
    forms += [("ohmic", lambda t: ohmic_specific_heat(t).C),
              ("ohmic_lowT", ohmic_lowT_expansion)]
    forms += [(kind, lambda t, k=kind: oscillator_expansion(k, t, 1.3))
              for kind in ("undamped_lowT", "undamped_highT", "damped_lowT",
                           "damped_highT")]
    return forms


def pole_sums():
    """(id, theta -> value) of PoleSum.energy and .heat over both models."""
    systems = {
        "osc-ohmic-0.5": (1.0, DampingKernel.ohmic(0.5)),
        "osc-ohmic-critical": (1.0, DampingKernel.ohmic(2.0)),
        "osc-ohmic-5": (1.0, DampingKernel.ohmic(5.0)),
        "osc-undamped": (1.0, DampingKernel.ohmic(0.0)),
        "osc-drude": (1.0, DampingKernel.drude(1.0, 10.0)),
        "osc-drude-triple": (1.0, DampingKernel.drude(ALPHA_TRIPLE,
                                                      ALPHA_TRIPLE * RATIO_TRIPLE)),
        "free-ohmic": (0.0, DampingKernel.ohmic(1.0)),
        "free-drude-critical": (0.0, DampingKernel.drude(1.0, 4.0)),
        "free-drude-0.01": (0.0, DampingKernel.drude(1.0, 0.01)),
        "free-drude-1": (0.0, DampingKernel.drude(1.0, 1.0)),
    }
    out = []
    for name, (omega0, kernel) in systems.items():
        for route in Prescription:
            poles = PoleSum(omega0, kernel, route)
            out += [(f"{name} {route.value} E", poles.energy),
                    (f"{name} {route.value} C", poles.heat)]
    return out


FORMS = closed_forms() + pole_sums()


def evaluate(fn, theta):
    try:
        return fn(theta)
    except ConvergenceError as exc:
        return exc


@pytest.mark.parametrize("fn", [fn for _, fn in FORMS], ids=[name for name, _ in FORMS])
def test_grid_matches_per_theta_floats(fn):
    scalars = [evaluate(fn, float(t)) for t in GRID]
    failed = [i for i, v in enumerate(scalars) if isinstance(v, ConvergenceError)]
    if failed:
        # the grid fails with the float call's error at its first failing theta
        # and names its inputs; the roundoff it reports may differ in the last digit
        with pytest.raises(ConvergenceError) as info:
            fn(GRID)
        assert (str(info.value).split(" lost")[0]
                == str(scalars[failed[0]]).split(" lost")[0])
    start = failed[-1] + 1 if failed else 0
    values = fn(GRID[start:])
    assert isinstance(values, np.ndarray) and values.shape == GRID[start:].shape
    want = np.array(scalars[start:])
    excess = np.abs(values - want) / np.maximum(1.0, np.abs(want))
    assert np.all(excess <= AGREE_ABS), excess.max()


def test_grid_of_any_shape():
    # a 2-d grid gives the values of the flat grid, in any memory layout
    # (C order, Fortran order, strided), and fails at the first failing
    # element in C order
    flat = GRID[20::9][:24]
    for _, fn in FORMS:
        values = fn(flat)
        assert np.array_equal(fn(flat.reshape(4, 6)), values.reshape(4, 6))
        assert np.array_equal(fn(flat.reshape(6, 4).T), values.reshape(6, 4).T)
        assert np.array_equal(fn(flat[::2]), values[::2])
    with pytest.raises(ConvergenceError, match=r"at theta=1e-08\b"):
        damped_specific_heat(CANCELLING.reshape(2, 2), 1.0)


def test_lambda_and_drude_pairs_on_a_grid():
    for alpha in ALPHAS:
        plus, minus = lambda_pm(GRID, alpha)
        for i, t in enumerate(GRID):
            assert (plus[i], minus[i]) == lambda_pm(float(t), alpha)
    for ratio in RATIOS[:-1]:
        plus, minus = drude_z_pm(GRID, ratio)
        for i, t in enumerate(GRID):
            assert (plus[i], minus[i]) == drude_z_pm(float(t), ratio)


KERNELS = [("ln_gamma", _ln_gamma), ("digamma", _digamma), ("trigamma", _trigamma),
           ("g", _g), ("g_prime", _g_prime)]
KERNELS += [(f"polygamma_{n}", lambda z, n=n: _polygamma(n, z)) for n in range(2, 6)]


@pytest.mark.parametrize("kernel", [k for _, k in KERNELS], ids=[n for n, _ in KERNELS])
def test_array_kernels_are_exactly_conjugate_symmetric(kernel):
    rng = np.random.default_rng(7)
    z = rng.uniform(-0.9, 40.0, 4000) + 1j * rng.uniform(-40.0, 40.0, 4000)
    z[:100] = z[:100].real + 0.0j           # real arguments, imaginary part +0
    assert np.array_equal(kernel(z.conj()), kernel(z).conj())


@pytest.mark.parametrize("kernel", [k for _, k in KERNELS], ids=[n for n, _ in KERNELS])
def test_array_kernels_match_their_scalar_calls(kernel):
    rng = np.random.default_rng(8)
    z = rng.uniform(-0.9, 40.0, 300) + 1j * rng.uniform(-40.0, 40.0, 300)
    values = kernel(z)
    for zi, vi in zip(z.tolist(), values.tolist()):
        assert abs(vi - kernel(zi)) <= 1e-12 * max(1.0, abs(vi))


CANCELLING = np.array([2.0, 0.5, 1e-8, 1e-9])


@pytest.mark.parametrize("fn", [
    lambda t: damped_specific_heat(t, 1.0).C,
    lambda t: damped_entropy(t, 0.5).S,
    lambda t: damped_specific_heat_via_entropy(t, 2.0).C,
    lambda t: ohmic_specific_heat(t).C,
    lambda t: drude_specific_heat(t, 10.0).C,
    PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.PARTITION).heat,
], ids=["C", "S", "C_S", "ohmic", "drude", "pole"])
def test_cancelling_grid_point_is_named(fn):
    with pytest.raises(ConvergenceError, match=r"at theta=1e-08\b"):
        fn(CANCELLING)


@pytest.mark.parametrize("theta", [1e-320, 1e-300, 1e300])
def test_grid_overflows_as_the_float_call_does(theta):
    # numpy overflows silently inside the closed forms, as float arithmetic
    # does, so a grid meets the float call's check rather than a RuntimeWarning
    grid = np.array([1.0, theta])
    for name, fn in FORMS:
        try:
            want = fn(theta)
        except DomainError:
            # a non-finite argument met by specfun: its nan parts may differ
            with pytest.raises(DomainError):
                fn(grid)
            continue
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as info:
                fn(grid)
            assert str(info.value).split(" lost")[0] == str(exc).split(" lost")[0], name
            continue
        except (ArithmeticError, ValueError):
            continue        # float arithmetic itself raised: no check to meet
        assert fn(grid)[1] == pytest.approx(want, rel=1e-12), name


def test_float_in_gives_python_float_out():
    point = undamped_thermo(0.5)
    assert all(type(getattr(point, q)) is float for q in ("Z", "E", "S", "C"))
    poles = PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.ENERGY)
    for name, fn in closed_forms() + [("E", poles.energy), ("C", poles.heat)]:
        assert type(fn(0.5)) is float, name
    assert all(type(z) is complex for z in lambda_pm(0.5, 1.0) + drude_z_pm(0.5, 10.0))
