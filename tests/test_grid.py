"""Whole-grid evaluation: the closed forms, PoleSum and the sums on arrays of theta.

An array of temperatures must give, element by element, the values of the
per-theta float calls (up to the last bits, where numpy rounds complex
arithmetic differently from Python), fail where they fail, and leave the
float calls' types alone.  Values agree to AGREE_ABS absolute where they are
at most 1 in size (every C and S) and to AGREE_ABS relative above that, where
an absolute 1e-11 is below the last bit (E and the expansions at theta = 1e4).
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np
import pytest

from qbrownian import matsubara
from qbrownian.core import TWO_PI, ConvergenceError, DomainError
from qbrownian.free_particle import (_drude_pair, drude_specific_heat,
                                     ohmic_lowT_expansion, ohmic_specific_heat)
from qbrownian.matsubara import (DampingKernel, PoleSum, Prescription,
                                 _energy_sum, _prescription_gap, _summed, _system,
                                 energy_sum, position_variance_sum,
                                 prescription_gap, specific_heat_fd)
from qbrownian.oscillator import (_lambda_pm, damped_entropy, damped_specific_heat,
                                  damped_specific_heat_via_entropy,
                                  oscillator_expansion, undamped_thermo)
from qbrownian.specfun import _G, _K, _digamma, _h

from gamma_family import _g, _ln_gamma, _trigamma

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
    """(id, theta -> value) of PoleSum.energy, .heat and .entropy over both models."""
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
                    (f"{name} {route.value} C", poles.heat),
                    (f"{name} {route.value} S", poles.entropy)]
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
    # a float32 grid is computed in double: the float64 grid of its values
    single = GRID[start:].astype(np.float32)
    got, want = evaluate(fn, single), evaluate(fn, single.astype(float))
    if isinstance(want, ConvergenceError):
        assert type(got) is ConvergenceError and str(got) == str(want)
    else:
        assert got.dtype == np.float64 and np.array_equal(got, want)


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
    # a 2-d grid gives the oracle's values down to theta = 1e-9; where
    # 1/(2 pi theta) overflows it fails at its first such element
    got = damped_specific_heat(CANCELLING.reshape(2, 2), 1.0).C
    assert got == pytest.approx(np.reshape(CANCELLING_C["C"], (2, 2)), rel=1e-13, abs=0.0)
    with pytest.raises(ConvergenceError, match=r"at theta=1e-320\b"):
        damped_specific_heat(OVERFLOWING_AT.reshape(2, 2), 1.0)


def test_lambda_and_drude_pairs_on_a_grid():
    # the Drude pair x_pm is free of theta, and a x_pm is formed per element
    for alpha in ALPHAS:
        plus, minus = _lambda_pm(GRID, alpha)[:2]
        for i, t in enumerate(GRID):
            assert (plus[i], minus[i]) == _lambda_pm(float(t), alpha)[:2]


KERNELS = [("ln_gamma", _ln_gamma), ("digamma", _digamma), ("trigamma", _trigamma),
           ("g", _g), ("h", _h), ("G", lambda z: _G(z)[0]), ("K", lambda z: _K(z)[0])]


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


@pytest.mark.parametrize("kernel", [k for _, k in KERNELS], ids=[n for n, _ in KERNELS])
def test_kernels_pass_non_finite_arguments_through(kernel):
    # the kernels check nothing: inf, -inf and nan give a non-finite value,
    # as an array element and as a complex, and the call returns
    bad = [complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(math.nan, 0.0),
           complex(1.0, math.inf)]
    with np.errstate(all="ignore"):
        values = kernel(np.array([2.0] + bad, dtype=complex))
        scalars = [kernel(z) for z in bad]
    assert np.isfinite(values[0]) and not np.isfinite(values[1:]).any()
    assert not np.isfinite(scalars).any()


CANCELLING = np.array([2.0, 0.5, 1e-8, 1e-9])
OVERFLOWING_AT = np.array([2.0, 0.5, 1e-320, 1e-321])
# each form at CANCELLING, whose low thetas cancel the terms of its definition,
# from the definitions with 2 log10(1/theta) + 40 digits and the pole form with
# 60 (scripts/freeze_oracles.py)
CANCELLING_C = {
    "C": [0.9122878804922648378052238, 0.6314738690725160502261376,
          1.047197551196599421732359e-8, 1.047197551196597827912025e-9],
    "S": [1.741465676611806005404147, 0.5722621620362974327746379,
          5.235987755982992629977383e-9, 5.235987755982989094773283e-10],
    "C_S": [0.8594916832321662372277291, 0.588861449611827186449658,
            2.094395102393193882460448e-8, 2.094395102393195606214008e-9],
    "ohmic": [0.4297458416160831186138646, 0.294430724805913593224829,
              1.047197551196596941230224e-8, 1.047197551196597803107004e-9],
    "drude": [0.456110139885696320189952, 0.3108360903892679161196991,
              1.047197551196597106597033e-8, 1.047197551196597804760672e-9],
    "pole": [0.9186912333805249815357416, 0.6147921276572973994758721,
             1.047197551196599148877124e-8, 1.047197551196597825183473e-9],
}


@pytest.mark.parametrize("name, fn", [
    ("C", lambda t: damped_specific_heat(t, 1.0).C),
    ("S", lambda t: damped_entropy(t, 0.5).S),
    ("C_S", lambda t: damped_specific_heat_via_entropy(t, 2.0).C),
    ("ohmic", lambda t: ohmic_specific_heat(t).C),
    ("drude", lambda t: drude_specific_heat(t, 10.0).C),
    ("pole", PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.PARTITION).heat),
], ids=["C", "S", "C_S", "ohmic", "drude", "pole"])
def test_cancelling_grid_point_is_named(name, fn):
    # the grid down to theta = 1e-9 answers the oracle; one where
    # 1/(2 pi theta) overflows is refused at its first such point
    assert fn(CANCELLING) == pytest.approx(CANCELLING_C[name], rel=1e-13, abs=0.0)
    with pytest.raises(ConvergenceError, match=r"at theta=1e-320\b"):
        fn(OVERFLOWING_AT)


@pytest.mark.parametrize("fn", [fn for _, fn in FORMS] + [
    lambda t: position_variance_sum(t, 1.0)], ids=[name for name, _ in FORMS] + ["q2"])
def test_non_positive_grid_point_is_named(fn):
    # the float call's DomainError, naming the first bad element in C order
    with pytest.raises(DomainError, match=r"theta must be positive and finite, "
                                          r"got -1\.0$"):
        fn(np.array([0.5, -1.0, 0.0]))


def named_theta(exc) -> str | None:
    match = re.search(r"theta=([^,:\s]+)", str(exc))
    return match and match.group(1)


# forms whose arguments overflow at theta = 1e-307 although 1 / (2 pi theta)
# does not: lambda_+ ~ alpha / (2 pi theta), z_+ ~ r / (2 pi theta), and
# PoleSum's largest pole over 2 pi theta; the kernels give inf or nan there,
# which the forms refuse like any other non-finite value
OVERFLOWING = {
    "C alpha=1e3": lambda t: damped_specific_heat(t, 1e3).C,
    "S alpha=1e3": lambda t: damped_entropy(t, 1e3).S,
    "C_S alpha=1e3": lambda t: damped_specific_heat_via_entropy(t, 1e3).C,
    "drude r=1e4": lambda t: drude_specific_heat(t, 1e4).C,
    "osc-ohmic-1e3 energy E":
        PoleSum(1.0, DampingKernel.ohmic(1e3), Prescription.ENERGY).energy,
}


@pytest.mark.parametrize("grid", [
    pytest.param(np.array([1.0, theta]), id=repr(theta))
    for theta in (1e-320, 1e-300, 1e-163, 1e-160, 1e-120, 1e17, 1e200, 1e300, 1e-307)
] + [pytest.param(np.array([1e-320, 1e-8]), id="1e-320,1e-08")] + [
    pytest.param(np.array(theta), id=f"0-d {theta!r}") for theta in (1e-320, 1e-8)
] + [pytest.param(np.float64(1e-320), id="np.float64(1e-320)")])
def test_grid_overflows_as_the_float_call_does(grid):
    # a grid meets the float calls' checks: every float call that raises
    # raises a ConvergenceError naming its theta, and the grid raises the
    # same class naming its first failing element in C order; where both
    # errors come from checked_real, the same text up to the roundoff.  A 0-d
    # array or a numpy scalar is computed as its float, quietly
    for name, fn in FORMS + list(OVERFLOWING.items()):
        want = []
        for theta in grid.reshape(-1).tolist():
            try:
                want.append(fn(theta))
            except (ConvergenceError, DomainError) as exc:
                want = exc
                break
        if not isinstance(want, Exception):
            assert np.reshape(fn(grid), -1) == pytest.approx(want, rel=1e-12), name
            continue
        assert type(want) is ConvergenceError, (name, want)
        assert named_theta(want) == repr(theta), (name, want)
        with pytest.raises(ConvergenceError) as info:
            fn(grid)
        assert type(info.value) is ConvergenceError, name
        assert named_theta(info.value) == repr(theta), name
        got, want = str(info.value), str(want)
        if " lost" in want and " lost" in got:
            assert got.split(" lost")[0] == want.split(" lost")[0], name


# C at theta = 1e-307, where lambda_+ ~ alpha / (2 pi theta) is a double up to
# alpha ~ 1e2 (scripts/freeze_oracles.py); at alpha = 0 it is e^-(1e307)
C_AT_1E_307 = {0.0: 0.0, 0.5: 5.235987755982988256006393e-308,
               2.0: 2.094395102393195302402557e-307,
               5.0: 5.235987755982988256006393e-307}


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 5.0, 1e3])
def test_damped_heat_fails_alike_as_float_and_grid(alpha):
    # at theta = 1e-307 the float call and the grid answer alike where
    # lambda_+ is a double, and where lambda_+ overflows both reach
    # checked_real and say the same; a numpy alpha is named as its float
    if alpha in C_AT_1E_307:
        want = C_AT_1E_307[alpha]
        for got in (damped_specific_heat(1e-307, alpha).C,
                    damped_specific_heat(np.array([1.0, 1e-307]), alpha).C[1],
                    damped_specific_heat(1e-307, np.float64(alpha)).C):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        return
    with pytest.raises(ConvergenceError) as as_float:
        damped_specific_heat(1e-307, alpha)
    with pytest.raises(ConvergenceError) as on_grid:
        damped_specific_heat(np.array([1.0, 1e-307]), alpha)
    assert str(as_float.value) == str(on_grid.value)
    with pytest.raises(ConvergenceError) as numpy_alpha:
        damped_specific_heat(1e-307, np.float64(alpha))
    assert str(numpy_alpha.value) == str(as_float.value)


def test_float_in_gives_python_float_out():
    point = undamped_thermo(0.5)
    assert all(type(getattr(point, q)) is float for q in ("Z", "E", "S", "C"))
    poles = PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.ENERGY)
    for name, fn in closed_forms() + [("E", poles.energy), ("C", poles.heat),
                                      ("S", poles.entropy)]:
        assert type(fn(0.5)) is float, name
        # a numpy scalar or a 0-d array is computed as its Python float
        for x in (np.float32(0.3), np.float64(0.3), np.array(0.3)):
            got, want = fn(x), fn(float(x))
            assert type(got) is float and repr(got) == repr(want), (name, x)
    assert all(type(z) is complex
               for z in _lambda_pm(0.5, 1.0)[:2] + _drude_pair(10.0)[1:])
    # so is a numpy damping or frequency: computed as its Python float
    single = np.float32(0.3)
    for name, fn in [
            ("C", lambda a: damped_specific_heat(0.5, a).C),
            ("S", lambda a: damped_entropy(0.5, a).S),
            ("C_S", lambda a: damped_specific_heat_via_entropy(0.5, a).C),
            ("damped_lowT", lambda a: oscillator_expansion("damped_lowT", 0.5, a)),
            ("q2", lambda a: position_variance_sum(0.5, a).value),
            ("ohmic E", lambda a: PoleSum(1.0, DampingKernel.ohmic(a),
                                          Prescription.ENERGY).energy(0.5)),
            ("free E", lambda a: energy_sum(a, DampingKernel.ohmic(1.0), 2.0,
                                            Prescription.ENERGY).value),
            ("gap", lambda a: prescription_gap(a, DampingKernel.drude(1.0, 10.0),
                                               2.0).value)]:
        got, want = fn(single), fn(float(single))
        assert type(got) is float and repr(got) == repr(want), name


# the term-by-term sums on a grid: every row sums the head of the coldest
# theta of its group, at most twice its own, so a row is its float call's
# value up to the different head and tail, and that value exactly where both
# heads have the same length
SUM_GRID = np.logspace(-1.0, 1.0, 20)
SUM_SYSTEMS = {
    "osc-ohmic": (1.0, DampingKernel.ohmic(1.0)),
    "osc-drude": (1.0, DampingKernel.drude(1.0, 10.0)),
    "free-ohmic": (0.0, DampingKernel.ohmic(1.0)),
    "free-drude": (0.0, DampingKernel.drude(1.0, 10.0)),
}


def frequency_sums():
    """(id, (grid call, float call)) of each sum, both of beta.

    The energy sums and the gap are on a grid through their private kernels;
    the variance sum takes a grid of theta itself.
    """
    def variance(beta):
        return position_variance_sum(1.0 / beta, 1.0)

    out = [("osc-ohmic q2", (variance, variance))]
    for name, (omega0, kernel) in SUM_SYSTEMS.items():
        for route in Prescription:
            out.append((f"{name} {route.value} E",
                        (functools.partial(_energy_sum, omega0, kernel, route=route),
                         functools.partial(energy_sum, omega0, kernel, route=route))))
        out.append((f"{name} gap", (functools.partial(_prescription_gap, omega0, kernel),
                                    functools.partial(prescription_gap, omega0, kernel))))
    return out


SUMS = frequency_sums()


# and one-row grids: at theta = 1e-4 the Drude oscillator's head of 127324
# terms is added in more than one chunk; at 1e6 every head is the minimum 64
ROW_GRIDS = [SUM_GRID, np.array([1e-4]), np.array([1e6])]


@pytest.mark.parametrize("pair", [p for _, p in SUMS], ids=[n for n, _ in SUMS])
def test_sum_rows_match_their_float_calls(pair):
    on_grid, alone = pair
    for thetas in ROW_GRIDS:
        grid = on_grid(1.0 / thetas)
        floats = [alone(1.0 / t) for t in thetas.tolist()]
        assert grid.terms_used == max(f.terms_used for f in floats)
        for value, err, want in zip(grid.value.tolist(), grid.err.tolist(), floats):
            if want.terms_used == grid.terms_used:
                assert (value, err) == (want.value, want.err)
            else:
                assert abs(value - want.value) <= 4.0 * math.ulp(want.value)


# five decades, whose heads run from 64 to 127324 terms (Drude oscillator, r = 10)
DECADES = np.logspace(-4.0, 1.0, 20)
OSC_DRUDE = [(name, pair) for name, pair in SUMS if name.startswith("osc-drude")]


def _count_terms(monkeypatch) -> list:
    # the sizes of the t = radius / nu that each evaluation of head terms gets
    counted, terms = [], matsubara._terms

    def counting(system, t):
        counted.append(t.size)
        return terms(system, t)

    monkeypatch.setattr(matsubara, "_terms", counting)
    return counted


def test_grid_rows_add_at_most_twice_their_own_head(monkeypatch):
    counted = _count_terms(monkeypatch)
    omega0, kernel = SUM_SYSTEMS["osc-drude"]
    _energy_sum(omega0, kernel, 1.0 / DECADES, Prescription.ENERGY)
    on_grid = sum(counted)
    counted.clear()
    for t in DECADES.tolist():
        energy_sum(omega0, kernel, 1.0 / t, Prescription.ENERGY)
    assert on_grid <= 2 * sum(counted)


@pytest.mark.parametrize("pair", [p for _, p in OSC_DRUDE], ids=[n for n, _ in OSC_DRUDE])
def test_rows_over_decades_match_their_float_calls(pair):
    on_grid, alone = pair
    values = on_grid(1.0 / DECADES).value
    for value, t in zip(values.tolist(), DECADES.tolist()):
        want = alone(1.0 / t).value
        assert abs(value - want) <= 4.0 * math.ulp(want)


# the ohmic gaps are zero without a sum, so nothing refuses them
SUMMED = [(name, pair) for name, pair in SUMS if not name.endswith("ohmic gap")]


@pytest.mark.parametrize("pair", [p for _, p in SUMMED], ids=[n for n, _ in SUMMED])
def test_sum_refusals_name_the_first_failing_theta(pair, monkeypatch):
    on_grid, alone = pair
    cold = SUM_GRID.copy()
    cold[7] = 1e-8
    with pytest.raises(ConvergenceError, match=r"^at theta=1e-08: frequency sum needs"):
        on_grid(1.0 / cold)
    # no sum meets a relative bar below eps: the tail check names theta
    monkeypatch.setattr(matsubara, "_REL_TAIL", 1e-17)
    missed = r"^at theta={}: frequency sum error bar"
    with pytest.raises(ConvergenceError, match=missed.format(r"0\.1")):
        on_grid(1.0 / SUM_GRID)
    # and so do the later groups of a grid whose coldest rows are summed first
    with pytest.raises(ConvergenceError, match=missed.format(r"0\.1")):
        on_grid(1.0 / np.array([0.1, 1e-3, 1e-2]))
    with pytest.raises(ConvergenceError, match=missed.format(r"0\.37")):
        alone(1.0 / 0.37)


def test_term_cap_refuses_before_a_term_is_added(monkeypatch):
    # the coldest theta's head is beyond the cap: no term is evaluated
    evaluated = _count_terms(monkeypatch)
    # 1/(nu^2 + 1), with its poles bounded by 2
    system = _system(matsubara._variance_fraction, 0.0)
    assert system.bound == 2.0
    theta = SUM_GRID.copy()
    theta[7] = 1e-8
    with pytest.raises(ConvergenceError, match=r"^at theta=1e-08: frequency sum "
                                               r"needs 1\.27e\+08 > 100000000 terms$"):
        _summed(system, TWO_PI * theta, theta)
    assert evaluated == []
    # the float-only variance sum names its theta too
    with pytest.raises(ConvergenceError, match=r"^at theta=0\.37: frequency sum needs"):
        position_variance_sum(0.37, 1e136)
    # beyond alpha ~ 1e153 the radius is at least 2^512: its record is built
    # all the same, so the cap refuses cold and a hot theta answers
    with pytest.raises(ConvergenceError, match=r"^at theta=0\.37: frequency sum needs"):
        position_variance_sum(0.37, 1e154)
    hot = position_variance_sum(1e160, 1e154)
    assert hot.value == 1e160 and hot.err <= 1e-12 * hot.value


def test_float32_sum_grids_are_computed_in_double():
    single = SUM_GRID.astype(np.float32)
    for fn in (lambda t: position_variance_sum(t, 1.0),
               lambda t: specific_heat_fd(lambda u: u * u * u / (1.0 + u), t)):
        got, want = fn(single), fn(single.astype(float))
        assert got.value.dtype == got.err.dtype == np.float64
        assert np.array_equal(got.value, want.value)
        assert np.array_equal(got.err, want.err)


def test_fd_on_a_grid_matches_its_float_calls():
    # the same arithmetic on floats and arrays: the same bits
    def energy(t):
        return t * t * t / (1.0 + t)

    grid = specific_heat_fd(energy, SUM_GRID)
    for i, t in enumerate(SUM_GRID.tolist()):
        want = specific_heat_fd(energy, t)
        assert type(want.value) is float and type(want.err) is float
        assert (grid.value[i], grid.err[i]) == (want.value, want.err)
    # of the sums, whose rows differ from their float calls in the last
    # bits: within the two error bars, which carry the energies' roundoff
    omega0, kernel = SUM_SYSTEMS["osc-drude"]
    for route in Prescription:
        grid = specific_heat_fd(
            lambda t: _energy_sum(omega0, kernel, 1.0 / t, route).value, SUM_GRID)
        for i, t in enumerate(SUM_GRID.tolist()):
            want = specific_heat_fd(
                lambda u: energy_sum(omega0, kernel, 1.0 / u, route).value, t)
            assert abs(grid.value[i] - want.value) <= grid.err[i] + want.err
    # a non-finite energy names the first temperature that gave one
    with pytest.raises(ConvergenceError, match=r"^at theta=0\.2:"):
        specific_heat_fd(lambda t: np.where(t < 0.5, np.nan, t),
                         np.array([1.0, 0.2, 0.1]))


def _numbers(result):
    # a result's numbers as Python values, whose reprs show every bit
    if hasattr(result, "terms_used"):
        return _numbers(result.value), _numbers(result.err), result.terms_used
    if hasattr(result, "C"):
        return _numbers(result.C)
    return result.tolist() if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("fn, params", [
    (damped_specific_heat, {"alpha": 0.5}),
    (PoleSum(1.0, DampingKernel.drude(1.0, 10.0), Prescription.PARTITION).heat, {}),
    (position_variance_sum, {"alpha": 1.0}),
], ids=["closed form", "PoleSum.heat", "variance sum"])
def test_theta_by_keyword_is_theta_by_position(fn, params):
    for theta in (0.37, GRID[::20]):
        got, want = fn(theta=theta, **params), fn(theta, **params)
        assert repr(_numbers(got)) == repr(_numbers(want))
    # and a call without theta is refused as Python refuses it
    with pytest.raises(TypeError, match=r"missing 1 required positional "
                                        r"argument: 'theta'"):
        fn(**params)
