"""Real nodes in real arithmetic, and PoleSum's one kernel call per grid.

Where every node of a system is real (alpha >= 2, the Drude free particle
above the r = 4 band, the ohmic free particle, and a PoleSum whose every
group is one real pole) the kernels are pushed a float or a float64 array;
where any node is complex they are pushed complex numbers, as before.  A
PoleSum grid calls each kernel once over all its groups' nodes; the sums
group by group, written out here with each group's own kernel call, hold
it to the bit, refusals included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbrownian import free_particle, oscillator, specfun
from qbrownian.matsubara import _CLUSTER_NODES, DampingKernel, PoleSum, Prescription

GRID = np.logspace(-2.0, 2.0, 21)
ALPHA_TRIPLE = 8.0 / (3.0 * math.sqrt(3.0))
RATIO_TRIPLE = 27.0 / 8.0


@pytest.fixture
def pushed(monkeypatch) -> list:
    # the arguments that reach specfun._push, in call order
    arguments = []
    push = specfun._push

    def recording(*args):
        arguments.append(args[0])
        return push(*args)

    monkeypatch.setattr(specfun, "_push", recording)
    return arguments


def is_real(z) -> bool:
    return type(z) is float or (isinstance(z, np.ndarray) and z.dtype == np.float64)


def is_complex(z) -> bool:
    return type(z) is complex or (isinstance(z, np.ndarray) and z.dtype == np.complex128)


def closed_forms(alphas, ratios) -> list:
    """(id, theta -> value) of the damped C and S at alphas and the Drude C at ratios."""
    forms = []
    for alpha in alphas:
        forms += [(f"C alpha={alpha}", lambda t, a=alpha: oscillator.damped_specific_heat(t, a)),
                  (f"S alpha={alpha}", lambda t, a=alpha: oscillator.damped_entropy(t, a))]
    return forms + [(f"drude r={r}", lambda t, r=r: free_particle.drude_specific_heat(t, r))
                    for r in ratios]


def pole_sums(name: str, omega0: float, kernel: DampingKernel) -> list:
    """(id, theta -> value) of PoleSum's E, C and S on both routes."""
    return [(f"{name} {route.value} {quantity}",
             getattr(PoleSum(omega0, kernel, route), quantity))
            for route in Prescription for quantity in ("energy", "heat", "entropy")]


REAL = (closed_forms([2.0, 2.0 + 1e-9, 5.0, 1e3], [10.0])
        + [("ohmic", free_particle.ohmic_specific_heat)]
        + pole_sums("free-drude-10", 0.0, DampingKernel.drude(1.0, 10.0)))
COMPLEX = (closed_forms([0.5], [0.01, 4.0])
           + pole_sums("free-drude-0.01", 0.0, DampingKernel.drude(1.0, 0.01))
           + pole_sums("free-drude-critical", 0.0, DampingKernel.drude(1.0, 4.0))
           + pole_sums("osc-drude", 1.0, DampingKernel.drude(1.0, 10.0)))


@pytest.mark.parametrize("fn", [fn for _, fn in REAL], ids=[name for name, _ in REAL])
def test_real_nodes_are_pushed_in_real_arithmetic(fn, pushed):
    for theta in (0.37, GRID):
        pushed.clear()
        fn(theta)
        assert pushed and all(map(is_real, pushed)), [type(z) for z in pushed]


@pytest.mark.parametrize("fn", [fn for _, fn in COMPLEX], ids=[name for name, _ in COMPLEX])
def test_complex_nodes_are_pushed_complex(fn, pushed):
    for theta in (0.37, GRID):
        pushed.clear()
        fn(theta)
        assert pushed and all(map(is_complex, pushed)), [type(z) for z in pushed]


# one system per kind of group: simple poles, complex and real; a triple
# point's cluster; the double poles of critical damping and of r = 4
SYSTEMS = {
    "osc-drude": (1.0, DampingKernel.drude(1.0, 10.0)),
    "osc-drude-triple": (1.0, DampingKernel.drude(ALPHA_TRIPLE, ALPHA_TRIPLE * RATIO_TRIPLE)),
    "osc-ohmic-critical": (1.0, DampingKernel.ohmic(2.0)),
    "free-drude-critical": (0.0, DampingKernel.drude(1.0, 4.0)),
    "free-drude-10": (0.0, DampingKernel.drude(1.0, 10.0)),
}
CASES = [(f"{name} {route.value}", (*system, route))
         for name, system in SYSTEMS.items() for route in Prescription]
GRIDS = [np.logspace(-4.0, 4.0, 41), np.logspace(-3.0, 3.0, 12).reshape(3, 4).T,
         np.array([1.0, 1e-9, 1e9]), np.array([0.5, 1e-320, 1.0])]


def per_group_sum(self, s, terms):
    # PoleSum._sum with one kernel call per group: a single pole's node as a
    # scalar over s's shape, a cluster's nodes on a new axis 0
    total = magnitude = 0.0 * s
    for nodes, coefficients, _ in self._groups:
        if isinstance(nodes, np.ndarray):
            shape = (_CLUSTER_NODES,) + (1,) * np.ndim(s)
            value, size = terms(nodes.reshape(shape), s)
            weights = coefficients.reshape(shape)
            share, size = (weights * value).sum(axis=0), (abs(weights) * size).sum(axis=0)
        else:
            value, size = terms(nodes, s)
            share, size = coefficients * value, abs(coefficients) * size
        total = total + share.real
        magnitude = magnitude + size
    return total, magnitude


def outcome(fn, theta):
    # the value's bytes and shape, or the refusal's class and text
    try:
        value = fn(theta)
    except Exception as exc:      # the two sides must refuse alike
        return type(exc).__name__, str(exc)
    return np.asarray(value).tobytes(), np.shape(value)


@pytest.mark.parametrize("case", [c for _, c in CASES], ids=[name for name, _ in CASES])
def test_one_call_grid_is_the_per_group_sums_to_the_bit(case, monkeypatch):
    omega0, kernel, route = case
    poles = PoleSum(omega0, kernel, route)
    for quantity in ("energy", "heat", "entropy"):
        fn = getattr(poles, quantity)
        got = [outcome(fn, theta) for theta in GRIDS]
        with monkeypatch.context() as patch:
            patch.setattr(PoleSum, "_sum", per_group_sum)
            want = [outcome(fn, theta) for theta in GRIDS]
        assert got == want, quantity
        assert got[-1][0] == "ConvergenceError"


def test_the_systems_have_the_groups_they_stand_for():
    def kinds(name, route=Prescription.ENERGY):
        groups = PoleSum(*SYSTEMS[name], route)._groups
        return sorted({type(nodes).__name__ for nodes, _, _ in groups})

    assert kinds("osc-drude") == ["complex"]
    assert kinds("free-drude-10") == kinds("free-drude-10", Prescription.PARTITION) == ["float"]
    for name in ("osc-drude-triple", "osc-ohmic-critical", "free-drude-critical"):
        assert "ndarray" in kinds(name), name


@pytest.mark.parametrize("case", [c for _, c in CASES], ids=[name for name, _ in CASES])
def test_a_grid_pushes_once_per_kernel_and_a_float_once_per_group(case, pushed):
    # a float call evaluates group by group: the heat's h pushes at every
    # group, while E's K and S's G push only where |z| < 12
    poles = PoleSum(*case)
    for quantity in ("energy", "heat", "entropy"):
        pushed.clear()
        getattr(poles, quantity)(GRID)
        assert len(pushed) == 1, quantity
    pushed.clear()
    poles.heat(0.05)
    assert len(pushed) == len(poles._groups)
