"""Print, per route and decade of theta, whether it answers, its cost and its error.

For each route and each decade theta = 10^k, k = -9..9 (or the k given as
arguments), one line `route k answered us_float us_grid rel_err`: whether a
float call at theta answered or refused, its best time in us, the best time
of one call on the 20-point grid logspace(k, k + 1, 20, endpoint=False), and,
for the closed C and S and PoleSum's E and S, the relative error at theta
against the mpmath references in ORACLES, frozen by scripts/freeze_oracles.py
("-" where there is none or no answer).  Then one line per route, `route decades=<k
that answered> exponent=<e>`, e the least-squares slope of log us_float
against log(1/theta) over the answered decades with theta <= 1, where the
north star asks for cost flat in 1/theta.  The routes are the closed forms
at alpha = 1 and cutoff ratio 10 and, for the Drude oscillator
(gamma, omega_D) = (1, 10) on the energy route, PoleSum.heat, PoleSum.energy,
PoleSum.entropy and the term-by-term energy_sum; then the routes whose nodes
are all real, summed in real arithmetic: the closed C and S at alpha = 5
([alpha=5]) and PoleSum's C and S of the free particle at cutoff ratio 10
on the energy route ([free,r=10]).

    PYTHONPATH=src python3 scripts/theta_scaling.py [K ...] [--repeats N]
"""

import math
import sys
import timeit

import numpy as np

from qbrownian import (ConvergenceError, DampingKernel, PoleSum, Prescription,
                       damped_entropy, damped_specific_heat, drude_specific_heat,
                       energy_sum, ohmic_specific_heat)

KERNEL = DampingKernel.drude(1.0, 10.0)
BUDGET_S = 0.02         # each timing repeats a call until it has run this long

# (k, route) -> the value at theta = 10^k, from scripts/freeze_oracles.py: the
# closed forms' C and S, the Drude oscillator's E and S from the pole form, and
# the real nodes' C and S: alpha = 5 and the free particle at cutoff ratio 10
ORACLES = {
    (-9, 'damped_specific_heat'): 1.0471975511965978e-9,
    (-9, 'damped_entropy'): 1.0471975511965978e-9,
    (-9, 'ohmic_specific_heat'): 1.0471975511965978e-9,
    (-9, 'drude_specific_heat'): 1.0471975511965978e-9,
    (-8, 'damped_specific_heat'): 1.0471975511965994e-8,
    (-8, 'damped_entropy'): 1.0471975511965983e-8,
    (-8, 'ohmic_specific_heat'): 1.0471975511965969e-8,
    (-8, 'drude_specific_heat'): 1.0471975511965971e-8,
    (-7, 'damped_specific_heat'): 1.0471975511967631e-7,
    (-7, 'damped_entropy'): 1.0471975511966528e-7,
    (-7, 'ohmic_specific_heat'): 1.047197551196515e-7,
    (-7, 'drude_specific_heat'): 1.0471975511965316e-7,
    (-6, 'damped_specific_heat'): 1.0471975512131344e-6,
    (-6, 'damped_entropy'): 1.0471975512021099e-6,
    (-6, 'ohmic_specific_heat'): 1.0471975511883294e-6,
    (-6, 'drude_specific_heat'): 1.047197551189983e-6,
    (-5, 'damped_specific_heat'): 1.0471975528502659e-5,
    (-5, 'damped_entropy'): 1.0471975517478205e-5,
    (-5, 'ohmic_specific_heat'): 1.0471975503697638e-5,
    (-5, 'drude_specific_heat'): 1.0471975505351306e-5,
    (-4, 'damped_specific_heat'): 0.00010471977165634301,
    (-4, 'damped_entropy'): 0.00010471976063188721,
    (-4, 'ohmic_specific_heat'): 0.00010471974685132166,
    (-4, 'drude_specific_heat'): 0.00010471974850498889,
    (-3, 'damped_specific_heat'): 0.0010472140881106389,
    (-3, 'damped_entropy'): 0.0010472030634701929,
    (-3, 'ohmic_specific_heat'): 0.0010471892830892947,
    (-3, 'drude_specific_heat'): 0.0010471909366711224,
    (-2, 'damped_specific_heat'): 0.010488535377454377,
    (-2, 'damped_entropy'): 0.010477492383420755,
    (-2, 'ohmic_specific_heat'): 0.010463730359578813,
    (-2, 'drude_specific_heat'): 0.01046537546508181,
    (-1, 'damped_specific_heat'): 0.12130516465068567,
    (-1, 'damped_entropy'): 0.11037075737629076,
    (-1, 'ohmic_specific_heat'): 0.098045416633267475,
    (-1, 'drude_specific_heat'): 0.099174798388448988,
    (0, 'damped_specific_heat'): 0.81620333829771438,
    (0, 'damped_entropy'): 1.174107391136215,
    (0, 'ohmic_specific_heat'): 0.37454892812903339,
    (0, 'drude_specific_heat'): 0.39929748443261499,
    (1, 'damped_specific_heat'): 0.98368701070881946,
    (1, 'damped_entropy'): 3.3187025121764132,
    (1, 'ohmic_specific_heat'): 0.48449168449150163,
    (1, 'drude_specific_heat'): 0.49664389911715966,
    (2, 'damped_specific_heat'): 0.99840430326562866,
    (2, 'damped_entropy'): 5.6067638122961972,
    (2, 'ohmic_specific_heat'): 0.49841260756449387,
    (2, 'drude_specific_heat'): 0.49995928412089418,
    (3, 'damped_specific_heat'): 0.99984080340962344,
    (3, 'damped_entropy'): 7.9079144547521014,
    (3, 'ohmic_specific_heat'): 0.49984088671388481,
    (3, 'drude_specific_heat'): 0.49999958430066621,
    (4, 'damped_specific_heat'): 0.99998408408904353,
    (4, 'damped_entropy'): 10.210356287678819,
    (4, 'ohmic_specific_heat'): 0.49998408492234779,
    (4, 'drude_specific_heat'): 0.49999999583430235,
    (5, 'damped_specific_heat'): 0.99999840844640243,
    (5, 'damped_entropy'): 12.512927056521743,
    (5, 'ohmic_specific_heat'): 0.49999840845473574,
    (5, 'drude_specific_heat'): 0.4999999999583343,
    (6, 'damped_specific_heat'): 0.99999984084501524,
    (6, 'damped_entropy'): 14.815510717119238,
    (6, 'ohmic_specific_heat'): 0.49999984084509857,
    (6, 'drude_specific_heat'): 0.49999999999958333,
    (7, 'damped_specific_heat'): 0.99999998408450527,
    (7, 'damped_entropy'): 17.118095666873814,
    (7, 'ohmic_specific_heat'): 0.49999998408450611,
    (7, 'drude_specific_heat'): 0.49999999999999583,
    (8, 'damped_specific_heat'): 0.99999999840845056,
    (8, 'damped_entropy'): 19.420680745543915,
    (8, 'ohmic_specific_heat'): 0.49999999840845057,
    (8, 'drude_specific_heat'): 0.49999999999999996,
    (9, 'damped_specific_heat'): 0.99999999984084506,
    (9, 'damped_entropy'): 21.723265837105566,
    (9, 'ohmic_specific_heat'): 0.49999999984084506,
    (9, 'drude_specific_heat'): 0.5,
    (-9, 'PoleSum.energy'): 0.72640997314920364,
    (-9, 'PoleSum.entropy'): 1.0471975511965978e-9,
    (-8, 'PoleSum.energy'): 0.72640997314920369,
    (-8, 'PoleSum.entropy'): 1.0471975511965983e-8,
    (-7, 'PoleSum.energy'): 0.72640997314920888,
    (-7, 'PoleSum.entropy'): 1.047197551196647e-7,
    (-6, 'PoleSum.energy'): 0.72640997314972724,
    (-6, 'PoleSum.entropy'): 1.0471975512015311e-6,
    (-5, 'PoleSum.energy'): 0.72640997320156352,
    (-5, 'PoleSum.entropy'): 1.0471975516899421e-5,
    (-4, 'PoleSum.energy'): 0.72640997838519177,
    (-4, 'PoleSum.entropy'): 0.00010471976005310321,
    (-3, 'PoleSum.energy'): 0.72641049675167935,
    (-3, 'PoleSum.entropy'): 0.0010472024846692992,
    (-2, 'PoleSum.energy'): 0.72646237005208063,
    (-2, 'PoleSum.entropy'): 0.010476911895184524,
    (-1, 'PoleSum.energy'): 0.73201943308367413,
    (-1, 'PoleSum.entropy'): 0.10970712583240958,
    (0, 'PoleSum.energy'): 1.2750390794764446,
    (0, 'PoleSum.entropy'): 1.1754824372656067,
    (1, 'PoleSum.energy'): 10.045685148035767,
    (1, 'PoleSum.entropy'): 3.3677724289992908,
    (2, 'PoleSum.energy'): 100.00495213451147,
    (2, 'PoleSum.entropy'): 5.6681657617023562,
    (3, 'PoleSum.energy'): 1000.0004995159997,
    (3, 'PoleSum.entropy'): 7.9707264229854128,
    (4, 'PoleSum.energy'): 10000.000049995155,
    (4, 'PoleSum.entropy'): 10.273311268801752,
    (5, 'PoleSum.energy'): 100000.00000499995,
    (5, 'PoleSum.entropy'): 12.575896359321121,
    (6, 'PoleSum.energy'): 1000000.0000005,
    (6, 'PoleSum.entropy'): 14.878481452290417,
    (7, 'PoleSum.energy'): 10000000.00000005,
    (7, 'PoleSum.entropy'): 17.181066545284215,
    (8, 'PoleSum.energy'): 100000000.0,
    (8, 'PoleSum.entropy'): 19.483651638278258,
    (9, 'PoleSum.energy'): 1000000000.0,
    (9, 'PoleSum.entropy'): 21.786236731272304,
    (-9, 'damped_specific_heat[alpha=5]'): 5.2359877559829881e-9,
    (-9, 'damped_entropy[alpha=5]'): 5.2359877559829888e-9,
    (-9, 'PoleSum.heat[free,r=10]'): 1.0471975511965978e-9,
    (-9, 'PoleSum.entropy[free,r=10]'): 1.0471975511965978e-9,
    (-8, 'damped_specific_heat[alpha=5]'): 5.2359877559828979e-8,
    (-8, 'damped_entropy[alpha=5]'): 5.2359877559829585e-8,
    (-8, 'PoleSum.heat[free,r=10]'): 1.0471975511965971e-8,
    (-8, 'PoleSum.entropy[free,r=10]'): 1.0471975511965975e-8,
    (-7, 'damped_specific_heat[alpha=5]'): 5.2359877559738933e-7,
    (-7, 'damped_entropy[alpha=5]'): 5.2359877559799568e-7,
    (-7, 'PoleSum.heat[free,r=10]'): 1.0471975511965316e-7,
    (-7, 'PoleSum.entropy[free,r=10]'): 1.0471975511965756e-7,
    (-6, 'damped_specific_heat[alpha=5]'): 5.235987755073471e-6,
    (-6, 'damped_entropy[alpha=5]'): 5.235987755679816e-6,
    (-6, 'PoleSum.heat[free,r=10]'): 1.047197551189983e-6,
    (-6, 'PoleSum.entropy[free,r=10]'): 1.0471975511943928e-6,
    (-5, 'damped_specific_heat[alpha=5]'): 5.2359876650312501e-5,
    (-5, 'damped_entropy[alpha=5]'): 5.235987725665742e-5,
    (-5, 'PoleSum.heat[free,r=10]'): 1.0471975505351306e-5,
    (-5, 'PoleSum.entropy[free,r=10]'): 1.0471975509761088e-5,
    (-4, 'damped_specific_heat[alpha=5]'): 0.00052359786608673677,
    (-4, 'damped_entropy[alpha=5]'): 0.00052359847242699324,
    (-4, 'PoleSum.heat[free,r=10]'): 0.00010471974850498889,
    (-4, 'PoleSum.entropy[free,r=10]'): 0.00010471975291476929,
    (-3, 'damped_specific_heat[alpha=5]'): 0.0052350788265118472,
    (-3, 'damped_entropy[alpha=5]'): 0.0052356847011380698,
    (-3, 'PoleSum.heat[free,r=10]'): 0.0010471909366711224,
    (-3, 'PoleSum.entropy[free,r=10]'): 0.0010471953463351886,
    (-2, 'damped_specific_heat[alpha=5]'): 0.051502964768588907,
    (-2, 'damped_entropy[alpha=5]'): 0.052067551455218094,
    (-2, 'PoleSum.heat[free,r=10]'): 0.01046537546508181,
    (-2, 'PoleSum.entropy[free,r=10]'): 0.010469773549887478,
    (-1, 'damped_specific_heat[alpha=5]'): 0.31063875543965485,
    (-1, 'damped_entropy[alpha=5]'): 0.41735608722686301,
    (-1, 'PoleSum.heat[free,r=10]'): 0.099174798388448988,
    (-1, 'PoleSum.entropy[free,r=10]'): 0.10274648064561233,
    (0, 'damped_specific_heat[alpha=5]'): 0.6462096798300107,
    (0, 'damped_entropy[alpha=5]'): 1.5176671056543942,
    (0, 'PoleSum.heat[free,r=10]'): 0.39929748443261499,
    (0, 'PoleSum.entropy[free,r=10]'): 0.66721805656948045,
    (1, 'damped_specific_heat[alpha=5]'): 0.92903975061243137,
    (1, 'damped_entropy[alpha=5]'): 3.3777008092181766,
    (1, 'PoleSum.heat[free,r=10]'): 0.49664389911715966,
    (1, 'PoleSum.entropy[free,r=10]'): 1.7434189419880299,
    (2, 'damped_specific_heat[alpha=5]'): 0.99213703092700985,
    (2, 'damped_entropy[alpha=5]'): 5.6130803691274316,
    (2, 'PoleSum.heat[free,r=10]'): 0.49995928412089418,
    (2, 'PoleSum.entropy[free,r=10]'): 2.8929307849463626,
    (3, 'damped_specific_heat[alpha=5]'): 0.99920518255284577,
    (3, 'damped_entropy[alpha=5]'): 7.9085505748860306,
    (3, 'PoleSum.heat[free,r=10]'): 0.49999958430066621,
    (3, 'PoleSum.entropy[free,r=10]'): 4.044203024568253,
    (4, 'damped_specific_heat[alpha=5]'): 0.99992043211072137,
    (4, 'damped_entropy[alpha=5]'): 10.210419944656417,
    (4, 'PoleSum.heat[free,r=10]'): 0.49999999583430235,
    (4, 'PoleSum.entropy[free,r=10]'): 5.195495365137553,
    (5, 'damped_specific_heat[alpha=5]'): 0.99999204234867767,
    (5, 'damped_entropy[alpha=5]'): 12.512933422669467,
    (5, 'PoleSum.heat[free,r=10]'): 0.4999999999583343,
    (5, 'PoleSum.entropy[free,r=10]'): 6.3467879095723985,
    (6, 'damped_specific_heat[alpha=5]'): 0.99999920422624287,
    (6, 'damped_entropy[alpha=5]'): 14.81551135373851,
    (6, 'PoleSum.heat[free,r=10]'): 0.49999999999958333,
    (6, 'PoleSum.entropy[free,r=10]'): 7.4980804560487967,
    (7, 'damped_specific_heat[alpha=5]'): 0.99999992042253804,
    (7, 'damped_entropy[alpha=5]'): 17.118095730535787,
    (7, 'PoleSum.heat[free,r=10]'): 0.49999999999999583,
    (7, 'PoleSum.entropy[free,r=10]'): 8.6493730025456132,
    (8, 'damped_specific_heat[alpha=5]'): 0.99999999204225294,
    (8, 'damped_entropy[alpha=5]'): 19.420680751910113,
    (8, 'PoleSum.heat[free,r=10]'): 0.49999999999999996,
    (8, 'PoleSum.entropy[free,r=10]'): 9.800665549042634,
    (9, 'damped_specific_heat[alpha=5]'): 0.99999999920422529,
    (9, 'damped_entropy[alpha=5]'): 21.723265837742186,
    (9, 'PoleSum.heat[free,r=10]'): 0.5,
    (9, 'PoleSum.entropy[free,r=10]'): 10.951958095539657,
}


def routes() -> list:
    poles = PoleSum(1.0, KERNEL, Prescription.ENERGY)
    free = PoleSum(0.0, KERNEL, Prescription.ENERGY)
    return [
        ("damped_specific_heat", lambda t: damped_specific_heat(t, 1.0).C),
        ("damped_entropy", lambda t: damped_entropy(t, 1.0).S),
        ("damped_specific_heat[alpha=5]", lambda t: damped_specific_heat(t, 5.0).C),
        ("damped_entropy[alpha=5]", lambda t: damped_entropy(t, 5.0).S),
        ("ohmic_specific_heat", lambda t: ohmic_specific_heat(t).C),
        ("drude_specific_heat", lambda t: drude_specific_heat(t, 10.0).C),
        ("PoleSum.heat", poles.heat),
        ("PoleSum.energy", poles.energy),
        ("PoleSum.entropy", poles.entropy),
        ("PoleSum.heat[free,r=10]", free.heat),
        ("PoleSum.entropy[free,r=10]", free.entropy),
        ("energy_sum", lambda t: energy_sum(1.0, KERNEL, 1.0 / t,
                                            Prescription.ENERGY).value),
    ]


def best_us(call, repeats: int) -> float:
    # the best of repeats timings, each of as many calls as fill BUDGET_S
    once = timeit.timeit(call, number=1)
    number = max(1, int(BUDGET_S / max(once, 1e-9)))
    return min(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e6


def exponent(points: list) -> float:
    # slope of log10 us against log10(1/theta) = -k, least squares
    if len(points) < 2:
        return math.nan
    x = np.array([-k for k, _ in points], float)
    y = np.log10([us for _, us in points])
    return float(np.polyfit(x, y, 1)[0])


def main(argv: list) -> int:
    repeats = 3
    if "--repeats" in argv:
        i = argv.index("--repeats")
        repeats = int(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    decades = [int(k) for k in argv] or list(range(-9, 10))
    if repeats < 1 or any(abs(k) > 300 for k in decades):
        raise SystemExit("K must lie in [-300, 300] and N be a positive count")
    for name, fn in routes():
        answered, costs = [], []
        for k in decades:
            theta, grid = 10.0 ** k, np.logspace(k, k + 1, 20, endpoint=False)
            try:
                value = fn(theta)
            except ConvergenceError:
                print(f"{name} {k} no - - -")
                continue
            us_float = best_us(lambda: fn(theta), repeats)
            try:
                fn(grid)
                us_grid = f"{best_us(lambda: fn(grid), repeats):.1f}"
            except ConvergenceError:
                us_grid = "-"
            want = ORACLES.get((k, name))
            error = "-" if want is None else f"{abs(value - want) / abs(want):.2e}"
            print(f"{name} {k} yes {us_float:.2f} {us_grid} {error}")
            answered.append(k)
            if k <= 0:
                costs.append((k, us_float))
        print(f"{name} decades={','.join(map(str, answered)) or '-'} "
              f"exponent={exponent(costs):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
