"""Generate frozen oracle values for the test suite with mpmath at 40 digits.

Run manually; paste the printed literals into the tests. Every closed form here
is evaluated straight from its defining formula (digamma/trigamma/loggamma of
the root combinations, Richardson-accelerated Matsubara sums via mp.nsum, direct
mpmath quadrature of the spectral integrals), independent of the library code.
"""

import mpmath as mp

mp.mp.dps = 40


def show(label, value):
    if isinstance(value, mp.mpc):
        print(f"{label} = complex({mp.nstr(value.real, 25)}, {mp.nstr(value.imag, 25)})")
    else:
        print(f"{label} = {mp.nstr(value, 25)}")


# ---------------------------------------------------------------- specfun
show("ln_gamma(3.7+2.1j)", mp.loggamma(mp.mpc("3.7", "2.1")))
show("digamma(0.5+5j)", mp.psi(0, mp.mpc("0.5", "5")))
show("trigamma(2.5-1.3j)", mp.psi(1, mp.mpc("2.5", "-1.3")))
show("g(10)", mp.loggamma(11) - 10 * mp.psi(0, 11))
show("g(0.8+0.3j)", mp.loggamma(mp.mpc("1.8", "0.3"))
     - mp.mpc("0.8", "0.3") * mp.psi(0, mp.mpc("1.8", "0.3")))


# ------------------------------------------------------------- oscillator
def lam_pm(theta, alpha):
    s = 1 / (2 * mp.pi * theta)
    half = alpha / 2
    root = mp.sqrt(mp.mpc(half * half - 1))
    return s * (half + root), s * (half - root)


def c_damped(theta, alpha):
    lp, lm = lam_pm(theta, alpha)
    a = alpha / (2 * mp.pi * theta)
    val = 1 - a + lp**2 * mp.psi(1, 1 + lp) + lm**2 * mp.psi(1, 1 + lm)
    assert abs(mp.im(val)) < mp.mpf("1e-30")
    return mp.re(val)


def s_damped(theta, alpha):
    lp, lm = lam_pm(theta, alpha)
    a = alpha / (2 * mp.pi * theta)

    def g(z):
        return mp.loggamma(1 + z) - z * mp.psi(0, 1 + z)

    val = 1 + mp.log(theta) + a + g(lp) + g(lm)
    assert abs(mp.im(val)) < mp.mpf("1e-30")
    return mp.re(val)


def e_reg_osc(theta, alpha):
    # term-wise gamma/nu subtraction + fixed-frequency-cutoff compensator,
    # reference frequency omega_0
    lp, lm = lam_pm(theta, alpha)
    a = alpha / (2 * mp.pi * theta)
    val = theta * (1 - lp * mp.psi(0, 1 + lp) - lm * mp.psi(0, 1 + lm)
                   + a * mp.log(1 / (2 * mp.pi * theta)))
    assert abs(mp.im(val)) < mp.mpf("1e-30")
    return mp.re(val)


for th, al in [(1, 1), (0.5, 2), (2, 5), (0.01, 1)]:
    show(f"C_damped({th},{al})", c_damped(mp.mpf(th), mp.mpf(al)))
for th, al in [(1, 1), (0.2, 0.5), (1000, 1)]:
    show(f"S_damped({th},{al})", s_damped(mp.mpf(th), mp.mpf(al)))
show("E_reg_osc(1,1)", e_reg_osc(mp.mpf(1), mp.mpf(1)))

x = mp.mpf(1)  # 1/theta at theta=1
show("undamped C(1)", (x / (2 * mp.sinh(x / 2))) ** 2)
show("undamped E(1)", x / x / 2 + 1 / mp.expm1(x))  # hbar*omega0 units
show("undamped S(1)", x / mp.expm1(x) - mp.log(-mp.expm1(-x)))
show("undamped Z(1)", 1 / (2 * mp.sinh(x / 2)))
for th in ("1e6", "1e9", "1e12", "1e16", "1e100"):
    x = 1 / mp.mpf(th)
    show(f"undamped S({th})", x / mp.expm1(x) - mp.log(-mp.expm1(-x)))
for th in ("1e163", "1e200", "1e300"):
    x = 1 / mp.mpf(th)
    show(f"undamped Z({th})", 1 / (2 * mp.sinh(x / 2)))
    show(f"undamped E({th})", mp.mpf(1) / 2 + 1 / mp.expm1(x))
    show(f"undamped S({th})", x / mp.expm1(x) - mp.log(-mp.expm1(-x)))


# ---------------------------------------------------------- free particle
def c_free_ohmic(theta):
    a = 1 / (2 * mp.pi * theta)
    return mp.mpf(1) / 2 - a + a * a * mp.psi(1, 1 + a)


def z_pm(theta, r):
    s = mp.sqrt(mp.mpc(1 - 4 / r))
    z0 = r / (4 * mp.pi * theta)
    return z0 * (1 + s), z0 * (1 - s), s, z0


def c_free_drude(theta, r):
    a = 1 / (2 * mp.pi * theta)
    zp, zm, s, z0 = z_pm(theta, r)
    if abs(s) < mp.mpf("1e-20"):
        bracket_over_s = 2 * z0 * (mp.psi(1, 1 + z0) + z0 * mp.psi(2, 1 + z0))
    else:
        bracket_over_s = (zp * mp.psi(1, 1 + zp) - zm * mp.psi(1, 1 + zm)) / s
    val = mp.mpf(1) / 2 - a * bracket_over_s
    assert abs(mp.im(val)) < mp.mpf("1e-30")
    return mp.re(val)


def e_reg_free(theta):
    a = 1 / (2 * mp.pi * theta)
    return theta / 2 - mp.psi(0, 1 + a) / (2 * mp.pi) + mp.log(a) / (2 * mp.pi)


def e_free_drude(theta, r):
    zp, zm, s, z0 = z_pm(theta, r)
    val = theta / 2 + (mp.psi(0, 1 + zp) - mp.psi(0, 1 + zm)) / (2 * mp.pi * s)
    assert abs(mp.im(val)) < mp.mpf("1e-30")
    return mp.re(val)


for th in [0.5, 2.0]:
    show(f"C_free_ohmic({th})", c_free_ohmic(mp.mpf(th)))
show("C_free_ohmic(1/2pi)", c_free_ohmic(1 / (2 * mp.pi)))
show("pi^2/6 - 3/2", mp.pi**2 / 6 - mp.mpf(3) / 2)
for th, r in [(0.5, 1.0), (1.0, 10.0), (0.5, 0.5), (0.5, 4.0)]:
    show(f"C_free_drude({th},{r})", c_free_drude(mp.mpf(th), mp.mpf(r)))
show("E_reg_free(0.5)", e_reg_free(mp.mpf("0.5")))
show("E_free_drude(0.5,1)", e_free_drude(mp.mpf("0.5"), mp.mpf(1)))
show("q2_undamped(1)", mp.coth(mp.mpf(1) / 2) / 2)


# -------------------------------------------------- matsubara brute sums
def sum_em(f):
    # Richardson-accelerated nsum; mp.sumem underestimates these 1/n^2 tails
    # by ~1e-4 at default settings (checked against exact digamma closed forms)
    return mp.nsum(f, [1, mp.inf])


def drude_osc_sum(theta, alpha, r, partition):
    # oscillator scaling: omega_0 = 1, gamma = alpha, omega_D = r*alpha
    wd = r * alpha

    def term(n):
        nu = 2 * mp.pi * n * theta
        gh = alpha * wd / (nu + wd)
        ghp = -alpha * wd / (nu + wd) ** 2
        num = 2 + nu * gh
        if partition:
            num -= nu * nu * ghp
        return num / (nu * nu + nu * gh + 1)

    return theta * (1 + sum_em(term))


def drude_osc_gap(theta, alpha, r):
    wd = r * alpha

    def term(n):
        nu = 2 * mp.pi * n * theta
        gh = alpha * wd / (nu + wd)
        ghp = -alpha * wd / (nu + wd) ** 2
        return -nu * nu * ghp / (nu * nu + nu * gh + 1)

    return theta * sum_em(term)


def drude_free_sum(theta, r):
    # free-particle scaling: gamma = 1, omega_D = r
    def term(n):
        nu = 2 * mp.pi * n * theta
        gh = r / (nu + r)
        return gh / (nu + gh)

    return (theta / 2) * (1 + 2 * sum_em(term))


def q2_matsubara(theta, alpha):
    def term(n):
        nu = 2 * mp.pi * n * theta
        return 1 / (nu * nu + nu * alpha + 1)

    return theta * (1 + 2 * sum_em(term))


ee = drude_osc_sum(mp.mpf(1), mp.mpf(1), mp.mpf(10), False)
ez = drude_osc_sum(mp.mpf(1), mp.mpf(1), mp.mpf(10), True)
gap = drude_osc_gap(mp.mpf(1), mp.mpf(1), mp.mpf(10))
show("E_drude_osc_energy(1,1,r10)", ee)
show("E_drude_osc_partition(1,1,r10)", ez)
show("gap_drude_osc(1,1,r10)", gap)
print("# gap identity residual:", mp.nstr(abs(ez - ee - gap), 5))

ef = drude_free_sum(mp.mpf("0.5"), mp.mpf(1))
show("E_drude_free_sum(0.5,r1)", ef)
print("# closed-vs-sum residual:", mp.nstr(abs(ef - e_free_drude(mp.mpf("0.5"), mp.mpf(1))), 5))

q2m = q2_matsubara(mp.mpf(1), mp.mpf(1))
show("q2_matsubara(1,1)", q2m)


# ---------------------------- matsubara sums in digamma pole form, any theta
def roots(denominator):
    # poles 100 decades apart, and a pole near -omega_D next to the partition
    # route's own, converge with four times the working precision to spare
    return mp.polyroots(denominator, maxsteps=500, extraprec=max(400, 4 * mp.mp.prec))


def pole_sum(numerator, denominator, s):
    # sum_{n>=1} P(s n) / Q(s n) = -(1/s) sum_i r_i psi(1 - p_i/s), for
    # deg Q >= deg P + 2 with simple poles p_i and residues r_i = P/Q'
    dq = [c * (len(denominator) - 1 - i) for i, c in enumerate(denominator[:-1])]
    total = 0
    for p in roots(denominator):
        total += mp.polyval(numerator, p) / mp.polyval(dq, p) * mp.psi(0, 1 - p / s)
    return mp.re(-total / s)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def osc_drude_fraction(gamma, wd, partition):
    # omega_0 = 1: the summand's numerator and monic denominator, multiplied
    # through by (nu + wd), and once more for the partition route's gh'
    q = gamma * wd
    cubic = [1, wd, 1 + q, wd]
    if partition:
        return [2 + 2 * q, 4 * wd + q * wd, 2 * wd * wd], poly_mul(cubic, [1, wd])
    return [2 + q, 2 * wd], cubic


def e_osc_drude(theta, alpha, r, partition):
    # omega_0 = 1, gamma = alpha, omega_D = r alpha
    numerator, denominator = osc_drude_fraction(alpha, r * alpha, partition)
    return theta * (1 + pole_sum(numerator, denominator, 2 * mp.pi * theta))


def gap_osc_drude(theta, alpha, r):
    wd = r * alpha
    q = alpha * wd
    quartic = poly_mul([1, wd, 1 + q, wd], [1, wd])
    return theta * pole_sum([q, 0, 0], quartic, 2 * mp.pi * theta)


def e_free_drude_sum(theta, r, partition):
    # gamma = 1, omega_D = r: twice the oscillator's summand at omega_0 = 0
    s = 2 * mp.pi * theta
    quadratic = [1, r, r]
    if partition:
        numerator, denominator = [4 * r, 2 * r * r], poly_mul(quadratic, [1, r])
    else:
        numerator, denominator = [2 * r], quadratic
    return theta / 2 * (1 + pole_sum(numerator, denominator, s))


def q2_pole_sum(theta, alpha):
    return theta * (1 + 2 * pole_sum([1], [1, alpha, 1], 2 * mp.pi * theta))


for th in ("1e-3", "0.05", "20"):
    label = th
    th = mp.mpf(th)
    for route in ("energy", "partition"):
        show(f"E_osc_drude({label},1,r10,{route})",
             e_osc_drude(th, mp.mpf(1), mp.mpf(10), route == "partition"))
        show(f"E_free_drude({label},r10,{route})",
             e_free_drude_sum(th, mp.mpf(10), route == "partition"))
    show(f"gap_osc_drude({label},1,r10)", gap_osc_drude(th, mp.mpf(1), mp.mpf(10)))
    show(f"E_reg_osc({label},1)", e_reg_osc(th, mp.mpf(1)))
    show(f"E_reg_free({label})", e_reg_free(th))
    show(f"q2_pole_sum({label},1)", q2_pole_sum(th, mp.mpf(1)))
# the pole form against the nsum oracles above, at theta = 1
print("# pole form vs nsum residuals:",
      mp.nstr(abs(e_osc_drude(mp.mpf(1), mp.mpf(1), mp.mpf(10), True) - ez), 5),
      mp.nstr(abs(gap_osc_drude(mp.mpf(1), mp.mpf(1), mp.mpf(10)) - gap), 5),
      mp.nstr(abs(q2_pole_sum(mp.mpf(1), mp.mpf(1)) - q2m), 5))


# ----------------------------------------------------- spectral integrals
def spectral_breaks(theta, alpha):
    # the thermal scale and both sides of the resonance, so that narrow
    # peaks and low-temperature edges fall on subinterval ends
    pts = {mp.mpf(0), theta, 10 * theta, 1 - 10 * alpha, 1 - alpha, mp.mpf(1),
           1 + alpha, 1 + 10 * alpha, mp.mpf(2), 2 + 40 * theta}
    return sorted(p for p in pts if p >= 0) + [mp.inf]


def f0_quad(theta, alpha):
    def ig(w):
        den = (w * w - 1) ** 2 + alpha * alpha * w * w
        return alpha * w * mp.coth(w / (2 * theta)) / den / mp.pi

    return mp.quad(ig, spectral_breaks(theta, alpha))


def f2_reg_quad(theta, alpha):
    def ig(w):
        den = (w * w - 1) ** 2 + alpha * alpha * w * w
        bose = 2 / mp.expm1(w / theta)
        return alpha * w**3 * bose / den / mp.pi

    return mp.quad(ig, spectral_breaks(theta, alpha))


def q2_psi(theta, alpha):
    # the same f_0 from the frequency sum in digamma form: theta (1 + 2 sum_n
    # 1/(nu_n^2 + alpha nu_n + 1)) with the denominator split at its roots
    s = 2 * mp.pi * theta
    root = mp.sqrt(mp.mpc(alpha * alpha / 4 - 1))
    a, b = (alpha / 2 + root) / s, (alpha / 2 - root) / s
    tail = (mp.psi(0, 1 + a) - mp.psi(0, 1 + b)) / ((a - b) * s * s)
    return mp.re(theta * (1 + 2 * tail))


f0 = f0_quad(mp.mpf(1), mp.mpf(1))
f2r = f2_reg_quad(mp.mpf(1), mp.mpf(1))
show("f0_quad(1,1)", f0)
show("f2_reg_quad(1,1)", f2r)
print("# f0 vs q2_matsubara residual:", mp.nstr(abs(f0 - q2m), 5))
show("f0_quad(0.5,2)", f0_quad(mp.mpf("0.5"), mp.mpf(2)))
show("f2_reg_quad(0.5,2)", f2_reg_quad(mp.mpf("0.5"), mp.mpf(2)))
# narrow resonances, low and high temperature, strong damping
for th, al in [("1", "1e-3"), ("1", "1e-8"), ("1e-3", "1"), ("20", "1"), ("0.05", "5")]:
    th, al = mp.mpf(th), mp.mpf(al)
    f0 = f0_quad(th, al)
    show(f"f0_quad({th},{al})", f0)
    show(f"f2_reg_quad({th},{al})", f2_reg_quad(th, al))
    print("# f0 vs q2_psi residual:", mp.nstr(abs(f0 - q2_psi(th, al)), 5))


# ------------------------- specific heat at coincident poles, to 1e-25
def pole_heat(numerator, denominator, theta, c, gamma_reg=0):
    # C = c (1 - sum_i r_i (p_i/s^2) psi'(1 - p_i/s)) - gamma_reg / (2 pi theta)
    # for a monic denominator, every root taken as a simple pole with residue
    # r_i = P(p_i) / prod_{j != i} (p_i - p_j): no grouping of close roots;
    # with 60 digits at least
    with mp.workdps(max(60, mp.mp.dps)):
        poles = roots(denominator)
        s = 2 * mp.pi * theta
        total = 0
        for i, p in enumerate(poles):
            others = mp.fprod(p - q for j, q in enumerate(poles) if j != i)
            total += mp.polyval(numerator, p) / others * p / s**2 * mp.psi(1, 1 - p / s)
        return mp.re(c * (1 - total) - gamma_reg / (2 * mp.pi * theta))


def coincident_heat(system, route, theta):
    # the test systems' float parameters, each scaled by 1 + 1e-30: that moves
    # C by ~1e-30 relative and splits the exactly double roots of alpha = 2
    # and r = 4 by ~4e-15, so that the simple-pole form holds with 30 digits
    # to spare; the triple point's float parameters split its roots already
    split = 1 + mp.mpf("1e-30")
    partition = route == "partition"
    if system == "osc-ohmic-critical":
        # the regularized summand, with its pole at nu = 0; both routes agree
        g = 2 * split
        return pole_heat([2 - g * g, -g], [1, g, 1, 0], theta, 1, g)
    if system == "free-drude-critical":
        wd = 4 * split
        quadratic = [1, wd, wd]
        if partition:
            return pole_heat([4 * wd, 2 * wd * wd], poly_mul(quadratic, [1, wd]),
                             theta, mp.mpf(1) / 2)
        return pole_heat([2 * wd], quadratic, theta, mp.mpf(1) / 2)
    alpha = 8.0 / (3.0 * 3.0 ** 0.5)
    g, wd = mp.mpf(alpha) * split, mp.mpf(alpha * (27.0 / 8.0)) * split
    return pole_heat(*osc_drude_fraction(g, wd, partition), theta, 1)


# theta = logspace(-9, -3, 13), as floats
COINCIDENT_THETAS = [mp.mpf(10.0 ** (-9 + k / 2)) for k in range(13)]
for system in ("osc-ohmic-critical", "free-drude-critical", "osc-drude-triple"):
    for route in ("energy", "partition"):
        print(f'("{system}", "{route}"): [')
        for th in COINCIDENT_THETAS:
            print(f"    {mp.nstr(coincident_heat(system, route, th), 17)},")
        print("],")
# the pole form against the closed forms at alpha = 2 and r = 4 (psi'')
print("# coincident pole form vs closed forms, worst relative residual:",
      mp.nstr(max(max(abs(coincident_heat("osc-ohmic-critical", "energy", th)
                          / c_damped(th, mp.mpf(2)) - 1),
                      abs(coincident_heat("free-drude-critical", "energy", th)
                          / c_free_drude(th, mp.mpf(4)) - 1))
                  for th in COINCIDENT_THETAS), 5))


def osc_drude_ground_energy(alpha, wd):
    # E(theta -> 0) = (1/2 pi) int_0^inf R(nu) dnu, R the energy-route summand
    def summand(nu):
        gh = alpha * wd / (nu + wd)
        return (2 + nu * gh) / (nu * nu + nu * gh + 1)

    return mp.quad(summand, [0, 1, 10, mp.inf]) / (2 * mp.pi)


# the triple point as the CLI gets it: --alpha 1.5396007178390021 --cutoff-ratio 3.375
ALPHA_CLI = 1.5396007178390021
show("E0_osc_drude_triple_cli",
     osc_drude_ground_energy(mp.mpf(ALPHA_CLI), mp.mpf(3.375 * ALPHA_CLI)))


# ------------------------------------------ misc reference constants
show("euler_gamma", mp.euler)
show("pi^2/6", mp.pi**2 / 6)
show("pi^2/2", mp.pi**2 / 2)
show("0.5*ln(pi)", mp.log(mp.pi) / 2)
show("ln(2pi)/2", mp.log(2 * mp.pi) / 2)


# ------------------------- small roots and underflow-prone forms, exact
# drude_specific_heat at large cutoff ratios, from the defining formula, where
# 1 - sqrt(1 - 4/r) cancels: worked with 2 log10(r) + 40 digits; theta = 1
# and 1e3 at r = 1e300 check PoleSum.heat for the same free particle
for r in (1e6, 1e10, 1e16, 1e17, 1e300):
    with mp.workdps(int(2 * mp.log10(r)) + 40):
        for th in (1e-3, 0.37) + ((1.0, 1e3) if r == 1e300 else ()):
            show(f"C_free_drude({th!r},{r!r})", c_free_drude(mp.mpf(th), mp.mpf(r)))
# the undamped S and C and the expansion x^2 e^-x just below the smallest
# normal double, at the double theta = 1/x; ln(1 - e^-x) keeps e^-x ~ 1e-313
# only with more than 313 digits
for x in (705, 710, 720):
    with mp.workdps(400):
        xx = 1 / mp.mpf(1.0 / x)
        show(f"undamped S(1/{x})", xx / mp.expm1(xx) - mp.log(-mp.expm1(-xx)))
        show(f"undamped C(1/{x})", (xx / (2 * mp.sinh(xx / 2))) ** 2)
        show(f"undamped_lowT(1/{x})", xx * xx * mp.exp(-xx))
# drude_specific_heat at and just below the critical cutoff r = 4, where the
# pair's terms cancel 1e4-fold at theta = 1e-4: the pair form at the double
# r = 4 (1 - 10^-k), and its s -> 0 limit at r = 4, with 60 digits
with mp.workdps(60):
    for th, k in ((1e-4, 6), (1e-4, 8), (1e-4, 10), (1e-3, 10)):
        r = 4.0 * (1.0 - 10.0 ** -k)
        show(f"C_free_drude({th!r},{r!r})", c_free_drude(mp.mpf(th), mp.mpf(r)))
    show("C_free_drude(0.0001,4.0)", c_free_drude(mp.mpf(1e-4), mp.mpf(4)))
# PoleSum for Drude oscillators (omega_0 = 1) whose slow pair lies 44 to 100
# decades below omega_D, from the pole form with 2 log10(omega_D) + 41 digits:
# E at theta = 1e-3, 0.37 and 30, C at 0.37 and 30
for gamma, wd in ((1.0, 1e44), (1e-3, 1e100), (1e3, 1e54)):
    with mp.workdps(2 * round(mp.log10(wd)) + 41):
        for route in ("energy", "partition"):
            fraction = osc_drude_fraction(mp.mpf(gamma), mp.mpf(wd), route == "partition")
            for th in (1e-3, 0.37, 30.0):
                label = f"(gamma={gamma!r},wd={wd!r},{route},{th!r})"
                show(f"E_osc_drude{label}",
                     th * (1 + pole_sum(*fraction, 2 * mp.pi * mp.mpf(th))))
                if th > 1e-3:
                    show(f"C_osc_drude{label}", pole_heat(*fraction, mp.mpf(th), 1))


# ---------------- h, G and the forms built on them, to theta = 1e-300
# h(z) = z^2 psi'(1+z) - z + 1/2 and G(z) = g(z) - ln(2 pi z)/2 + z + 1/2 from
# their definitions, with 2 log10|z| + 40 digits where |z| > 1, so that the
# cancelling terms of size |z| leave 40; the closed forms likewise take
# 2 log10(1/theta) + 40 digits below theta = 1
def h_def(z):
    z = mp.mpc(z)
    return z * z * mp.psi(1, 1 + z) - z + mp.mpf(1) / 2


def G_def(z):
    z = mp.mpc(z)
    return (mp.loggamma(1 + z) - z * mp.psi(0, 1 + z) - mp.log(2 * mp.pi * z) / 2
            + z + mp.mpf(1) / 2)


def digits(x):
    # the working precision for an argument of size x or a theta of 1/x
    return int(2 * max(0, mp.log10(abs(x)))) + 40


H_G_POINTS = [0.5, 3.0, 11.9, 12.1, 1e3, 1e300, complex(3.0, 4.0), complex(8.0, -9.0),
              complex(1e-3, 5.0), complex(1e-9, 11.5), complex(1e-3, 12.5),
              complex(1e-8, 1e5), complex(2.0, 1e300)]
for z in H_G_POINTS:
    with mp.workdps(digits(abs(z))):
        show(f"h({z!r})", h_def(z))
        show(f"G({z!r})", G_def(z))


def at_theta(fn, theta, *args):
    with mp.workdps(digits(1 / mp.mpf(theta))):
        return fn(mp.mpf(theta), *(mp.mpf(x) for x in args))


def c_free(theta, r):
    return c_free_ohmic(theta) if r == mp.inf else c_free_drude(theta, r)


# low thetas, where the psi' and ln Gamma terms of the definitions cancel to O(theta)
for th in (1e-9, 1e-12, 1e-18, 1e-300):
    show(f"C_damped({th!r},1)", at_theta(c_damped, th, 1.0))
    show(f"S_damped({th!r},1)", at_theta(s_damped, th, 1.0))
for r in (0.01, 1.0, 4.0, 10.0, mp.inf):
    for th in (1e-9, 1e-14, 1e-300, 1e-307):
        show(f"C_free({th!r},{r!r})", at_theta(c_free, th, r))
# test_grid.py's CANCELLING grid, for each of its six forms
for th in (2.0, 0.5, 1e-8, 1e-9):
    show(f"C_damped({th!r},1)", at_theta(c_damped, th, 1.0))
    show(f"S_damped({th!r},0.5)", at_theta(s_damped, th, 0.5))
    show(f"C_damped({th!r},2)", at_theta(c_damped, th, 2.0))
    show(f"C_free({th!r},inf)", at_theta(c_free_ohmic, th))
    show(f"C_free({th!r},10.0)", at_theta(c_free_drude, th, 10.0))
    show(f"C_osc_drude({th!r},1,r10,partition)",
         pole_heat(*osc_drude_fraction(mp.mpf(1), mp.mpf(10), True), mp.mpf(th), 1))
for alpha in (0.5, 2.0, 5.0):
    show(f"C_damped(1e-307,{alpha!r})", at_theta(c_damped, 1e-307, alpha))
# tests/test_cli.py's curve rows at alpha = 1
for th in (1e-300, 1e-299):
    show(f"C_damped({th!r},1)", at_theta(c_damped, th, 1.0))
    show(f"S_damped({th!r},1)", at_theta(s_damped, th, 1.0))
for th in (1e-307, 1e-306):
    show(f"S_damped({th!r},1)", at_theta(s_damped, th, 1.0))
# PoleSum.heat where the psi' terms of its definition cancel: the Drude oscillator (1, 10)
# on both routes, the free particle at r = 1 and the stiff oscillator
# (1e4, 1e6), each root its own simple pole
for th in (1e-3, 1e-8):
    for route in ("energy", "partition"):
        show(f"C_osc_drude({th!r},1,r10,{route})",
             pole_heat(*osc_drude_fraction(mp.mpf(1), mp.mpf(10), route == "partition"),
                       mp.mpf(th), 1))
show("C_free_drude_partition(1e-3,r1)",
     pole_heat([4, 2], poly_mul([1, 1, 1], [1, 1]), mp.mpf(1e-3), mp.mpf(1) / 2))
for route in ("energy", "partition"):
    show(f"C_osc_drude(1e-4,gamma=1e4,wd=1e6,{route})",
         pole_heat(*osc_drude_fraction(mp.mpf(1e4), mp.mpf(1e6), route == "partition"),
                   mp.mpf(1e-4), 1))
# scripts/theta_scaling.py's references: the closed C and S at theta = 10^k
print("ORACLES = {")
for k in range(-9, 10):
    th = 10.0 ** k
    print(f"    ({k}, 'damped_specific_heat'): {mp.nstr(at_theta(c_damped, th, 1.0), 17)},")
    print(f"    ({k}, 'damped_entropy'): {mp.nstr(at_theta(s_damped, th, 1.0), 17)},")
    print(f"    ({k}, 'ohmic_specific_heat'): {mp.nstr(at_theta(c_free_ohmic, th), 17)},")
    print(f"    ({k}, 'drude_specific_heat'): "
          f"{mp.nstr(at_theta(c_free_drude, th, 10.0), 17)},")
print("}")


# ------------- PoleSum's E as E0 plus a K sum, and its S, to theta = 1e-9..1e9
# K(z) = ln z + 1/(2z) - psi(1+z) from its definition, on both sides of |z| = 12
def K_def(z):
    z = mp.mpc(z)
    return mp.log(z) + 1 / (2 * z) - mp.psi(0, 1 + z)


for z in H_G_POINTS:
    if abs(z) < 1e300:
        with mp.workdps(digits(abs(z))):
            show(f"K({z!r})", K_def(z))

# the regularized energies from their closed forms, 2 log10(1/theta) + 40 digits
E_THETAS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1.0, 1e3, 1e9)
print("E_REGULARIZED = {")
for th in E_THETAS:
    print(f"    ('free', {th!r}): {mp.nstr(at_theta(e_reg_free, th), 25)},")
    for alpha in (1.0, 2.0, 5.0):
        print(f"    ({alpha!r}, {th!r}): {mp.nstr(at_theta(e_reg_osc, th, alpha), 25)},")
print("}")


def drude_fraction(omega0, gamma, wd, partition):
    # the energy summand of a Drude system as (numerator, monic denominator),
    # c: the oscillator's for omega0 = 1, the free particle's (twice its
    # own, c = 1/2) for omega0 = 0
    if omega0:
        return (*osc_drude_fraction(gamma, wd, partition), 1)
    q, quadratic = gamma * wd, [1, wd, gamma * wd]
    if partition:
        return [4 * q, 2 * q * wd], poly_mul(quadratic, [1, wd]), mp.mpf(1) / 2
    return [2 * q], quadratic, mp.mpf(1) / 2


def ground_energy_quad(gamma, wd, partition):
    # E(theta -> 0) = (1/2 pi) int_0^inf R(nu) dnu of the oscillator (omega0 = 1),
    # breaking the range at every decade its poles may sit at
    def summand(nu):
        gh = gamma * wd / (nu + wd)
        num = 2 + nu * gh + (nu * nu * gh / (nu + wd) if partition else 0)
        return num / (nu * nu + nu * gh + 1)

    breaks = [0] + [mp.mpf(10) ** k for k in range(-8, 11)] + [mp.inf]
    return mp.quad(summand, breaks) / (2 * mp.pi)


def ground_energy_poles(numerator, denominator, c):
    # E0 = -(c / 2 pi) sum_i r_i ln(-p_i), every root a simple pole
    dq = [x * (len(denominator) - 1 - i) for i, x in enumerate(denominator[:-1])]
    return mp.re(-c / (2 * mp.pi) * sum(
        mp.polyval(numerator, p) / mp.polyval(dq, p) * mp.log(-p)
        for p in roots(denominator)))


# E0 of the Drude oscillators (1, 10), the triple point and the stiff (1e4, 1e6)
print("E0_DRUDE = {")
residual = 0
for gamma, wd in ((1.0, 10.0), (ALPHA_CLI, ALPHA_CLI * 3.375), (1e4, 1e6)):
    with mp.workdps(40):
        for route in ("energy", "partition"):
            g, w = mp.mpf(gamma), mp.mpf(wd)
            e0 = ground_energy_quad(g, w, route == "partition")
            if gamma != ALPHA_CLI:   # the triple root is no simple pole
                residual = max(residual, abs(e0 - ground_energy_poles(
                    *drude_fraction(1, g, w, route == "partition"))) / abs(e0))
            print(f"    ({gamma!r}, {wd!r}, {route!r}): {mp.nstr(e0, 25)},")
print("}")
print("# E0 quadrature vs pole form, worst relative residual:", mp.nstr(residual, 5))


def ln_z_drude(theta, gamma, wd):
    # ln Z = ln theta + sum_i ln Gamma(1 - p_i/s) - ln Gamma(1 + wd/s), the
    # product over Matsubara frequencies of the oscillator (omega0 = 1)
    s = 2 * mp.pi * theta
    poles = roots([1, wd, 1 + gamma * wd, wd])
    return mp.re(mp.log(theta) + sum(mp.loggamma(1 - p / s) for p in poles)
                 - mp.loggamma(1 + wd / s))


# S = ln Z + E / theta = d(theta ln Z)/d theta, the partition route's entropy
print("S_PARTITION_DRUDE = {")
for th in (1e-3, 0.01, 0.1, 1.0, 100.0):
    with mp.workdps(digits(1 / mp.mpf(th)) + 20):
        g, w = mp.mpf(1), mp.mpf(10)
        value = mp.diff(lambda t: t * ln_z_drude(t, g, w), mp.mpf(th))
    print(f"    {th!r}: {mp.nstr(value, 25)},")
print("}")


def pole_entropy(numerator, denominator, theta, c):
    # S = -c sum_i r_i G(-p_i/s) / p_i, every root a simple pole
    s = 2 * mp.pi * theta
    dq = [x * (len(denominator) - 1 - i) for i, x in enumerate(denominator[:-1])]
    return mp.re(-c * sum(mp.polyval(numerator, p) / mp.polyval(dq, p) * G_def(-p / s) / p
                          for p in roots(denominator)))


def pole_energy(numerator, denominator, theta, c):
    # E = c theta (1 - (1/s) sum_i r_i psi(1 - p_i/s)): the psi form
    return c * theta * (1 + pole_sum(numerator, denominator, 2 * mp.pi * theta))


# E and S where poles coincide: the free particle at r = 4 and the triple
# point, each float parameter scaled by 1 + 1e-30 as in coincident_heat, so
# that every root is a simple pole; 60 digits and 2 log10(1/theta) more
print("COINCIDENT_E_S = {")
split = 1 + mp.mpf("1e-30")
for system, (omega0, gamma, wd) in (
        ("free-drude-critical", (0, 1.0, 4.0)),
        ("osc-drude-triple", (1, 8.0 / (3.0 * 3.0 ** 0.5),
                              8.0 / (3.0 * 3.0 ** 0.5) * (27.0 / 8.0)))):
    for route in ("energy", "partition"):
        for th in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e9):
            with mp.workdps(max(60, digits(1 / mp.mpf(th)) + 20)):
                numerator, denominator, c = drude_fraction(
                    omega0, mp.mpf(gamma) * split, mp.mpf(wd) * split, route == "partition")
                e = pole_energy(numerator, denominator, mp.mpf(th), c)
                s = pole_entropy(numerator, denominator, mp.mpf(th), c)
            print(f"    ({system!r}, {route!r}, {th!r}): "
                  f"({mp.nstr(e, 20)}, {mp.nstr(s, 20)}),")
print("}")
# scripts/theta_scaling.py's references for PoleSum: E and S of the Drude
# oscillator (1, 10) on the energy route at theta = 10^k
print("ORACLES (PoleSum) = {")
for k in range(-9, 10):
    th = mp.mpf(10.0 ** k)
    with mp.workdps(max(60, digits(1 / th) + 20)):
        numerator, denominator, c = drude_fraction(1, mp.mpf(1), mp.mpf(10), False)
        print(f"    ({k}, 'PoleSum.energy'): "
              f"{mp.nstr(pole_energy(numerator, denominator, th, c), 17)},")
        print(f"    ({k}, 'PoleSum.entropy'): "
              f"{mp.nstr(pole_entropy(numerator, denominator, th, c), 17)},")
print("}")
# S of the free particle at r = 0.1 where G's direct formula cancels most
# against S, on the energy route at theta = 0.01 and the partition route at
# theta = 0.316, 60 digits
print("S_FREE_SLOW_CUTOFF = {")
for route, th in (("energy", 0.01), ("partition", 0.316)):
    with mp.workdps(60):
        numerator, denominator, c = drude_fraction(0, mp.mpf(1), mp.mpf(0.1),
                                                   route == "partition")
        value = pole_entropy(numerator, denominator, mp.mpf(th), c)
    print(f"    ({route!r}, {th!r}): {mp.nstr(value, 25)},")
print("}")
# tests/test_cli.py's prescription pins: C of the Drude free particle at
# theta = 1e-3 on both routes, for cutoff ratios 0.01, 0.1, 1 and 10, each
# root its own simple pole
print("C_FREE_DRUDE_ROUTES = {")
for r in (0.01, 0.1, 1.0, 10.0):
    for route in ("energy", "partition"):
        numerator, denominator, c = drude_fraction(0, mp.mpf(1), mp.mpf(r),
                                                   route == "partition")
        value = pole_heat(numerator, denominator, mp.mpf(1e-3), c)
        print(f"    ({r!r}, {route!r}): {mp.nstr(value, 25)},")
print("}")
