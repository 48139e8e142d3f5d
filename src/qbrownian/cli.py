"""Command-line front end producing CSV/JSON data sets.

Subcommands:
  curve       thermodynamic quantities on a temperature grid (CSV)
  fig1        free-particle specific-heat figure data, main + inset (two CSVs)
  compare     both energy prescriptions, their gap, and FD cross-checks (JSON)
  expansions  limit expansions against exact values with error exponents (CSV)

curve takes energies, and specific heats without a closed form, from the
frequency sums in pole form (matsubara.PoleSum); compare evaluates the same
sums term by term with tail acceleration and differentiates them numerically,
so it is the sum-based cross-check of curve.  curve, fig1 and expansions
evaluate each column once over the whole temperature grid, as an array;
compare works point by point.

All numeric output uses 17 significant digits (round-trip exact for doubles);
CSV files start with a header line followed by a comment row carrying the full
parameter set and the library version.  Exit codes: 0 success, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from typing import Callable

import numpy as np

from . import __version__
from .core import (ConvergenceError, DomainError, Tolerances, check_nonnegative,
                   check_positive)
from .free_particle import (drude_specific_heat, ohmic_lowT_expansion,
                            ohmic_specific_heat)
from .matsubara import (DampingKernel, PoleSum, Prescription, energy_sum,
                        prescription_gap, specific_heat_fd)
from .oscillator import (damped_entropy, damped_specific_heat,
                         damped_specific_heat_via_entropy,
                         oscillator_expansion, undamped_thermo)

_MODELS = ("oscillator", "free")
_KERNELS = ("ohmic", "drude")
_ROUTES = ("energy", "partition", "both")
_QUANTITIES = ("C", "S", "E")

# (model, kernel, route) -> closed-form C of (theta, alpha, cutoff_ratio),
# theta a float or an array.  A combination missing here has no closed form:
# curve takes C from the pole form of its frequency sum instead and compare
# reports C_closed as null.  The free particle's closed forms are those of the
# energy route, its only curve route.
_CLOSED_HEAT: dict[tuple[str, str, str], Callable] = {
    ("oscillator", "ohmic", "energy"): lambda t, a, r: damped_specific_heat(t, a).C,
    ("oscillator", "ohmic", "partition"):
        lambda t, a, r: damped_specific_heat_via_entropy(t, a).C,
    ("free", "ohmic", "energy"): lambda t, a, r: ohmic_specific_heat(t).C,
    ("free", "drude", "energy"): lambda t, a, r: drude_specific_heat(t, r).C,
}


@dataclasses.dataclass
class CurveSpec:
    """Validated description of one run: model, bath, grid and outputs.

    Every subcommand takes one, so all of them share its checks and its
    temperature grid; construction raises DomainError on invalid input.  A
    drude kernel without a cutoff ratio gets the default ratio 10.  The field
    names are those of the command-line flags and of the CSV comment row.
    """

    model: str
    kernel: str = "ohmic"
    alpha: float | None = None
    cutoff_ratio: float | None = None
    tmin: float = 0.01
    tmax: float = 10.0
    points: int = 100
    log: bool = False
    route: str = "energy"
    quantities: tuple[str, ...] = ("C",)
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise DomainError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.kernel not in _KERNELS:
            raise DomainError(f"kernel must be one of {_KERNELS}, got {self.kernel!r}")
        if not (0.0 < self.tmin < self.tmax and math.isfinite(self.tmax)):
            raise DomainError(
                f"need 0 < tmin < tmax, got tmin={self.tmin!r} tmax={self.tmax!r}")
        if self.points < 2:
            raise DomainError(f"points must be >= 2, got {self.points!r}")
        if self.route not in _ROUTES:
            raise DomainError(f"route must be one of {_ROUTES}, got {self.route!r}")
        if not self.quantities or any(q not in _QUANTITIES for q in self.quantities):
            raise DomainError(
                f"quantities must be a nonempty subset of {_QUANTITIES}, "
                f"got {self.quantities!r}")
        if not (0.0 < self.tol < 1.0):
            raise DomainError(f"tol must lie in (0, 1), got {self.tol!r}")
        if self.model == "free":
            if self.alpha is not None:
                raise DomainError("alpha has no meaning for the free particle; "
                                  "its temperature scale is the damping rate itself")
            if self.route != "energy":
                raise DomainError("the free particle supports route=energy only")
            if "S" in self.quantities:
                raise DomainError("entropy output is available for the oscillator only")
        else:
            if self.alpha is not None:
                check_nonnegative("alpha", self.alpha)
            if "S" in self.quantities and self.kernel != "ohmic":
                raise DomainError("entropy has a closed form for the ohmic "
                                  "oscillator only; drop S or use kernel=ohmic")
        if self.kernel == "drude":
            if self.cutoff_ratio is None:
                self.cutoff_ratio = 10.0
            check_positive("cutoff_ratio", self.cutoff_ratio)
        elif self.cutoff_ratio not in (None, math.inf):
            # inf is the ohmic limit itself; anything else, nan included, is not
            raise DomainError("a finite cutoff-ratio requires kernel=drude, "
                              f"got {self.cutoff_ratio!r}")

    @property
    def alpha_value(self) -> float:
        return 1.0 if self.alpha is None else self.alpha

    @property
    def omega0(self) -> float:
        return 1.0 if self.model == "oscillator" else 0.0

    def grid(self) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.tmin), math.log10(self.tmax),
                               self.points)
        return np.linspace(self.tmin, self.tmax, self.points)

    def make_kernel(self) -> DampingKernel:
        gamma = 1.0 if self.model == "free" else self.alpha_value
        # at zero coupling there is no bath to cut off
        if self.kernel == "ohmic" or gamma == 0.0:
            return DampingKernel.ohmic(gamma)
        return DampingKernel.drude(gamma, self.cutoff_ratio * gamma)

    def closed_heat(self, route: str = "energy") -> Callable | None:
        """theta -> closed-form C on this route, or None where there is none.

        theta may be a float or an array of temperatures.
        """
        closed = _CLOSED_HEAT.get((self.model, self.kernel, route))
        if closed is None:
            return None
        return lambda theta: closed(theta, self.alpha_value, self.cutoff_ratio)

    def comment(self, *names: str) -> str:
        """The comment row: the named parameters, then the library version."""
        values = {
            "model": self.model, "kernel": self.kernel,
            "alpha": "none" if self.alpha is None else _fmt(self.alpha),
            "cutoff_ratio": "inf" if self.kernel == "ohmic" else _fmt(self.cutoff_ratio),
            "route": self.route, "quantities": ",".join(self.quantities),
            "tmin": _fmt(self.tmin), "tmax": _fmt(self.tmax),
            "points": str(self.points), "log": str(self.log).lower(),
            "tol": _fmt(self.tol), "version": __version__}
        return "# " + " ".join(f"{name}={values[name]}" for name in names + ("version",))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _on_grid(spec: CurveSpec, evaluate: Callable[[float], object]) -> list:
    """[(theta, evaluate(theta))] over the grid; failures name their theta."""
    out = []
    for theta in spec.grid():
        theta = float(theta)
        try:
            out.append((theta, evaluate(theta)))
        except ConvergenceError as exc:
            raise ConvergenceError(f"at theta={theta:g}: {exc}", achieved=exc.achieved,
                                   requested=exc.requested) from exc
    return out


def _table(spec: CurveSpec, header: str, comment: str,
           columns: dict[str, Callable[[np.ndarray], np.ndarray]]) -> list[str]:
    """CSV lines: the theta column named header, then one column per entry.

    Each column is evaluated once, on the whole grid; a closed form that
    fails names the first theta at which it failed.
    """
    grid = spec.grid()
    values = [fn(grid).tolist() for fn in columns.values()]
    lines = [",".join([header, *columns]), comment]
    lines.extend(",".join(map(_fmt, row)) for row in zip(grid.tolist(), *values))
    return lines


def cmd_curve(spec: CurveSpec) -> dict[str, list[str]]:
    """The curve CSV, with columns in canonical C, S, E order.

    E, and C without a closed form, come from the frequency sums' pole form
    (PoleSum).
    """
    routes = (tuple(Prescription) if spec.route == "both"
              else (Prescription(spec.route),))
    kernel = spec.make_kernel()
    columns: dict[str, Callable] = {}

    if "C" in spec.quantities:
        for route in routes:
            columns[f"C_{route.value}"] = (spec.closed_heat(route.value)
                                           or PoleSum(spec.omega0, kernel, route).heat)

    if "S" in spec.quantities:
        columns["S"] = lambda t: damped_entropy(t, spec.alpha_value).S

    if "E" in spec.quantities:
        # an ohmic kernel has no prescription gap, so one E column serves
        e_routes = routes if spec.kernel == "drude" else (Prescription.ENERGY,)
        for route in e_routes:
            name = "E" if len(e_routes) == 1 else f"E_{route.value}"
            columns[name] = PoleSum(spec.omega0, kernel, route).energy

    comment = spec.comment("model", "kernel", "alpha", "cutoff_ratio", "route",
                           "quantities", "tmin", "tmax", "points", "log", "tol")
    return {"": _table(spec, "theta", comment, columns)}


_FIG1_RATIOS = {"0.01": 0.01, "0.1": 0.1, "1": 1.0, "inf": math.inf}


def cmd_fig1(spec: CurveSpec) -> dict[str, list[str]]:
    """Free-particle specific-heat figure data: main and inset CSVs.

    Main: exact strict-ohmic C against the linear-plus-cubic low-temperature
    law.  Inset: C for cutoff ratios 0.01, 0.1, 1, inf (upper to lower at low
    temperature) with the same expansion column.
    """
    comment = spec.comment("model", "kernel", "tmin", "tmax", "points", "log")
    main = {"C_exact": spec.closed_heat(), "C_lowT": ohmic_lowT_expansion}
    inset = {f"C_cutoff_{name}": lambda t, r=ratio: drude_specific_heat(t, r).C
             for name, ratio in _FIG1_RATIOS.items()}
    inset["C_lowT"] = ohmic_lowT_expansion
    return {"_main.csv": _table(spec, "theta_gamma", comment, main),
            "_inset.csv": _table(spec, "theta_gamma",
                                 comment.replace("kernel=ohmic", "kernel=drude_family"),
                                 inset)}


def cmd_compare(spec: CurveSpec) -> dict[str, list[str]]:
    """Both prescriptions, their gap, and FD cross-checks per point, as JSON."""
    tols = Tolerances(rel_sum_tail=spec.tol)
    kernel = spec.make_kernel()
    closed = spec.closed_heat()

    def energy(theta: float, route: Prescription) -> float:
        return energy_sum(spec.omega0, kernel, 1.0 / theta, route, tol=tols).value

    def point(theta: float) -> dict:
        return {
            "theta": theta,
            "E_direct": energy(theta, Prescription.ENERGY),
            "E_partition": energy(theta, Prescription.PARTITION),
            "gap": prescription_gap(spec.omega0, kernel, 1.0 / theta, tol=tols).value,
            "C_closed": None if closed is None else closed(theta),
            "C_fd_direct": specific_heat_fd(
                lambda t: energy(t, Prescription.ENERGY), theta).value,
            "C_fd_partition": specific_heat_fd(
                lambda t: energy(t, Prescription.PARTITION), theta).value,
            "status": "regularized" if kernel.regularized else "ok",
        }

    report = {
        "model": spec.model,
        "kernel": spec.kernel,
        "alpha": None if spec.model == "free" else spec.alpha_value,
        "cutoff_ratio": None if spec.kernel == "ohmic" else spec.cutoff_ratio,
        "tol": spec.tol,
        "version": __version__,
        "points": [row for _, row in _on_grid(spec, point)],
    }
    return {"": [json.dumps(report, indent=2, allow_nan=False)]}


def cmd_expansions(spec: CurveSpec) -> dict[str, list[str]]:
    """Exact vs expansion values with halving-grid error exponents, as CSV.

    The grid is always log-spaced.  The exponent column is
    log2(err(theta) / err(theta/2)): near the stated remainder order of each
    expansion in its own asymptotic regime, and meaningless (reported anyway)
    outside it.  Each family's exact values are evaluated once on the grid and
    once on the halved grid, and shared by its kinds.
    """
    a = spec.alpha_value
    if spec.model == "free":
        kinds = ("free_lowT",)
    else:
        kinds = ("undamped_lowT", "undamped_highT")
        if a > 0.0:
            kinds += ("damped_lowT", "damped_highT")
    grid = spec.grid()
    grids = (grid, grid / 2.0)
    exact_heat = {"undamped": lambda theta: undamped_thermo(theta).C,
                  "closed": spec.closed_heat()}

    def family(kind: str) -> str:
        return "undamped" if kind.startswith("undamped") else "closed"

    def expansion(kind: str, theta: np.ndarray) -> np.ndarray:
        if kind == "free_lowT":
            return ohmic_lowT_expansion(theta)
        return oscillator_expansion(kind, theta, a)

    columns = []
    exact = {name: [exact_heat[name](t) for t in grids]
             for name in dict.fromkeys(map(family, kinds))}
    for kind in kinds:
        values, values_h = exact[family(kind)]
        approx, approx_h = (expansion(kind, t) for t in grids)
        # the float calls raise where these are not finite; name the first theta
        finite = (np.isfinite(values) & np.isfinite(values_h)
                  & np.isfinite(approx) & np.isfinite(approx_h))
        if not finite.all():
            theta = grid[~finite][0].item()
            raise ConvergenceError(f"at theta={theta:g}: {kind} exact or expansion value "
                                   "(at theta or theta/2) is not finite in double "
                                   "precision")
        err = np.abs(values - approx)
        err_h = np.abs(values_h - approx_h)
        exponent = np.full(grid.shape, math.nan)
        ok = (err > 0.0) & (err_h > 0.0)
        exponent[ok] = np.log2(err[ok] / err_h[ok])
        columns.append((kind, values, approx, err, exponent))

    lines = ["kind,theta,exact,expansion,abs_error,error_exponent",
             spec.comment("model", "alpha", "tmin", "tmax", "points", "log")]
    for kind, *values in columns:
        for row in zip(grid.tolist(), *(v.tolist() for v in values)):
            lines.append(",".join([kind, *map(_fmt, row)]))
    return {"": lines}


class _Parser(argparse.ArgumentParser):
    """argparse, reporting its errors with the same tag as DomainError's."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbrownian",
        description="Equilibrium thermodynamics of damped quantum oscillators "
                    "and free quantum Brownian particles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(sp, tmin: float, tmax: float, points: int):
        sp.add_argument("--tmin", type=float, default=tmin,
                        help="lowest reduced temperature")
        sp.add_argument("--tmax", type=float, default=tmax,
                        help="highest reduced temperature")
        sp.add_argument("--points", type=int, default=points, help="grid size")

    def add_spec(sp, tmin: float, tmax: float, points: int):
        sp.add_argument("--model", choices=_MODELS, required=True)
        sp.add_argument("--kernel", choices=_KERNELS, default="ohmic")
        sp.add_argument("--alpha", type=float, default=None,
                        help="gamma/omega0 (oscillator only; default 1)")
        sp.add_argument("--cutoff-ratio", type=float, default=None,
                        help="omega_D/gamma (drude kernel only; default 10)")
        add_grid(sp, tmin, tmax, points)
        sp.add_argument("--log", action="store_true", help="log-spaced grid")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    curve = sub.add_parser("curve", help="thermodynamic quantities on a grid")
    add_spec(curve, 0.01, 10.0, 100)
    curve.add_argument("--route", choices=_ROUTES, default="energy")
    curve.add_argument("--quantities", default="C",
                       help="comma-separated subset of C,S,E")
    curve.set_defaults(run=cmd_curve)

    fig1 = sub.add_parser("fig1", help="free-particle figure data (main + inset)")
    add_grid(fig1, 1e-3, 10.0, 400)
    fig1.add_argument("--out", default="fig1",
                      help="output prefix; writes <out>_main.csv and <out>_inset.csv")
    fig1.set_defaults(run=cmd_fig1, model="free", log=True)

    compare = sub.add_parser("compare", help="both prescriptions and their gap")
    add_spec(compare, 0.1, 10.0, 20)
    compare.add_argument("--tol", type=float, default=1e-12,
                         help="relative tail tolerance of the frequency sums")
    compare.set_defaults(run=cmd_compare)

    expansions = sub.add_parser("expansions", help="limit expansions vs exact values")
    expansions.add_argument("--model", choices=_MODELS, required=True)
    expansions.add_argument("--alpha", type=float, default=None)
    add_grid(expansions, 0.01, 20.0, 40)
    expansions.add_argument("--out", default=None)
    expansions.set_defaults(run=cmd_expansions, log=True)
    return parser


def _spec_from_args(args: argparse.Namespace) -> CurveSpec:
    """The CurveSpec of the parsed arguments that name one of its fields."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(CurveSpec)
              if hasattr(args, f.name)}
    if "quantities" in fields:
        names = {part.strip() for part in fields["quantities"].split(",")}
        # canonical C, S, E order; unknown names stay in for CurveSpec to reject
        fields["quantities"] = (tuple(q for q in _QUANTITIES if q in names)
                                + tuple(sorted(names - set(_QUANTITIES) - {""})))
    return CurveSpec(**fields)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        files = args.run(_spec_from_args(args))
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for suffix, lines in files.items():
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out + suffix, "w", encoding="utf-8")) as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
