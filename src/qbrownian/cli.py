"""Command-line front end producing CSV/JSON data sets.

Subcommands:
  curve       thermodynamic quantities on a temperature grid (CSV)
  fig1        free-particle specific-heat figure data, main + inset (two CSVs)
  compare     both energy prescriptions, their gap, and FD cross-checks (JSON)
  expansions  limit expansions against exact values with error exponents (CSV)

Every command reads the closed forms of its system from one table,
CurveSpec.closed.  curve writes a column from the closed form where that is
the prescription's value (on every route for an ohmic kernel, which has no
prescription gap, and on the energy route for a Drude kernel), and from the
frequency sums in pole form (matsubara.PoleSum) otherwise, so it shows both
prescriptions for either model; compare evaluates the same sums term by term,
with an exact tail, and differentiates them numerically, so it is the
sum-based cross-check of curve.
Every command evaluates each distinct column once over the whole temperature
grid, as an array, and formats it once, across all the files it writes;
fig1's inset C_cutoff_inf is its main file's C_exact column.

All numeric output uses 17 significant digits (round-trip exact for doubles);
CSV files start with a header line followed by a comment row carrying the full
parameter set and the library version.  An --out file is written over in
place and cut to length, not truncated first (a device is written as it is);
exit codes: 0 success, 2 usage error (an --out path that cannot be written or
written to included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import json
import math
import os
import stat
import sys
from typing import Callable

import numpy as np

from . import __version__, matsubara
from .core import (ConvergenceError, DomainError, check_nonnegative,
                   check_positive)
from .free_particle import (drude_specific_heat, ohmic_lowT_expansion,
                            ohmic_specific_heat)
from .matsubara import (DampingKernel, PoleSum, Prescription, _energy_sum,
                        _prescription_gap, specific_heat_fd)
from .oscillator import (damped_entropy, damped_specific_heat,
                         oscillator_expansion, undamped_thermo)

_MODELS = ("oscillator", "free")
_KERNELS = ("ohmic", "drude")
_ROUTES = ("energy", "partition", "both")
_QUANTITIES = ("C", "S", "E")
_POLE_METHODS = {"C": "heat", "S": "entropy", "E": "energy"}

@dataclasses.dataclass
class CurveSpec:
    """Validated description of one run: model, bath, grid and outputs.

    Every subcommand takes one, so all of them share its checks, its
    temperature grid and its table of closed forms; construction raises
    DomainError on invalid input.  Every model, kernel, route and quantity
    combines; alpha is the oscillator's only.  A drude kernel without a cutoff
    ratio gets the default ratio 10.  The field names are those of the
    command-line flags and of the CSV comment row.
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
        if self.model == "free":
            if self.alpha is not None:
                raise DomainError("alpha has no meaning for the free particle; "
                                  "its temperature scale is the damping rate itself")
        elif self.alpha is not None:
            self.alpha = check_nonnegative("alpha", self.alpha)
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

    def closed(self, quantity: str) -> Callable | None:
        """theta -> the closed form of C or S, an array, or None where there is
        none (curve then takes PoleSum's, compare reports C_closed as null).

        A Drude kernel's closed form is its energy route's value, an ohmic
        kernel's every route's.
        """
        a, r = self.alpha_value, self.cutoff_ratio
        return {
            ("oscillator", "ohmic", "C"): lambda t: damped_specific_heat(t, a).C,
            ("oscillator", "ohmic", "S"): lambda t: damped_entropy(t, a).S,
            ("free", "ohmic", "C"): lambda t: ohmic_specific_heat(t).C,
            ("free", "drude", "C"): lambda t: drude_specific_heat(t, r).C,
        }.get((self.model, self.kernel, quantity))

    def comment(self, *names: str) -> str:
        """The comment row: the named parameters, then the library version.

        tol is no field: it is the frequency sums' fixed relative error bar.
        """
        values = {
            "model": self.model, "kernel": self.kernel,
            "alpha": "none" if self.alpha is None else _fmt(self.alpha),
            "cutoff_ratio": "inf" if self.kernel == "ohmic" else _fmt(self.cutoff_ratio),
            "route": self.route, "quantities": ",".join(self.quantities),
            "tmin": _fmt(self.tmin), "tmax": _fmt(self.tmax),
            "points": str(self.points), "log": str(self.log).lower(),
            "tol": _fmt(matsubara._REL_TAIL), "version": __version__}
        return "# " + " ".join(f"{name}={values[name]}" for name in names + ("version",))


_FMT = "%.17g"
_fmt = _FMT.__mod__


def _cells(values: list[float], shared: bool) -> tuple[str, list]:
    """A column's field in a row template and its values: a column written in
    more than one place is formatted once, into strings; others inline."""
    return ("%s", list(map(_fmt, values))) if shared else (_FMT, values)


def _tables(spec: CurveSpec, header: str,
            files: dict[str, tuple[str, dict[str, Callable[[np.ndarray], np.ndarray]]]]
            ) -> dict[str, list[str]]:
    """CSV lines per file suffix, from {suffix: (comment, columns)}.

    Each file is the theta column, named header, then its columns.  Each
    distinct callable is evaluated once, on the whole grid, for all the
    files of a command, and each column written more than once, theta
    included, is formatted once (fig1's C_cutoff_inf is its C_exact
    column); a closed form that fails names the first theta at which it
    failed.
    """
    grid = spec.grid()
    uses = collections.Counter(fn for _, columns in files.values() for fn in columns.values())
    cells = {fn: _cells(fn(grid).tolist(), n > 1) for fn, n in uses.items()}
    theta = _cells(grid.tolist(), len(files) > 1)
    tables = {}
    for suffix, (comment, columns) in files.items():
        fields, values = zip(theta, *(cells[fn] for fn in columns.values()))
        template = ",".join(fields)
        tables[suffix] = [",".join([header, *columns]), comment,
                          *(template % row for row in zip(*values))]
    return tables


def cmd_curve(spec: CurveSpec) -> dict[str, list[str]]:
    """The curve CSV, with columns in canonical C, S, E order.

    C has a column per route; S and E have one, unless a Drude kernel is
    asked for two routes.  A column is the closed form where that is its
    route's value, else PoleSum's heat, entropy or energy on its route.
    """
    routes = (tuple(Prescription) if spec.route == "both"
              else (Prescription(spec.route),))
    kernel = spec.make_kernel()
    pole_sum = functools.cache(lambda route: PoleSum(spec.omega0, kernel, route))
    columns: dict[str, Callable] = {}
    for quantity in (q for q in _QUANTITIES if q in spec.quantities):
        split = quantity == "C" or (spec.kernel == "drude" and len(routes) > 1)
        closed = spec.closed(quantity)
        for route in routes if split else routes[:1]:
            serves = closed is not None and (spec.kernel == "ohmic" or route is Prescription.ENERGY)
            columns[f"{quantity}_{route.value}" if split else quantity] = (
                closed if serves else getattr(pole_sum(route), _POLE_METHODS[quantity]))

    comment = spec.comment("model", "kernel", "alpha", "cutoff_ratio", "route",
                           "quantities", "tmin", "tmax", "points", "log", "tol")
    return _tables(spec, "theta", {"": (comment, columns)})


_FIG1_RATIOS = {"0.01": 0.01, "0.1": 0.1, "1": 1.0}


def cmd_fig1(spec: CurveSpec) -> dict[str, list[str]]:
    """Free-particle specific-heat figure data: main and inset CSVs.

    Main: exact strict-ohmic C against the linear-plus-cubic low-temperature
    law.  Inset: C for cutoff ratios 0.01, 0.1, 1, inf (upper to lower at low
    temperature) with the same expansion column.  The ratio inf is the strict
    ohmic kernel, so C_cutoff_inf is the main file's C_exact column.
    """
    comment = spec.comment("model", "kernel", "tmin", "tmax", "points", "log")
    exact = spec.closed("C")
    inset = {f"C_cutoff_{name}": lambda t, r=ratio: drude_specific_heat(t, r).C
             for name, ratio in _FIG1_RATIOS.items()}
    inset |= {"C_cutoff_inf": exact, "C_lowT": ohmic_lowT_expansion}
    return _tables(spec, "theta_gamma", {
        "_main.csv": (comment, {"C_exact": exact, "C_lowT": ohmic_lowT_expansion}),
        "_inset.csv": (comment.replace("kernel=ohmic", "kernel=drude_family"), inset)})


def cmd_compare(spec: CurveSpec) -> dict[str, list[str]]:
    """Both prescriptions, their gap, and FD cross-checks, column by column, as JSON."""
    kernel = spec.make_kernel()
    closed = spec.closed("C")

    def energy(route: Prescription) -> Callable[[np.ndarray], np.ndarray]:
        return lambda t: _energy_sum(spec.omega0, kernel, 1.0 / t, route).value

    direct, partition = energy(Prescription.ENERGY), energy(Prescription.PARTITION)
    grid = spec.grid()
    columns = {
        "theta": grid,
        "E_direct": direct(grid),
        "E_partition": partition(grid),
        "gap": _prescription_gap(spec.omega0, kernel, 1.0 / grid).value,
        "C_closed": np.full(grid.shape, None) if closed is None else closed(grid),
        "C_fd_direct": specific_heat_fd(direct, grid).value,
        "C_fd_partition": specific_heat_fd(partition, grid).value,
    }
    status = "regularized" if kernel.regularized else "ok"
    rows = zip(*(values.tolist() for values in columns.values()))
    report = {
        "model": spec.model,
        "kernel": spec.kernel,
        "alpha": None if spec.model == "free" else spec.alpha_value,
        "cutoff_ratio": None if spec.kernel == "ohmic" else spec.cutoff_ratio,
        "tol": matsubara._REL_TAIL,
        "version": __version__,
        "points": [dict(zip(columns, row), status=status) for row in rows],
    }
    return {"": [json.dumps(report, indent=2, allow_nan=False)]}


def cmd_expansions(spec: CurveSpec) -> dict[str, list[str]]:
    """Exact vs expansion values with halving-grid error exponents, as CSV.

    The grid is always log-spaced.  The exponent column is
    log2(err(theta) / err(theta/2)): near the stated remainder order of each
    expansion in its own asymptotic regime, and meaningless (reported anyway)
    outside it.  Each exact C is evaluated once on the grid and once on the
    halved grid, and shared by the kinds that it serves; the theta column and
    each shared exact column are formatted once.
    """
    a = spec.alpha_value
    # kind -> (exact C, expansion), in output order
    if spec.model == "free":
        table = {"free_lowT": (spec.closed("C"), ohmic_lowT_expansion)}
    else:
        kinds = ("undamped_lowT", "undamped_highT")
        if a > 0.0:
            kinds += ("damped_lowT", "damped_highT")
        undamped, damped = (lambda theta: undamped_thermo(theta).C), spec.closed("C")
        table = {kind: (undamped if kind.startswith("undamped") else damped,
                        lambda theta, kind=kind: oscillator_expansion(kind, theta, a))
                 for kind in kinds}
    grid = spec.grid()
    grids = (grid, grid / 2.0)
    uses = collections.Counter(fn for fn, _ in table.values())
    exact = {fn: [fn(t) for t in grids] for fn in uses}
    theta = _cells(grid.tolist(), len(table) > 1)
    exact_cells = {fn: _cells(exact[fn][0].tolist(), n > 1) for fn, n in uses.items()}
    lines = ["kind,theta,exact,expansion,abs_error,error_exponent",
             spec.comment("model", "alpha", "tmin", "tmax", "points", "log")]
    for kind, (fn, expansion) in table.items():
        values, values_h = exact[fn]
        approx, approx_h = (expansion(t) for t in grids)
        err = np.abs(values - approx)
        err_h = np.abs(values_h - approx_h)
        exponent = np.full(grid.shape, math.nan)
        ok = (err > 0.0) & (err_h > 0.0)
        exponent[ok] = np.log2(err[ok] / err_h[ok])
        fields, columns = zip(theta, exact_cells[fn],
                              *((_FMT, v.tolist()) for v in (approx, err, exponent)))
        template = ",".join((kind, *fields))
        lines.extend(template % row for row in zip(*columns))
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
    compare.set_defaults(run=cmd_compare)

    expansions = sub.add_parser("expansions", help="limit expansions vs exact values")
    expansions.add_argument("--model", choices=_MODELS, required=True)
    expansions.add_argument("--alpha", type=float, default=None)
    add_grid(expansions, 0.01, 20.0, 40)
    expansions.add_argument("--out", default=None)
    expansions.set_defaults(run=cmd_expansions, log=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built once per process on first use; parse_args keeps
    # nothing from one call to the next
    return build_parser()


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
        args = _parser().parse_args(argv)
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
    try:
        for suffix, lines in files.items():
            path = "stdout" if args.out is None else args.out + suffix
            with (contextlib.nullcontext(sys.stdout) if args.out is None else open(
                    path, "w", encoding="utf-8",
                    opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666))) as fh:
                fh.write("\n".join(lines) + "\n")
                if args.out is not None and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
    except OSError as exc:
        print(f"usage error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
