"""Span tracing of qbrownian's public functions, from the benchmark's side.

The program is not changed: Tracer.install wraps every public function of the
measured layers in each qbrownian namespace that refers to it, so calls such as
qbrownian.oscillator.trigamma and qbrownian.cli.energy_sum are recorded where
the caller looks them up.  Each call becomes a span (name, start, end, parent,
ok, info) kept in memory; per-layer metrics are derived from the spans after
the run, and the spans are written out at the end.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

LAYERS = ("specfun", "oscillator", "free_particle", "matsubara", "quadrature", "cli")

# public functions whose per-function calls and self time are reported
REPORTED = {
    "specfun": ("trigamma", "digamma", "ln_gamma", "g_func", "g_func_prime"),
    "oscillator": ("undamped_thermo", "lambda_pm", "damped_specific_heat",
                   "damped_entropy", "damped_specific_heat_via_entropy",
                   "oscillator_expansion"),
    "free_particle": ("ohmic_specific_heat", "ohmic_lowT_expansion", "drude_z_pm",
                      "drude_specific_heat", "free_energy_internal"),
    "matsubara": ("energy_sum", "prescription_gap", "position_variance_sum",
                  "specific_heat_fd"),
    "quadrature": ("spectral_energy", "moments", "f_n_integral"),
}
SUM_COUNTED = ("prescription_gap", "position_variance_sum", "specific_heat_fd")
DECADES = (-3, -2, -1, 0, 1)
PUSH = 10.0                 # specfun pushes arguments with Re z below this
DEGENERATE_BAND = 1e-10     # |1 - 4/r| inside which drude_specific_heat is confluent
COST_FIT_THETA = 0.1        # energy_sum calls below this theta enter cost_exponent


def _pushed(args, result):
    return complex(args[0]).real < PUSH


def _terms(args, result):
    return result.terms_used


def _energy_sum(args, result):
    return (1.0 / args[2], result.terms_used)


def _degenerate(args, result):
    ratio = args[1]
    if not math.isfinite(ratio):
        return None
    return abs(1.0 - 4.0 / ratio) < DEGENERATE_BAND


INFO = {
    "specfun.trigamma": _pushed,
    "specfun.digamma": _pushed,
    "specfun.ln_gamma": _pushed,
    "matsubara.energy_sum": _energy_sum,
    "matsubara.prescription_gap": _terms,
    "matsubara.position_variance_sum": _terms,
    "free_particle.drude_specific_heat": _degenerate,
}


class Tracer:
    """Records spans of wrapped calls; install, run, uninstall, then read."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            # a layer the workload never imported makes no calls
            module = sys.modules.get(f"qbrownian.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if modname != "qbrownian" and not modname.startswith("qbrownian."):
                continue
            for attr, obj in list(vars(module).items()):
                target = targets.get(id(obj))
                if target is not None and target[0] is obj:
                    setattr(module, attr, target[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack.clear()

    def _wrap(self, fn, name):
        info_fn = INFO.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                info = info_fn(args, result) if ok and info_fn is not None else None
                spans[index] = (name, start, end, parent, ok, info)

        return wrapper

    def write(self, path: str) -> None:
        """Write the spans as CSV: index, name, start/end in us, parent, ok."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent,ok\n")
            for i, (name, start, end, parent, ok, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - t0) * 1e6:.3f},"
                         f"{(end - t0) * 1e6:.3f},{parent},{int(ok)}\n")


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took wall_s seconds."""
    n = len(spans)
    child = [0.0] * n
    failed_child = [False] * n
    for name, start, end, parent, ok, _ in spans:
        if parent >= 0:
            child[parent] += end - start
            if not ok:
                failed_child[parent] = True

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    failures = {"matsubara": 0, "quadrature": 0}
    for i, (name, start, end, parent, ok, _) in enumerate(spans):
        own = (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer = name.split(".")[0]
        layer_self[layer] += own
        # an exception is counted once, in the layer of the span that raised it
        if not ok and layer in failures and not failed_child[i]:
            failures[layer] += 1

    out: dict[str, float] = {}
    for layer, names in REPORTED.items():
        out[f"{layer}.self_s"] = layer_self[layer]
        for fname in names:
            full = f"{layer}.{fname}"
            out[f"{full}.calls"] = calls.get(full, 0)
            out[f"{full}.self_s"] = self_s.get(full, 0.0)

    pushed = [s[5] for s in spans
              if s[0] in ("specfun.trigamma", "specfun.digamma", "specfun.ln_gamma")
              and s[5] is not None]
    out["specfun.pushed_frac"] = sum(pushed) / len(pushed) if pushed else 0.0
    drude = [s[5] for s in spans
             if s[0] == "free_particle.drude_specific_heat" and s[5] is not None]
    out["free_particle.degenerate_frac"] = sum(drude) / len(drude) if drude else 0.0

    out.update(_sum_metrics(spans, self_s))
    out["matsubara.failures"] = failures["matsubara"]
    out["quadrature.failures"] = failures["quadrature"]
    out["cli.self_s"] = layer_self["cli"]
    covered = sum(layer_self.values())
    out["trace.coverage_frac"] = covered / wall_s if wall_s > 0 else 0.0
    return out


def _fd_ancestor(spans: list, index: int) -> int:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == "matsubara.specific_heat_fd":
            return parent
        parent = spans[parent][3]
    return -1


def _sum_metrics(spans: list, self_s: dict[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    sums = [(i, s) for i, s in enumerate(spans)
            if s[0] == "matsubara.energy_sum" and s[5] is not None]
    terms = [s[5][1] for _, s in sums]
    total_self = self_s.get("matsubara.energy_sum", 0.0)
    out["matsubara.energy_sum.terms"] = sum(terms)
    out["matsubara.energy_sum.terms_max"] = max(terms, default=0)
    out["matsubara.energy_sum.ns_per_term"] = (
        total_self / sum(terms) * 1e9 if terms else 0.0)

    for decade in DECADES:
        in_decade = [s for _, s in sums if round(math.log10(s[5][0])) == decade]
        label = f"theta_1e{decade}"
        out[f"matsubara.energy_sum.us_per_call.{label}"] = (
            statistics.fmean((s[2] - s[1]) * 1e6 for s in in_decade)
            if in_decade else 0.0)
        out[f"matsubara.energy_sum.terms_per_call.{label}"] = (
            statistics.fmean(s[5][1] for s in in_decade) if in_decade else 0.0)

    cold = [(math.log(1.0 / s[5][0]), math.log(s[2] - s[1]))
            for _, s in sums if s[5][0] < COST_FIT_THETA]
    if len({x for x, _ in cold}) >= 2:
        slope, _ = statistics.linear_regression([x for x, _ in cold],
                                                [y for _, y in cold])
    else:
        slope = 0.0
    out["matsubara.energy_sum.cost_exponent"] = slope

    fd_terms: dict[int, int] = {}
    fd_sum_calls: dict[int, int] = {}
    for i, s in sums:
        fd = _fd_ancestor(spans, i)
        if fd >= 0:
            fd_terms[fd] = fd_terms.get(fd, 0) + s[5][1]
            fd_sum_calls[fd] = fd_sum_calls.get(fd, 0) + 1
    for fname in SUM_COUNTED:
        full = f"matsubara.{fname}"
        if fname == "specific_heat_fd":
            counted = sum(fd_terms.values())
        else:
            counted = sum(s[5] for s in spans if s[0] == full and s[5] is not None)
        out[f"{full}.terms"] = counted
    out["matsubara.fd_energy_calls_per_C"] = (
        sum(fd_sum_calls.values()) / len(fd_sum_calls) if fd_sum_calls else 0.0)
    return out
