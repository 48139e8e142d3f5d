#!/usr/bin/env python3
"""Layered benchmark of qbrownian: end-to-end metrics, a traced per-layer run,
and a correctness check of every operation against independent references.

Run from the repository root:

    python3 benchmarks/run.py                      # all workloads, end to end
    python3 benchmarks/run.py --workload sum_datasets --seed 3 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload closed_forms --trace 1

Workloads (see workloads.py): closed_forms, sum_datasets, route_crosscheck.
Each is a closed loop with one caller; one pass runs all of its operations once.

--trace 0 reports the end-to-end metrics, all untraced:
    setup_s          median over fresh interpreters of importing the entry point
                     (qbrownian.cli, or qbrownian for the library workload) and
                     building the CLI parser
    wall_s           median time of one warm pass, over the passes that fit in
                     --seconds (at least three), in calibrated seconds (below)
                     for closed_forms and route_crosscheck, in seconds for
                     sum_datasets
    peak_rss_mb      peak resident memory of a fresh child that runs one pass
    accuracy_digits  worst-case correct significant digits over the checked
                     outputs that are within their acceptance tolerance,
                     against the reference (reference.py); outputs outside it
                     count in "failed" instead
--trace 1 wraps the public functions of every layer (tracing.py) and reports
per-layer calls, self time and work counts instead, with the tracing overhead
and the raw (uncalibrated) median pass time as wall.raw_s.  The names and units
of both sets of metrics are read from BENCHMARK.json.

Calibration: on a shared host the same pass runs up to a third slower for
stretches of tens of seconds, long enough to slow every pass of a run.  A fixed
plain-Python kernel, which runs no qbrownian code, is timed right before and
after every pass; wall_s scales each pass time to a host on which the kernel
takes CAL_NOMINAL_S, so such stretches cancel.  On a shared 2-vCPU Xeon VM,
over sets of ten seeded 20 s runs, this cut the quartile spread of wall_s on
the Python-bound workloads (closed_forms, route_crosscheck) from 0.08-0.25 of
the median to 0.01-0.05.  sum_datasets is not calibrated: its frequency sums
are bound by numpy memory traffic, which the kernel does not track; over one
set of five seeded 20 s runs its calibrated spread was 0.12 of the median
against 0.06 raw.  The raw median is printed too, and is wall.raw_s in the
traced run.

Operations that raise, exit non-zero or produce a value outside its acceptance
tolerance count as failed.  attempted and failed count the first (warm-up)
pass only, so they do not depend on how many passes fit in --seconds; every
later pass must reproduce the first pass's checked values exactly, and an
operation that does not is reported as nondeterministic.  "correct" is true
when no operation failed and none was nondeterministic.  The workloads keep
out of the inputs where the program is known to be wrong today; those are
run once per run, untimed, as workloads.known_defects, and the number of its
calls that fail is printed in the table and reported in the traced run as
check.known_defect_ops_failed.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are a readable table and the environment
(git sha, nproc, Python/numpy/scipy versions).
"""

import os

# one BLAS/OpenMP thread, here and in every child, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(HERE, "frozen.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_DIR = os.path.join(ROOT, ".bench_run")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

MIN_PASSES = 3
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120

CAL_NOMINAL_S = 0.009
CAL_ITERS = 40000

WORKLOADS = ("closed_forms", "sum_datasets", "route_crosscheck")
CALIBRATED = ("closed_forms", "route_crosscheck")   # Python-bound passes
IMPORT_PACKAGES = ("scipy", "numpy", "qbrownian")


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics one run reports, from BENCHMARK.json."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------ passes

def run_pass(ops) -> tuple[float, list]:
    """Run every operation once, in order; return (seconds, results)."""
    results = []
    start = time.perf_counter()
    for op in ops:
        try:
            results.append(op.run())
        except Exception as exc:  # the benchmark counts it and keeps going
            results.append(exc)
    return time.perf_counter() - start, results


def calibration_s() -> float:
    """Time the fixed calibration kernel, complex logs in a Python loop.

    It allocates nothing that outlives an iteration, so its time does not
    depend on what the process did before (numpy kernels do, through the
    allocator's state after the frequency sums' large arrays).
    """
    start = time.perf_counter()
    z = 0j
    for _ in range(CAL_ITERS):
        z = cmath.log(z + (1.5 + 0.1j)) * 0.5
    return time.perf_counter() - start


def timed_pass(ops) -> tuple[float, float, list]:
    """One pass between two calibration runs: (raw s, kernel s, results)."""
    before = calibration_s()
    elapsed, results = run_pass(ops)
    return elapsed, 0.5 * (before + calibration_s()), results


def calibrated(raw: float, kernel: float) -> float:
    return raw * CAL_NOMINAL_S / kernel


class Tally:
    """The first pass checked against the references, later passes against it.

    attempted, failed, values_failed and digits describe the first pass only.
    A later pass whose checked values or failures differ from the first pass's
    puts the operation in unstable instead of adding to the counts.
    """

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.values_failed = 0
        self.digits = None          # worst digits over checks within tolerance
        self.reasons: dict[str, str] = {}
        self.unstable: dict[str, str] = {}
        self._first = None

    def check(self, ops, results) -> None:
        per_op = [_outcome(op, result) for op, result in zip(ops, results)]
        signatures = [_signature(checks, reason) for checks, reason in per_op]
        if self._first is not None:
            for op, first, now in zip(ops, self._first, signatures):
                if now != first:
                    self.unstable.setdefault(
                        op.label, "output differs from the first pass's")
            return
        self._first = signatures
        self.refs.resolve(c.key for checks, _ in per_op for c in checks or ())
        self.refs.resolve(c.anchor_key for checks, _ in per_op
                          for c in checks or () if c.anchor_key)
        for op, (checks, reason) in zip(ops, per_op):
            self.attempted += 1
            bad = 0
            for c in checks or ():
                ok, digits = self.refs.error(c)
                if ok:
                    self.digits = digits if self.digits is None else min(self.digits, digits)
                bad += not ok
            self.values_failed += bad
            if reason is None and bad:
                reason = f"{bad} of {len(checks)} values outside tolerance"
            if reason is not None:
                self.failed += 1
                self.reasons[op.label] = reason


def _outcome(op, result) -> tuple[list | None, str | None]:
    """(checks, None) for an operation's result, or (None, why it failed)."""
    if isinstance(result, Exception):
        return None, f"{type(result).__name__}: {result}"
    try:
        return op.checks(result), None
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return None, f"unreadable output: {exc}"


def _signature(checks, reason) -> tuple:
    """What two passes of a deterministic operation must agree on exactly."""
    return reason, tuple((repr(c.got), repr(c.anchor_got)) for c in checks or ())


def output_stats(ops) -> tuple[int, int]:
    """(data rows, bytes) of the files the CLI operations wrote."""
    rows = size = 0
    for op in ops:
        for path in op.files:
            size += os.path.getsize(path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if path.endswith(".json"):
                rows += len(json.loads(text)["points"])
            else:
                rows += text.count("\n") - 2
    return rows, size


def digests(ops) -> dict[str, str]:
    out = {}
    for op in ops:
        for path in op.files:
            with open(path, "rb") as fh:
                out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ------------------------------------------------------- fresh processes

SETUP_CODE = {
    "cli": "import time\nt0 = time.perf_counter()\nimport qbrownian.cli\n"
           "qbrownian.cli.build_parser()\nprint(time.perf_counter() - t0)",
    "lib": "import time\nt0 = time.perf_counter()\nimport qbrownian\n"
           "print(time.perf_counter() - t0)",
}


def _child(cmd: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {cmd[1:3]} failed: {proc.stderr.strip()[-400:]}")
    return proc


def measure_setup(entry: str) -> float:
    cmd = [sys.executable, "-c", SETUP_CODE[entry]]
    _child(cmd)  # warm the bytecode cache
    return statistics.median(float(_child(cmd).stdout.split()[-1])
                             for _ in range(SETUP_REPEATS))


def measure_rss(workload: str, seed: int) -> float:
    proc = _child([sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(seed), "--child-pass"])
    return float(proc.stdout.split()[-1])


def import_times(entry: str) -> dict[str, float]:
    """Median import time of numpy, scipy and qbrownian under -X importtime."""
    module = "qbrownian.cli" if entry == "cli" else "qbrownian"
    runs = [_parse_importtime(_child([sys.executable, "-X", "importtime", "-c",
                                      f"import {module}"]).stderr)
            for _ in range(IMPORTTIME_REPEATS)]
    return {pkg: statistics.median(r.get(pkg, 0.0) for r in runs)
            for pkg in IMPORT_PACKAGES}


def _parse_importtime(text: str) -> dict[str, float]:
    """Split the import of qbrownian into numpy, scipy and the rest.

    -X importtime prints each module after the modules it imports, indented by
    depth, so read in reverse each line's ancestors are the open lines above
    it.  numpy or scipy time is the cumulative time of their modules that no
    numpy or scipy module imported (numpy modules that scipy imports count as
    scipy); qbrownian's is its cumulative time less both.
    """
    lines = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        lines.append((depth, name.strip().split(".")[0], int(cumulative) * 1e-6))
    totals = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    stack: list[tuple[int, str]] = []
    for depth, pkg, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        outer = {p for _, p in stack}
        if pkg == "qbrownian" and "qbrownian" not in outer:
            totals["qbrownian"] += cumulative
        elif pkg in ("numpy", "scipy") and not outer & {"numpy", "scipy"}:
            totals[pkg] += cumulative
        stack.append((depth, pkg))
    totals["qbrownian"] -= totals["numpy"] + totals["scipy"]
    return totals


# -------------------------------------------------------------- workloads

def load_references():
    import reference
    return (reference.References.load(FROZEN) if os.path.isfile(FROZEN)
            else reference.References({}))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, "Tally"]:
    import workloads

    outdir = os.path.join(RUN_DIR, f"{os.getpid()}-{name}")
    os.makedirs(outdir, exist_ok=True)
    try:
        refs = load_references()
        ops = workloads.BUILDERS[name](seed, outdir)
        tally = Tally(refs)
        # warm-up pass: it alone is counted, and its outputs name the checked
        # values, whose references are resolved (with mpmath unless frozen)
        # before anything is timed
        tally.check(ops, run_pass(ops)[1])
        entry = workloads.ENTRY[name]
        if trace:
            metrics = _traced(name, seed, seconds, ops, tally, entry, outdir)
            metrics["check.values_failed"] = tally.values_failed
        else:
            metrics = {"setup_s": measure_setup(entry),
                       "peak_rss_mb": measure_rss(name, seed)}
            raw, scaled = [], []
            deadline = time.perf_counter() + seconds
            while len(raw) < MIN_PASSES or time.perf_counter() < deadline:
                elapsed, kernel, results = timed_pass(ops)
                raw.append(elapsed)
                scaled.append(calibrated(elapsed, kernel) if name in CALIBRATED
                              else elapsed)
                tally.check(ops, results)
            metrics["wall_s"] = statistics.median(scaled)
            metrics["accuracy_digits"] = tally.digits if tally.digits is not None else 0.0
            print(f"# {name}: {len(raw)} passes, raw median {statistics.median(raw):.4f} s "
                  f"(min {min(raw):.4f}, max {max(raw):.4f}); {refs.computed} "
                  "references computed with mpmath", file=sys.stderr)
        return metrics, tally
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _traced(name, seed, seconds, ops, tally, entry, outdir) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    raw, kernels, untraced, traced, per_pass = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        elapsed, kernel, results = timed_pass(ops)
        raw.append(elapsed)
        kernels.append(kernel)
        untraced.append(calibrated(elapsed, kernel))
        tally.check(ops, results)
        tracer.install()
        tracer.reset()
        try:
            elapsed, kernel, results = timed_pass(ops)
        finally:
            tracer.uninstall()
        traced.append(calibrated(elapsed, kernel))
        metrics = tracing.layer_metrics(tracer.spans, elapsed)
        metrics["cli.rows"], metrics["cli.bytes"] = output_stats(ops)
        per_pass.append(metrics)
        tally.check(ops, results)

    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    out["wall.raw_s"] = statistics.median(raw)
    out["wall.cal_kernel_s"] = statistics.median(kernels)
    for pkg, seconds_ in import_times(entry).items():
        out[f"setup.import_s.{pkg}"] = seconds_

    frozen = {}
    if os.path.isfile(FROZEN):
        with open(FROZEN, encoding="utf-8") as fh:
            frozen = json.load(fh).get("digests", {}).get(name, {})
    if seed == workloads.DEFAULT_SEED:
        got = digests(ops)
    else:
        canon_dir = os.path.join(outdir, "canonical")
        os.makedirs(canon_dir, exist_ok=True)
        canon = workloads.BUILDERS[name](workloads.DEFAULT_SEED, canon_dir)
        run_pass(canon)
        got = digests(canon)
    out["cli.digest_mismatch"] = sum(got.get(f) != d for f, d in frozen.items())

    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, f"{name}-seed{seed}.csv"))
    print(f"# {name}: {len(traced)} traced passes, {len(tracer.spans)} spans in the "
          f"last, written to {os.path.relpath(TRACE_DIR, ROOT)}", file=sys.stderr)
    return out


def known_defects() -> "Tally":
    """One checked pass of the calls at inputs with known defects."""
    import workloads

    ops = workloads.known_defects()
    tally = Tally(load_references())
    tally.check(ops, run_pass(ops)[1])
    return tally


def child_pass(name: str, seed: int) -> int:
    """One untimed, unchecked pass; print this process's peak RSS in MB."""
    import workloads

    outdir = os.path.join(RUN_DIR, f"{os.getpid()}-{name}-rss")
    os.makedirs(outdir, exist_ok=True)
    try:
        run_pass(workloads.BUILDERS[name](seed, outdir))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(peak_rss_mb())
    return 0


def peak_rss_mb() -> float:
    """High-water resident set of this process image, from /proc.

    getrusage's ru_maxrss would not do: Linux carries it across execve, so a
    child would report at least the RSS of the benchmark process it forked
    from.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# ------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all three, one after another)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the canonical inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed (or traced) passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-pass", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbrownian", "__init__.py")):
        print(f"run.py: no qbrownian sources at {os.path.relpath(SRC)}; run the "
              "benchmark from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.child_pass:
        return child_pass(args.workload, args.seed)
    try:
        units = metric_units(bool(args.trace))
    except (OSError, ValueError, KeyError) as exc:
        print(f"run.py: cannot read the metric table in {os.path.relpath(SPEC)}: "
              f"{exc}", file=sys.stderr)
        return 2

    import reference

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        defects = known_defects()
    except reference.ReferenceUnavailable as exc:
        print(f"run.py: the reference check cannot run: {exc}", file=sys.stderr)
        return 3
    if args.trace:
        for values, _ in results.values():
            values["check.known_defect_ops_failed"] = defects.failed

    for name, (values, _) in results.items():
        if set(values) != set(units):
            print(f"run.py: {name} reports {sorted(set(values) ^ set(units))}, "
                  f"which {os.path.relpath(SPEC)} does not list, or the other way "
                  "round", file=sys.stderr)
            return 4

    print("# env " + json.dumps(environment(), sort_keys=True))
    metrics = {}
    for name, (values, tally) in results.items():
        print(f"# {name} (seed {args.seed}, trace {args.trace})")
        for metric, value in values.items():
            unit = units[metric]
            print(f"#   {metric:<55} {value:>16.6g} {unit}")
            full = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[full] = {"value": value, "unit": unit}
        # ops_failed can be 0, so it is reported through "failed", not as a metric
        print(f"#   {'ops_failed':<55} {tally.failed:>16d} of {tally.attempted} "
              "operations attempted")
        for op_label, reason in tally.reasons.items():
            print(f"#     {op_label}: {reason}")
        print(f"#   {'values outside tolerance':<55} {tally.values_failed:>16d}")
        for op_label, reason in tally.unstable.items():
            print(f"#   nondeterministic: {op_label}: {reason}")
    kinds: dict[str, int] = {}
    for op_label in defects.reasons:
        kind = op_label.partition(" theta=")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"# known defects (not counted in failed): {defects.failed} of "
          f"{defects.attempted} calls fail: "
          + "; ".join(f"{kind} x{n}" for kind, n in kinds.items()))
    attempted = sum(t.attempted for _, t in results.values())
    failed = sum(t.failed for _, t in results.values())
    stable = not any(t.unstable for _, t in results.values())
    print(json.dumps({"correct": failed == 0 and stable, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
