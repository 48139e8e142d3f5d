#!/usr/bin/env python3
"""Regenerate benchmarks/frozen.json: the default seed's reference values and
the byte digests of its CLI output files.

Run from the repository root (needs mpmath):

    python3 benchmarks/freeze.py

Each workload is built at the default seed and run once; every reference key
its checks name is computed with mpmath (reference.py) and stored, so a run at
the default seed needs no mpmath.  The r = 4 curve of closed_forms and the
known-defect calls have the same inputs under every seed, so their references
serve every seed.  The digests pin the canonical commands' output bytes;
run.py --trace 1 reports how many files differ as cli.digest_mismatch.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mpmath  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    refs = reference.References({})
    frozen_digests = {}
    for name in run.WORKLOADS:
        outdir = os.path.join(run.RUN_DIR, f"freeze-{name}")
        os.makedirs(outdir, exist_ok=True)
        try:
            ops = workloads.BUILDERS[name](workloads.DEFAULT_SEED, outdir)
            tally = run.Tally(refs)
            tally.check(ops, run.run_pass(ops)[1])
            if any(op.files for op in ops):
                frozen_digests[name] = run.digests(ops)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        print(f"{name}: {len(refs.values)} references so far, "
              f"{tally.failed} of {tally.attempted} operations failed")
    tally = run.Tally(refs)
    ops = workloads.known_defects()
    tally.check(ops, run.run_pass(ops)[1])
    print(f"known_defects: {len(refs.values)} references so far, "
          f"{tally.failed} of {tally.attempted} calls failed")
    payload = {
        "generator": "benchmarks/freeze.py",
        "mpmath": mpmath.__version__,
        "dps": reference.DPS,
        "seed": workloads.DEFAULT_SEED,
        "digests": frozen_digests,
        "references": dict(sorted(refs.values.items())),
    }
    with open(run.FROZEN, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
