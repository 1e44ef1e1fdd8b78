"""Regenerate reference.json: the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs each workload once per kappa of the seed table (once for the seedless
``square_well``), at full and at smoke size, with the schrodg sources of this
checkout, and stores their ``n_dofs`` and ``dg_error`` rows.  Regenerate only
when a change is meant to alter those numbers, and say so with the change.
Takes about a minute on one core.
"""

from __future__ import annotations

import json
import shutil
import time

import run
from workloads import KAPPAS, SEEDED, WORKLOADS, reference_key

RTOL = 1e-6
RTOL_REASON = (
    "Reordered arithmetic moved dg_error by at most 5e-9 relative (two BLAS threads "
    "instead of one, or a banded LU with the same refinement step, on a 640 x 4 "
    "wide_slab at kappa 4, 4.25 and 5; two BLAS threads on the 480 x 2 wide_slab: "
    "at most 3e-9), so 1e-6 leaves a 200x margin for batched or banded kernels. "
    "Dropping the Dirichlet or the beta term of dg_norm, or reusing a stale slab "
    "right-hand side, failed every affected value.")


def main() -> None:
    run.TMP.mkdir(exist_ok=True)
    out = {"rtol": RTOL, "rtol_reason": RTOL_REASON, "git_commit": run.git_commit()}
    try:
        for size, smoke in (("full", False), ("smoke", True)):
            out[size] = {}
            for workload in WORKLOADS:
                out[size][workload] = {}
                for kappa in (KAPPAS if SEEDED[workload] else (None,)):
                    deadline = time.monotonic() + run.RUN_LIMIT_S
                    result = run.run_child(workload, kappa, deadline, smoke=smoke)
                    if result is None:
                        raise SystemExit(f"{workload} (kappa {kappa}) failed")
                    out[size][workload][reference_key(kappa)] = result["tables"]
                    print(size, workload, kappa, result["tables"], flush=True)
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
