"""One benchmark child process: import schrodg, run one workload once.

Started by run.py with the schrodg sources on PYTHONPATH, one child at a
time; not meant to be run by hand.  It writes ``<out-dir>/result.json`` with

* ``ready``: CLOCK_MONOTONIC when imports and preparation were done (the
  parent subtracts its own spawn time to get the set-up time);
* ``wall_s``: the timed experiment call, imports excluded;
* ``tables``: the checked outputs, read back after the timed call;
* ``trace``: per-layer numbers when run with ``--trace``;
* ``peak_rss_mb`` and the library versions it ran with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts")),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--kappa", type=float, default=None)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import schrodg  # numpy and scipy come with it
    import schrodg.cli  # noqa: F401  the CLI workloads call it; import it during set-up
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    go, collect = workloads.prepare(args.workload, args.kappa, args.out_dir, args.smoke)
    result: dict = {"ready": time.monotonic(), "schrodg_file": schrodg.__file__}
    if not args.setup_only:
        t0 = time.perf_counter()
        go()
        result["wall_s"] = time.perf_counter() - t0
        result["tables"] = collect()
        result["trace"] = tracer.snapshot() if tracer else None
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    (args.out_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
