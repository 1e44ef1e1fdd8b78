"""Benchmark of schrodg: whole runs end to end, and a traced per-layer breakdown.

    python3 perfbench/run.py --workload {smooth_p3,square_well,wide_slab,all}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run it from anywhere inside a source checkout; it uses ``src/schrodg`` of the
checkout it lives in and writes only under ``.perfbench_tmp/`` there.

Each run is a closed loop with one client: a fresh Python child per sample,
started only after the previous one ended, so every sample pays the imports
and the basis caches the way a command-line user does.  Children are pinned
to one BLAS/OpenMP thread and never overlap.  A run first starts one
unmeasured child that only imports (it compiles bytecode and warms the file
cache), then ``SETUP_PROBES`` import-only children for the set-up time, then
workload children until ``--seconds`` have passed since the run began, at
least ``MIN_CHILDREN``.

Times are given at a reference speed.  On a shared 2-core machine the speed
of a core comes and goes in bursts of a few seconds, and the whole machine
slows by up to half for many minutes, so raw seconds of the same code move
by 20% from one run to the next.  After each child the parent times
``calibrate()``, a fixed mix of the kinds of work the children do, and
scales the child's seconds by ``CAL_REF_S`` over the mean of the loop times
just before and after it: a child that ran while the machine was slow counts
as if it had run at the speed where the loop takes ``CAL_REF_S``.  Over ten
runs per workload on a shared 2-core Xeon VM, the spread (interquartile
range over median) of the raw median times was 0.09 to 0.10, that of the
scaled ones 0.025 to 0.086.  Children are short (2 to 4 s), about ten of
them in a 35 s run, so the medians reject single bursts.  The raw medians
and the loop's time are printed beside the metrics.

``--trace 0`` reports the end-to-end metrics, medians over the children:

* ``wall_s``: the experiment call, imports excluded, at the reference speed;
* ``setup_s``: child start plus ``import schrodg`` (numpy and scipy with it)
  up to the point the experiment is ready, at the reference speed, over
  probes and children;
* ``peak_rss_mb``: the child's peak resident memory;
* ``dofs_per_s``: ``n_dofs`` summed over every level and space solved,
  divided by ``wall_s``.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (see tracer.py) plus
``trace.overhead_s``, the traced minus the untraced median of the raw seconds.

Every child's outputs (``n_dofs`` and ``dg_error`` per level) are checked
against ``reference.json``; a child that fails or times out fails all of its
values.  ``fail_frac`` = failed / attempted checked values.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report and a
``provenance`` record.  The exit code is 0 only when every value passed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, kappa_for, reference_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "schrodg"
TMP = ROOT / ".perfbench_tmp"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 6
MIN_CHILDREN = 5
CAL_REF_S = 0.2  # about calibrate() on an idle core; it only sets the scale
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "dofs_per_s": "1/s"}
PER_LAYER = {
    "mesh.build_s": "s",
    "basis.build_s": "s", "basis.build_calls": "count",
    "basis.eval_s": "s", "basis.eval_calls": "count",
    "poly.eval_s": "s", "poly.eval_calls": "count", "poly.eval_points": "count",
    "quadrature.rule_calls": "count",
    "assembly.march_s": "s", "assembly.march_self_s": "s", "assembly.slabs": "count",
    "linalg.factor_s": "s", "linalg.factor_calls": "count",
    "linalg.solve_s": "s", "linalg.solve_calls": "count",
    "linalg.slabs_per_factor": "slabs/factor",
    "linalg.cond2_s": "s", "linalg.cond2_calls": "count",
    "linalg.factor_bytes_computed": "B", "linalg.factor_flops_computed": "flop",
    "norms.dg_norm_s": "s", "norms.dg_norm_self_s": "s",
    "solutions.eval_s": "s", "solutions.eval_calls": "count",
    "experiments.write_s": "s",
    "trace.overhead_s": "s",
}


def run_child(workload: str, kappa: float | None, deadline: float, *, trace=False,
              smoke=False, setup_only=False) -> dict | None:
    """Run one child to completion; None if it failed or passed ``deadline``."""
    out_dir = Path(tempfile.mkdtemp(dir=TMP))
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--out-dir", str(out_dir)]
    if kappa is not None:
        cmd += ["--kappa", repr(kappa)]
    cmd += [flag for flag, on in (("--trace", trace), ("--smoke", smoke),
                                  ("--setup-only", setup_only)) if on]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": path}
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, cwd=out_dir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
        if proc.returncode != 0:
            print(f"{workload}: child exited {proc.returncode}\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return None
        result = json.loads((out_dir / "result.json").read_text())
    except subprocess.TimeoutExpired:
        print(f"{workload}: child killed at the run's time limit", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not Path(result["schrodg_file"]).resolve().is_relative_to(SOURCE):
        raise SystemExit(f"child imported schrodg from {result['schrodg_file']}, "
                         f"not from {SOURCE}")
    result["setup_s"] = result["ready"] - t_spawn
    return result


def check(tables: dict, reference: dict, rtol: float) -> tuple[int, int]:
    """(attempted, failed) over the n_dofs and dg_error values of every row."""
    attempted = failed = 0
    for name, ref_rows in reference.items():
        rows = tables.get(name, [])
        for i in range(max(len(rows), len(ref_rows))):
            attempted += 2
            if i >= len(rows) or i >= len(ref_rows):
                failed += 2
                continue
            (n, err), (ref_n, ref_err) = rows[i], ref_rows[i]
            failed += n != ref_n
            if ref_err is None or err is None:
                failed += err is not ref_err
            else:
                failed += not abs(err - ref_err) <= rtol * abs(ref_err)
    return attempted, failed


def solved_dofs(tables: dict) -> int:
    return sum(n for rows in tables.values() for n, err in rows if err is not None)


def _median(values: list[float]) -> dict:
    return {"value": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


@functools.cache
def _calibration_inputs():
    os.environ.update(THREAD_ENV)  # OpenBLAS reads it when numpy loads
    import numpy
    import scipy.linalg

    a = numpy.random.default_rng(0).random((300, 300)) + 300 * numpy.eye(300)
    return numpy, scipy.linalg, a


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of the children's kinds of work.

    About half dense LU factorisations, a quarter numpy calls on short
    vectors and a quarter interpreted loop; of the mixes tried, this one
    tracked the children's slowdowns best on all three workloads.  It does
    not touch schrodg, so a change to the program leaves it alone.
    """
    numpy, linalg, a = _calibration_inputs()
    t0 = time.perf_counter()
    for _ in range(100):
        linalg.lu_factor(a)
    for _ in range(3_600):
        numpy.polyval(a[0, :8], a[1, :64])
    total = 0
    for i in range(800_000):
        total += i * i
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())
    kappa = kappa_for(workload, seed)
    expected = reference["smoke" if smoke else "full"][workload][reference_key(kappa)]
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S

    warm = run_child(workload, kappa, deadline, smoke=smoke, setup_only=True)
    loop_s = [calibrate()]

    def sample(**kw) -> dict | None:
        r = run_child(workload, kappa, deadline, smoke=smoke, **kw)
        loop_s.append(calibrate())
        if r:
            r["scale"] = CAL_REF_S / statistics.fmean(loop_s[-2:])
        return r

    probes = [r for r in (sample(setup_only=True) for _ in range(SETUP_PROBES)) if r]
    children: list[tuple[bool, dict | None]] = []
    while len(children) < MIN_CHILDREN or time.monotonic() - t_start < seconds:
        traced = trace and len(children) % 2 == 1
        children.append((traced, sample(trace=traced)))

    attempted = failed = 0
    for _, r in children:
        a, f = check(r["tables"] if r else {}, expected, reference["rtol"])
        attempted, failed = attempted + a, failed + f
    plain = [r for traced, r in children if r and not traced]
    layered = [r for traced, r in children if r and traced]

    metrics: dict[str, dict] = {}
    raw: dict[str, float] = {}
    if trace:
        for name in PER_LAYER:
            values = [r["trace"]["metrics"][name] for r in layered
                      if name in r["trace"]["metrics"]]
            if values:
                metrics[name] = _median(values)
        if plain and layered:
            metrics["trace.overhead_s"] = {
                "value": statistics.median(r["wall_s"] for r in layered)
                - statistics.median(r["wall_s"] for r in plain),
                "n": len(layered) + len(plain)}
    elif plain:
        started = probes + plain
        metrics["wall_s"] = _median([r["wall_s"] * r["scale"] for r in plain])
        metrics["setup_s"] = _median([r["setup_s"] * r["scale"] for r in started])
        metrics["peak_rss_mb"] = _median([r["peak_rss_mb"] for r in plain])
        metrics["dofs_per_s"] = _median([solved_dofs(r["tables"]) / (r["wall_s"] * r["scale"])
                                         for r in plain])
        raw = {"wall_s": statistics.median(r["wall_s"] for r in plain),
               "setup_s": statistics.median(r["setup_s"] for r in started)}
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload, "seed": seed, "kappa": kappa, "smoke": smoke,
        "trace": trace, "attempted": attempted, "failed": failed,
        "metrics": metrics, "absent": [m for m in units if m not in metrics],
        "units": units, "children": len(children), "traced_children": len(layered),
        "versions": next((r["versions"] for r in [warm, *plain, *layered] if r), None),
        "breakdown": layered[0]["trace"] if layered else None,
        "rtol": reference["rtol"], "loop_s": statistics.median(loop_s), "raw": raw,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _provenance(results: list[dict]) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), None)
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if (index / "level").read_text().strip() == "3":
            l3 = (index / "size").read_text().strip()
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "l3_cache": l3, "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "versions": next((r["versions"] for r in results if r["versions"]), None),
        "cal_ref_s": CAL_REF_S,
        "runs": [{k: r[k] for k in ("workload", "seed", "kappa", "smoke", "trace",
                                    "children", "traced_children", "rtol", "loop_s", "raw")}
                 for r in results],
    }


def report(r: dict) -> None:
    seed_note = f"kappa {r['kappa']}" if r["kappa"] is not None else "seed ignored"
    print(f"== {r['workload']}  seed {r['seed']} ({seed_note})  trace {int(r['trace'])}"
          f"  children {r['children']}{'  smoke' if r['smoke'] else ''}")
    for name, m in r["metrics"].items():
        spread = f"  (median of {m['n']}; min {m['min']:.6g}, max {m['max']:.6g})" \
            if "min" in m else f"  (from {m['n']} children)"
        print(f"  {name:30s} {m['value']:14.6g} {r['units'][name]}{spread}")
    for name in r["absent"]:
        print(f"  {name:30s} absent")
    raw = "".join(f"{name} {value:.6g} s, " for name, value in r["raw"].items())
    print(f"  {'raw medians':30s} {raw}calibrate() {r['loop_s']:.4g} s"
          f" (reference {CAL_REF_S} s)")
    frac = r["failed"] / r["attempted"] if r["attempted"] else 1.0
    print(f"  {'fail_frac':30s} {frac:14.6g} ratio  ({r['failed']} of {r['attempted']}"
          f" checked values, rtol {r['rtol']:g})")
    if r["breakdown"]:
        trace = r["breakdown"]
        for parent in ("assembly.march", "norms.dg_norm"):
            kids = sorted(((t, c) for p, c, t in trace["children"] if p == parent),
                          reverse=True)
            if kids:
                print(f"  children of {parent}: "
                      + ", ".join(f"{c} {t:.3f} s" for t, c in kids))
        if trace["missing"]:
            print(f"  missing trace targets: {', '.join(trace['missing'])}")


def _result_line(results: list[dict], prefix: bool) -> dict:
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": r["units"][name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    complete = all(not r["absent"] or r["trace"] for r in results)
    return {"correct": failed == 0 and attempted > 0 and complete,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the benchmark's smoke test")
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"schrodg sources not found at {SOURCE}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [measure(w, args.seed, args.seconds, bool(args.trace), args.smoke)
                   for w in names]
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    for r in results:
        report(r)
    print(json.dumps({"provenance": _provenance(results)}))
    line = _result_line(results, prefix=args.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
