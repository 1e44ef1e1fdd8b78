"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at smoke size with ``--trace 0`` and ``--trace 1`` and
checks the exit code, the schema of the last output line, and that its
metric names and units are exactly those listed in BENCHMARK.json.  Then it
checks that the benchmark, copied into a directory that holds only
BENCHMARK.json and the benchmark's files, exits non-zero without printing a
result.  Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from run import BENCH, ROOT
from workloads import WORKLOADS

BARE = ROOT / ".perfbench_smoke"


def _run(root, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=180)


def _check_result(proc, expected: dict, what: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: keys {sorted(line)}")
    if line.get("correct") is not True or line.get("failed") != 0:
        errors.append(f"{what}: not correct ({line.get('failed')} failed)")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        errors.append(f"{what}: attempted {line.get('attempted')!r}")
    metrics = line.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{what}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            errors.append(f"{what}: {name} is {m}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{what}: {name} value {value!r}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for workload in WORKLOADS:
            proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
            errors += _check_result(proc, expected, f"{workload} trace {trace}")

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        BARE.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, BARE / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(BARE, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                    "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)

    for error in errors:
        print(error, file=sys.stderr)
    print("smoke: FAIL" if errors else f"smoke: OK ({BENCH.name})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
