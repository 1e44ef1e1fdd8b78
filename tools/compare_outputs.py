"""Compare the CLI outputs of the working tree with those of a git revision.

    python tools/compare_outputs.py REV

REV's tree is built with ``git archive`` into a temporary directory.  A fixed list of
CLI configurations then runs twice on each side, in fresh processes with one
BLAS/OpenMP thread, each side from its own ``src``.  For every output file the script
prints "byte-identical", or the largest relative deviation |a - b| / max(|a|, |b|) of
each numeric column that moved (a JSON file's columns are its leaf paths, list indices
dropped).

The exit code is 1 when a deviation exceeds its run's tolerance, when a file differs in
anything but its numbers, when the sides write different files or exit differently, or
when the two runs of one side differ at all; it is 0 otherwise.  The tolerance is 1e-12
for every run but the fine one, ``conv-h --p 3 --levels 7``: at p = 3 beyond level 4 a
one-ulp change of the coefficients moves ``dg_error`` by more than 1e-12 (4.6e-11 at
level 6, 640 x 640 elements, this run's finest level), so that run is judged against
1e-10, about twice that one-ulp noise floor.  At p = 1 there is no such floor (3.6e-16
at every level), so ``singular --p 1 --levels 6`` is in the list at 1e-12: up to 64 x 64
elements, the largest run here of the 250-mode square-well series, which the DG norms
read on the boundary only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOLERANCE = 1e-12
FINE = {"conv-h --p 3 --levels 7": 1e-10}  # run -> its tolerance, past the one-ulp floor
RUNS = [*(f"singular --p {p} --levels {levels}" for p in (1, 2, 3) for levels in (3, 4)),
        "singular --p 1 --levels 6",
        "conv-h --p 3 --levels 4",
        *(f"conv-h --space {space} --p 2 --levels 3" for space in ("planewave", "full")),
        "conv-h --p 1 --levels 3 --global-oracle",
        "conv-p --levels 3",
        "conv-p --space planewave --levels 3",
        "conditioning --p 2 --levels 3",
        *FINE]


def run_dir(run: str) -> str:
    return run.replace(" --", "_").replace(" ", "")


def run_all(src: Path, out: Path) -> dict[str, int]:
    """Every configuration of RUNS on the package in ``src``, into a directory of its own
    under ``out``; the exit code of each."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    codes = {}
    for run in RUNS:
        where = out / run_dir(run)
        where.mkdir(parents=True)
        codes[run] = subprocess.run([sys.executable, "-m", "schrodg.cli", *run.split(),
                                     "--out", str(where / "out.csv")], env=env, cwd=where,
                                    stdout=subprocess.DEVNULL).returncode
    return codes


def files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def columns(name: str, data: bytes) -> dict[str, list]:
    """The cells of a CSV file by column, or the leaves of a JSON file by path."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(data.decode().splitlines())
        return {c: [row[i] for row in rows] for i, c in enumerate(header)}
    leaves: dict[str, list] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        else:
            leaves.setdefault(path, []).append(node)
    walk(json.loads(data), "")
    return leaves


def _number(cell) -> float | None:
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def deviations(name: str, ours: bytes, theirs: bytes) -> dict[str, float] | None:
    """The largest relative deviation of each numeric column; None when the files differ in
    anything but their numbers."""
    a, b = columns(name, ours), columns(name, theirs)
    if a.keys() != b.keys() or any(len(a[c]) != len(b[c]) for c in a):
        return None
    out = {}
    for c in a:
        for x, y in zip(a[c], b[c]):
            u, v = _number(x), _number(y)
            if u is None or v is None:
                if x != y:
                    return None
                continue
            if math.isnan(u) or math.isnan(v) or math.isinf(u) or math.isinf(v):
                if not (u == v or (math.isnan(u) and math.isnan(v))):
                    return None
                continue
            scale = max(abs(u), abs(v))
            out[c] = max(out.get(c, 0.0), abs(u - v) / scale if scale else 0.0)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev, ok = argv[0], True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        sides = {}
        for side, src in (("rev", tmp / "rev" / "src"), ("tree", ROOT / "src")):
            outs = []
            for k in (1, 2):
                codes = run_all(src, tmp / f"{side}{k}")
                outs.append(files(tmp / f"{side}{k}"))
                if any(codes.values()):
                    print(f"{side}: nonzero exit: " + ", ".join(
                        f"{run} -> {code}" for run, code in codes.items() if code))
            if outs[0] != outs[1]:
                ok = False
                print(f"{side}: two runs differ: " + ", ".join(
                    sorted(set(outs[0]) ^ set(outs[1]) | {f for f in outs[0] if f in outs[1]
                                                          and outs[0][f] != outs[1][f]})))
            sides[side] = (outs[0], codes)
        (theirs, their_codes), (ours, our_codes) = sides["rev"], sides["tree"]
        if their_codes != our_codes:
            ok = False
            print(f"exit codes differ: {rev} {their_codes}, working tree {our_codes}")
        if theirs.keys() != ours.keys():
            ok = False
            print(f"files differ: only at {rev}: {sorted(theirs.keys() - ours.keys())}; "
                  f"only in the working tree: {sorted(ours.keys() - theirs.keys())}")
        tolerances = {run_dir(run): tol for run, tol in FINE.items()}
        worst, over = 0.0, []
        for name in sorted(theirs.keys() & ours.keys()):
            if theirs[name] == ours[name]:
                print(f"{name}: byte-identical")
                continue
            moved = deviations(name, ours[name], theirs[name])
            if moved is None:
                ok = False
                print(f"{name}: differs in more than its numbers")
                continue
            worst = max([worst, *moved.values()])
            if max(moved.values(), default=0.0) > tolerances.get(name.split("/")[0], TOLERANCE):
                over.append(name)
            listed = ", ".join(f"{c} {d:.2g}" for c, d in moved.items() if d)
            print(f"{name}: max relative deviation {listed}" if listed else
                  f"{name}: the same numbers, written differently")
    ok = ok and not over
    limits = "; ".join([f"{TOLERANCE:g}", *(f"{run}: {tol:g}" for run, tol in FINE.items())])
    print(f"{len(RUNS)} runs, twice per side, {len(ours)} files; largest deviation "
          f"{worst:.2g} (tolerance {limits}); over it: {', '.join(over) or 'none'}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
