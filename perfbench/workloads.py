"""The benchmark's workloads, shared by run.py and the child process (child.py).

Each workload is one schrodg computation.  Its checked outputs are tables
``{name: [[n_dofs, dg_error], ...]}`` with one row per level; ``dg_error`` is
None where the program reports no error (a documented plane-wave breakdown).

The seed only picks ``kappa`` of the exact solution ``ExpSolution(kappa)``
for the two smooth workloads.  It never changes the problem size, so the
cost of a run does not depend on the seed.  ``square_well`` is fixed by the
paper and ignores the seed.

Sizes are chosen so one execution takes 2 to 4 seconds on one core: a
benchmark run times about ten of them and keeps the fastest, which a shared
machine's bursts of slowdown move far less than a few long executions.
"""

from __future__ import annotations

import csv
from pathlib import Path

WORKLOADS = ("smooth_p3", "square_well", "wide_slab")
SEEDED = {"smooth_p3": True, "square_well": False, "wide_slab": True}
KAPPAS = (4.0, 4.25, 4.5, 4.75, 5.0, 5.25, 5.5, 5.75)
SINGULAR_FAMILIES = ("trefftz", "quasi-trefftz", "full", "planewave")


def kappa_for(workload: str, seed: int) -> float | None:
    return KAPPAS[seed % len(KAPPAS)] if SEEDED[workload] else None


def reference_key(kappa: float | None) -> str:
    """Key of a run's stored reference tables: its kappa, or "fixed"."""
    return "fixed" if kappa is None else repr(kappa)


def _read_csv(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        return [[int(row["n_dofs"]), float(row["dg_error"]) if row["dg_error"] else None]
                for row in csv.DictReader(fh)]


def _cli(argv: list[str]) -> None:
    import schrodg.cli

    code = schrodg.cli.main(argv)
    if code:
        raise SystemExit(code)


def prepare(workload: str, kappa: float | None, out_dir: Path, smoke: bool):
    """Return ``(go, collect)``: the timed call, and the reader of its outputs.

    ``smoke`` shrinks every workload to a size that runs in well under a
    second, for the benchmark's own smoke test.
    """
    if workload == "smooth_p3":
        out = out_dir / "conv_h.csv"
        argv = ["conv-h", "--p", "3", "--levels", "2" if smoke else "3",
                "--kappa", repr(kappa), "--out", str(out)]
        return (lambda: _cli(argv)), (lambda: {"conv_h": _read_csv(out)})

    if workload == "square_well":
        out = out_dir / "singular.csv"
        argv = ["singular", "--p", "1", "--levels", "2" if smoke else "4", "--out", str(out)]
        return (lambda: _cli(argv)), (lambda: {
            f: _read_csv(out_dir / f"singular_{f}.csv") for f in SINGULAR_FAMILIES})

    if workload == "wide_slab":
        # Wide, shallow slabs: one large dense slab matrix, factored once and
        # reused for both slabs, the case no CLI experiment builds, hence the
        # library path.  The LU is cubic in nx and the rest linear in nx * nt;
        # at 480 x 2 the LU is the largest part of the run, about 40% of it.
        import schrodg

        nx, nt = (40 if smoke else 480), 2
        tables: dict[str, list[list]] = {}

        def go():
            mesh = schrodg.build_cartesian_mesh(schrodg.SpaceTimeDomain(0.0, 1.0, nt / nx), nx, nt)
            space = schrodg.SpaceKind.trefftz(3)
            sol = schrodg.ExpSolution(kappa)
            psi = schrodg.march(mesh, space, schrodg.solution_data(sol))
            err = schrodg.dg_norm(schrodg.DifferenceField(schrodg.exact_field(sol), psi),
                                  mesh, n=20)
            tables["wide_slab"] = [[mesh.n_elements * space.dim(1), err]]

        return go, (lambda: tables)

    raise ValueError(f"unknown workload {workload!r}")
