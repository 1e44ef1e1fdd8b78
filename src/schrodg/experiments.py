"""Experiment harness: h/p-convergence, conditioning and singular-solution runs.

Every run returns rows of (level, h_x, h_t, n_dofs, dg_error, rate, cond2)
and can be serialized to CSV plus a JSON summary with fitted log-log
slopes.  Identical configurations produce bitwise-identical output files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import (GLOBAL_DOF_CAP, BoundaryData, SlabSolveError, constant_data, march,
                       slab_operator, solution_data, solve_global)
from .basis import FAMILIES, SpaceKind, trefftz_basis
from .mesh import SpaceTimeDomain, build_cartesian_mesh
from .norms import DifferenceField, dg_norm, dg_norms, exact_field
from .poly import apply_schrodinger, eval_poly_many, poly_combination
from .quadrature import MAX_NODES, box_rule, data_rule_size
from .solutions import ExpSolution, SquareWellSeries, square_well_initial

SMOOTH_DOMAIN = SpaceTimeDomain(0.0, 1.0, 1.0)
SINGULAR_DOMAIN = SpaceTimeDomain(0.0, 1.0, 0.1)
RATE_FLOOR = 1e-14


class OracleMismatchError(RuntimeError):
    """Marching and global solutions disagree beyond tolerance."""


@dataclass
class ExperimentConfig:
    experiment: str
    space: SpaceKind = field(default_factory=lambda: SpaceKind.trefftz(1))
    levels: int = 5
    kappa: float = 5.0
    quad_n: int | None = None
    constant_data: bool = False
    global_oracle: bool = False
    all_spaces: bool = True  # singular experiment: run all four families

    def __post_init__(self):
        # conv-p admits a single-entry table (no rate column); the refinement
        # studies need at least two levels to report rates at all
        minimum = 1 if self.experiment in ("conv-p", "verify-basis") else 2
        if self.levels < minimum:
            raise ValueError(f"levels must be >= {minimum} for {self.experiment}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, not {self.kappa}")
        if self.quad_n is not None and not 1 <= self.quad_n <= MAX_NODES:
            raise ValueError(f"quad_n must be in [1, {MAX_NODES}]")
        if self.experiment == "verify-basis" and not 1 <= self.space.p <= 3:
            raise ValueError("p must be 1, 2 or 3 for verify-basis")
        name, top = ("levels", self.levels) if self.experiment == "conv-p" else ("p", self.space.p)
        if self.quad_n is None and data_rule_size(top) > MAX_NODES:  # 2p + 2 nodes for degree p
            raise ValueError(f"degree {top} needs {data_rule_size(top)} Gauss nodes, more than "
                             f"{MAX_NODES}: at most --{name} {(MAX_NODES - 2) // 2} "
                             "without --quad-n")
        if self.experiment == "verify-basis" and self.space.seed_choice != "a":
            raise ValueError("seed choice must be a for verify-basis (b is d = 1 only)")
        # both study the trefftz space only (conditioning: its seed scalings a and b)
        if self.experiment in ("conditioning", "verify-basis") and self.space.family != "trefftz":
            raise ValueError(f"space must be trefftz for {self.experiment}")
        if self.global_oracle and self.experiment == "conv-h":
            dofs = [_conv_h_n(j) ** 2 * self.space.dim(1) for j in range(self.levels)]
            if dofs[-1] > GLOBAL_DOF_CAP:
                raise ValueError(f"--global-oracle is capped at {GLOBAL_DOF_CAP} unknowns and "
                                 f"level {self.levels - 1} has {dofs[-1]}: {self.space.family} "
                                 f"p = {self.space.p} allows at most --levels "
                                 f"{sum(n <= GLOBAL_DOF_CAP for n in dofs)}")


@dataclass
class ConvergenceRow:
    level: int
    h_x: float
    h_t: float
    n_dofs: int
    dg_error: float | None
    rate: float | None
    cond2: float | None


CSV_COLUMNS = ("level", "h_x", "h_t", "n_dofs", "dg_error", "rate", "cond2")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".16g")


def write_rows_csv(rows: list[ConvergenceRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_fmt(getattr(r, c)) for c in CSV_COLUMNS] for r in rows)


def write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _rate(prev: float | None, cur: float | None) -> float | None:
    """log2 ratio of consecutive level quantities; None near roundoff."""
    if prev is None or cur is None:
        return None
    if prev < RATE_FLOOR or cur < RATE_FLOOR:
        return None
    return math.log2(prev / cur)


def loglog_slope(hs, vals) -> float | None:
    pts = [(h, v) for h, v in zip(hs, vals) if v is not None and v > 0.0]
    if len(pts) < 2:
        return None
    lh = np.log2([p[0] for p in pts])
    lv = np.log2([p[1] for p in pts])
    return float(np.polyfit(lh, lv, 1)[0])


def rows_as_dicts(rows: list[ConvergenceRow]) -> list[dict]:
    return [asdict(r) for r in rows]


def _conv_h_n(level: int) -> int:
    return 10 * 2 ** level  # elements per direction of conv-h's mesh at ``level``


def _solve_and_error(mesh, space, data, sol_field, quad_n, global_oracle=False) -> tuple:
    sol = march(mesh, space, data, n_quad=quad_n)
    if global_oracle:
        ref = solve_global(mesh, space, data, n_quad=quad_n)
        num, den = np.linalg.norm(sol.coeffs - ref.coeffs), np.linalg.norm(ref.coeffs)
        if not num <= 1e-10 * max(den, 1.0):  # a NaN in either solution fails too
            raise OracleMismatchError(f"marching/global mismatch {num / max(den, 1e-300):.3e}")
    n_norm = quad_n if quad_n is not None else data_rule_size(space.p)
    return dg_norm(DifferenceField(sol_field, sol), mesh, n=n_norm), sol


def _row(level: int, mesh, space, err, cond) -> ConvergenceRow:
    if err is not None and not math.isfinite(err):
        raise FloatingPointError(f"level {level}, {space.family} p = {space.p}: "
                                 f"dg_error is {err}, not finite")
    return ConvergenceRow(level, *mesh.h, mesh.n_elements * space.dim(1), err, None, cond)


def _rated(rows: list[ConvergenceRow], rate_of: str = "dg_error") -> list[ConvergenceRow]:
    for prev, row in zip([None] + rows, rows):
        row.rate = _rate(getattr(prev, rate_of) if prev else None, getattr(row, rate_of))
    return rows


def _table(levels, case, rate_of: str = "dg_error") -> list[ConvergenceRow]:
    """One row per level of ``case(level) -> (mesh, space, dg_error, cond2)``, rated on
    consecutive ``rate_of`` values."""
    return _rated([_row(level, *case(level)) for level in levels], rate_of)


def run_conv_h(config: ExperimentConfig) -> list[ConvergenceRow]:
    """DG errors under simultaneous space-time refinement h = 0.1 * 2^-j."""
    if config.constant_data:  # psi = 1: the exponential with kappa = 0
        data, sol_field = constant_data(1.0), exact_field(ExpSolution(0.0))
    else:
        sol = ExpSolution(config.kappa)
        data, sol_field = solution_data(sol), exact_field(sol)

    def case(j):
        mesh = build_cartesian_mesh(SMOOTH_DOMAIN, _conv_h_n(j), _conv_h_n(j))
        return mesh, config.space, _solve_and_error(mesh, config.space, data, sol_field,
                                                    config.quad_n, config.global_oracle)[0], None
    return _table(range(config.levels), case)


def run_conv_p(config: ExperimentConfig) -> list[ConvergenceRow]:
    """DG errors on the fixed h = 0.1 mesh for p = 1..levels."""
    sol = ExpSolution(config.kappa)
    data, sol_field = solution_data(sol), exact_field(sol)
    mesh = build_cartesian_mesh(SMOOTH_DOMAIN, 10, 10)

    def case(p):
        space = SpaceKind(config.space.family, p, config.space.seed_choice)
        err, psi = _solve_and_error(mesh, space, data, sol_field, config.quad_n)
        return mesh, space, err, psi.operator.cond2
    return _table(range(1, config.levels + 1), case)


def run_conditioning(config: ExperimentConfig) -> dict:
    """cond2 of the slab operator per level, for both seed scalings."""
    p = config.space.p
    tables: dict[str, list[ConvergenceRow]] = {}
    slopes: dict[str, float | None] = {}
    for choice in ("a", "b"):
        space = SpaceKind.trefftz(p, choice)

        def case(j):
            mesh = build_cartesian_mesh(SMOOTH_DOMAIN, _conv_h_n(j), _conv_h_n(j))
            return mesh, space, None, slab_operator(mesh, space, config.quad_n).cond2
        rows = tables[choice] = _table(range(config.levels), case, rate_of="cond2")
        slopes[choice] = loglog_slope([r.h_x for r in rows], [r.cond2 for r in rows])
    return {"p": p, "tables": tables, "slopes": slopes}


def run_singular(config: ExperimentConfig) -> dict:
    """Square-well problem on (0,1) x (0,0.1) with h_t = 0.1 h_x = 0.05 * 2^-j: one mesh
    per level, every family marched on it and scored in one norm walk (`dg_norms`), which
    reads the shared series once, on the boundary only; a family whose march breaks down
    keeps an empty row at that level."""
    p = config.space.p
    data = BoundaryData(psi0=square_well_initial,
                        g_D=lambda x, t: np.zeros(np.shape(x), dtype=complex))
    sol_field = exact_field(SquareWellSeries(250))
    families = FAMILIES if config.all_spaces else (config.space.family,)
    spaces = [SpaceKind(family, p, config.space.seed_choice) for family in families]
    n_norm = config.quad_n if config.quad_n is not None else data_rule_size(p)

    def level(j) -> list[ConvergenceRow]:
        mesh = build_cartesian_mesh(SINGULAR_DOMAIN, 2 * 2 ** j, 2 * 2 ** j)
        sols = {}
        for space in spaces:
            try:
                sols[space.family] = march(mesh, space, data, n_quad=config.quad_n)
            except SlabSolveError:
                pass  # the documented plane-wave breakdown at fine levels: an empty row
        errs = dict(zip(sols, dg_norms([DifferenceField(sol_field, s) for s in sols.values()],
                                       mesh, n=n_norm)))
        return [_row(j, mesh, space, errs.get(space.family), None) for space in spaces]
    by_level = [level(j) for j in range(config.levels)]
    return {"p": p, "tables": {space.family: _rated(list(rows))
                               for space, rows in zip(spaces, zip(*by_level))}}


def _gram_time_slice(funcs, d: int, p_for_rule: int, center, scales) -> np.ndarray:
    """Gram matrix of the basis restricted to the center time, over K_x."""
    z, s = center
    hx = scales[0]
    ranges = [(z[ell] - hx / 2.0, z[ell] + hx / 2.0) for ell in range(d)]
    pts, wts = box_rule(ranges, 2 * p_for_rule + 2)
    vals = np.stack([eval_poly_many(f, pts if d > 1 else pts[:, 0], s) for f in funcs])
    return (vals.conj() * wts) @ vals.T


def verify_basis(p_max: int = 3, dims: tuple[int, ...] = (1, 2, 3),
                 dump_basis: bool = False) -> dict:
    """Dimension, kernel-residual, Gram-rank and trace-uniqueness report (seed choice a)."""
    from .basis import _propagate_trefftz  # reconstruction shares the builder path

    rng = np.random.default_rng(0)
    entries = []
    bases_dump: dict[str, list] = {}
    for d in dims:
        for p in range(1, p_max + 1):
            center = (tuple([0.3] * d) if d > 1 else 0.3, 0.2)
            scales = (0.5, 0.7)
            eb = trefftz_basis(d, p, center, scales)
            expected = math.comb(2 * p + d, d)

            residual = 0.0
            for f in eb.functions:
                r = apply_schrodinger(f)
                scale = max(f.max_coeff(), 1e-300)
                residual = max(residual, r.max_coeff() / scale)

            gram = _gram_time_slice(eb.functions, d, p, eb.functions[0].center, scales)
            sv = np.linalg.svd(gram, compute_uv=False)
            sv_ratio = float(sv[-1] / sv[0])

            gamma = rng.standard_normal(eb.dim) + 1j * rng.standard_normal(eb.dim)
            member = poly_combination(list(eb.functions), gamma)
            seed = member.time_slice_coeffs()
            rebuilt = _propagate_trefftz(seed, d, p, scales[0], scales[1])
            keys = set(member.coeffs) | set(rebuilt)
            scale = max(member.max_coeff(), 1e-300)
            trace_err = max((abs(member.coeffs.get(k, 0.0) - rebuilt.get(k, 0.0))
                             for k in keys), default=0.0) / scale

            ok = bool(eb.dim == expected and residual <= 1e-13
                      and sv_ratio > 1e-10 and trace_err <= 1e-12)
            entries.append({
                "d": d, "p": p,
                "dim": eb.dim, "expected_dim": expected,
                "trefftz_residual": residual,
                "gram_smin_over_smax": sv_ratio,
                "trace_reconstruction_error": trace_err,
                "pass": ok,
            })
            if dump_basis:
                bases_dump[f"d{d}_p{p}"] = [f.to_json_dict() for f in eb.functions]
    report = {"seed_choice": "a", "entries": entries,
              "all_pass": all(e["pass"] for e in entries)}
    if dump_basis:
        report["bases"] = bases_dump
    return report
