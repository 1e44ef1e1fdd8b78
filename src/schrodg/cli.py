"""Command-line entry point.

    schrodg <experiment> [--p N] [--space FAMILY] [--levels N] [--kappa K]
            [--seed-choice a|b] [--out PATH] [--quad-n N] [--global-oracle]
            [--constant-data]

Experiments: conv-h, conv-p, conditioning, singular, verify-basis.
Exit codes: 0 success, 2 solver failure, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .assembly import SlabSolveError
from .basis import SpaceKind
from .experiments import (ExperimentConfig, OracleMismatchError, loglog_slope,
                          rows_as_dicts, run_conditioning, run_conv_h, run_conv_p,
                          run_singular, verify_basis, write_json, write_rows_csv)

EXPERIMENTS = ("conv-h", "conv-p", "conditioning", "singular", "verify-basis")

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid usage is a config error, not exit 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="schrodg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--p", type=int, default=None,
                        help="degree parameter (default 1; verify-basis: 3)")
    parser.add_argument("--space", default=None,
                        choices=("trefftz", "quasi-trefftz", "full", "planewave"),
                        help="discrete space (default trefftz; singular: all four)")
    parser.add_argument("--levels", type=int, default=5,
                        help="refinement levels (conv-p: largest degree)")
    parser.add_argument("--kappa", type=float, default=5.0)
    parser.add_argument("--seed-choice", default="a", choices=("a", "b"))
    parser.add_argument("--out", default=None, help="output CSV/JSON path")
    parser.add_argument("--quad-n", type=int, default=None,
                        help="override quadrature nodes per direction")
    parser.add_argument("--global-oracle", action="store_true",
                        help="cross-check marching against the global solve")
    parser.add_argument("--constant-data", action="store_true",
                        help="conv-h: use psi0 = g_D = 1 instead of the exponential")
    parser.add_argument("--dump-basis", action="store_true",
                        help="verify-basis: include serialized bases in the report")
    return parser


def _make_config(args) -> ExperimentConfig:
    p = args.p if args.p is not None else (3 if args.experiment == "verify-basis" else 1)
    space = SpaceKind(args.space or "trefftz", p, args.seed_choice)
    out = args.out
    if out is None:
        ext = ".json" if args.experiment == "verify-basis" else ".csv"
        out = args.experiment.replace("-", "_") + ext
    return ExperimentConfig(
        experiment=args.experiment,
        space=space,
        levels=args.levels,
        kappa=args.kappa,
        quad_n=args.quad_n,
        out=out,
        constant_data=args.constant_data,
        global_oracle=args.global_oracle,
        all_spaces=args.space is None,
    )


def _run(args) -> int:
    config = _make_config(args)
    out = Path(config.out)
    params = {"experiment": config.experiment, "space": config.space.family,
              "p": config.space.p, "seed_choice": config.space.seed_choice,
              "levels": config.levels, "kappa": config.kappa,
              "quad_n": config.quad_n}

    if config.experiment == "verify-basis":
        if config.space.p > 3:
            raise ValueError("verify-basis supports p <= 3")
        report = verify_basis(p_max=config.space.p, seed_choice=args.seed_choice,
                              dump_basis=args.dump_basis)
        write_json({"params": params, **report}, out)
        print(f"wrote {out}")
        return EXIT_OK if report["all_pass"] else EXIT_SOLVER

    if config.experiment == "conv-h":
        rows = run_conv_h(config)
        write_rows_csv(rows, out)
        summary = {"params": params, "rows": rows_as_dicts(rows),
                   "error_slope": loglog_slope([r.h_x for r in rows],
                                               [r.dg_error for r in rows])}
        write_json(summary, out.with_suffix(".json"))
    elif config.experiment == "conv-p":
        rows = run_conv_p(config)
        write_rows_csv(rows, out)
        warnings = [r.level for r in rows if r.cond2 is not None and r.cond2 > 1e12]
        summary = {"params": params, "rows": rows_as_dicts(rows),
                   "ill_conditioned_p": warnings}
        write_json(summary, out.with_suffix(".json"))
    elif config.experiment == "conditioning":
        result = run_conditioning(config)
        for choice, rows in result["tables"].items():
            write_rows_csv(rows, out.with_name(f"{out.stem}_choice_{choice}{out.suffix}"))
        summary = {"params": params, "slopes": result["slopes"],
                   "tables": {c: rows_as_dicts(r) for c, r in result["tables"].items()}}
        write_json(summary, out.with_suffix(".json"))
    elif config.experiment == "singular":
        result = run_singular(config)
        for family, rows in result["tables"].items():
            write_rows_csv(rows, out.with_name(f"{out.stem}_{family}{out.suffix}"))
        summary = {"params": params,
                   "tables": {f: rows_as_dicts(r) for f, r in result["tables"].items()}}
        write_json(summary, out.with_suffix(".json"))
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: caught first
        print(f"schrodg: solver failure: linear algebra: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"schrodg: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SlabSolveError, OracleMismatchError) as exc:
        print(f"schrodg: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:
        print("schrodg: solver failure: out of memory", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
