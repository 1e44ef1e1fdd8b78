"""Command-line entry point.

    schrodg <experiment> [--p N] [--space FAMILY] [--levels N] [--kappa K]
            [--seed-choice a|b] [--out PATH] [--quad-n N] [--global-oracle]
            [--constant-data] [--dump-basis]

Experiments: conv-h, conv-p, conditioning, singular, verify-basis.
Exit codes: 0 success, 2 solver failure, 3 invalid configuration (this
includes an option the chosen experiment does not read).
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401  argparse's first message imports it: import it at start-up
import sys
from pathlib import Path

import numpy as np

from .assembly import SlabSolveError
from .basis import SpaceKind
from .experiments import (ExperimentConfig, OracleMismatchError, loglog_slope,
                          rows_as_dicts, run_conditioning, run_conv_h, run_conv_p,
                          run_singular, verify_basis, write_json, write_rows_csv)

EXPERIMENTS = ("conv-h", "conv-p", "conditioning", "singular", "verify-basis")
# The options each experiment reads besides --out; giving any other is an error.
READS = {"conv-h": "p space levels kappa seed_choice quad_n global_oracle constant_data",
         "conv-p": "space levels kappa seed_choice quad_n",
         "conditioning": "p space levels quad_n",
         "singular": "p space levels seed_choice quad_n",
         "verify-basis": "p space seed_choice dump_basis"}

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
    parser.add_argument("--levels", type=int, default=None,
                        help="refinement levels (default 5; conv-p: largest degree)")
    parser.add_argument("--kappa", type=float, default=None,
                        help="exponential solution exp(kappa x + ...) (default 5)")
    parser.add_argument("--seed-choice", default=None, choices=("a", "b"),
                        help="trefftz seed scaling (default a)")
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


def _check_options(args) -> None:
    """Reject every option given that the chosen experiment does not read."""
    reads = set(READS[args.experiment].split()) - ({"kappa"} if args.constant_data else set())
    for name, value in vars(args).items():
        if value is not None and value is not False and name not in reads | {"experiment", "out"}:
            scope = " --constant-data" if name == "kappa" and args.constant_data else ""
            raise ValueError(f"{args.experiment}{scope} does not read --{name.replace('_', '-')}")


def _make_config(args) -> ExperimentConfig:
    p = args.p if args.p is not None else (3 if args.experiment == "verify-basis" else 1)
    space = SpaceKind(args.space or "trefftz", p, args.seed_choice or "a")
    return ExperimentConfig(
        experiment=args.experiment,
        space=space,
        levels=5 if args.levels is None else args.levels,
        kappa=5.0 if args.kappa is None else args.kappa,
        quad_n=args.quad_n,
        constant_data=args.constant_data,
        global_oracle=args.global_oracle,
        all_spaces=args.space is None,
    )


def _run(args) -> int:
    _check_options(args)
    config = _make_config(args)
    writes_csv = config.experiment != "verify-basis"
    default = config.experiment.replace("-", "_") + (".csv" if writes_csv else ".json")
    out = Path(default if args.out is None else args.out)
    if not out.parent.is_dir():
        raise ValueError(f"--out directory {out.parent} does not exist")
    if out.is_dir():
        raise ValueError(f"--out {out} is a directory")
    if writes_csv and out.suffix == ".json":  # the JSON summary goes to out.with_suffix(".json")
        raise ValueError(f"--out {out} ends in .json: {config.experiment} takes a CSV path")
    params = {"experiment": config.experiment, "space": config.space.family,
              "p": config.space.p, "seed_choice": config.space.seed_choice,
              "levels": config.levels, "kappa": config.kappa,
              "quad_n": config.quad_n}

    if config.experiment == "verify-basis":
        report = verify_basis(p_max=config.space.p, dump_basis=args.dump_basis)
        write_json({"params": params, **report}, out)
        print(f"wrote {out}")
        return EXIT_OK if report["all_pass"] else EXIT_SOLVER

    if config.experiment == "conv-h":
        rows = run_conv_h(config)
        tables = {"": rows}
        summary = {"params": params, "rows": rows_as_dicts(rows),
                   "error_slope": loglog_slope([r.h_x for r in rows],
                                               [r.dg_error for r in rows])}
    elif config.experiment == "conv-p":
        rows = run_conv_p(config)
        tables = {"": rows}
        warnings = [r.level for r in rows if r.cond2 is not None and r.cond2 > 1e12]
        summary = {"params": params, "rows": rows_as_dicts(rows),
                   "ill_conditioned_p": warnings}
    elif config.experiment == "conditioning":
        result = run_conditioning(config)
        tables = {f"_choice_{c}": rows for c, rows in result["tables"].items()}
        summary = {"params": params, "slopes": result["slopes"],
                   "tables": {c: rows_as_dicts(r) for c, r in result["tables"].items()}}
    else:  # singular
        result = run_singular(config)
        tables = {f"_{family}": rows for family, rows in result["tables"].items()}
        summary = {"params": params,
                   "tables": {f: rows_as_dicts(r) for f, r in result["tables"].items()}}
    for tag, rows in tables.items():  # one CSV per table, its tag appended to the stem of out
        path = out.with_name(f"{out.stem}{tag}{out.suffix}")
        write_rows_csv(rows, path)
        print(f"wrote {path}")
    write_json(summary, out.with_suffix(".json"))
    print(f"wrote {out.with_suffix('.json')}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every value that can overflow is checked for finiteness: no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            return _run(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: caught first
        print(f"schrodg: solver failure: linear algebra: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"schrodg: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SlabSolveError, OracleMismatchError, FloatingPointError) as exc:
        print(f"schrodg: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:
        print("schrodg: solver failure: out of memory", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
