"""Command-line driver.

Three subcommands:

* ``solve``    -- load matrices, run the solve loop, emit a CSV or JSON
  report.  The exit code encodes the terminal status (0 Converged,
  2 MaxIter, 3 BudgetExceeded, 4 SingularEncountered); usage, config
  and parse errors exit with 1.
* ``selftest`` -- run the built-in scalar instances with closed-form
  answers through both the classical and decoupled methods.
* ``gen``      -- write a seeded random problem (matrices plus a config
  file) for benchmarking.

``RICCATI_COLUMN_BUDGET`` in the environment overrides the default
column budget when neither a flag nor the config file sets one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import SETTINGS, read_config
from .decoupled import bsep_eigen_extract
from .driver import (
    METHODS,
    ConvergenceReport,
    SolveConfig,
    family_of,
    solve_driver,
)
from .errors import SolverError
from .mmio import load_matrix_market, save_matrix_market
from .problems import (
    FAMILY_MATRIX_KEYS,
    MATRIX_KEYS,
    SHIFTS,
    assemble_problem,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
    gen_scalar_suite,
    shift_fields,
)

STATUS_EXIT_CODES = {
    "Converged": 0,
    "MaxIter": 2,
    "BudgetExceeded": 3,
    "SingularEncountered": 4,
}

#: Seeded instance of each family from the ``gen`` arguments.
_GENERATORS = {
    "care": lambda a: gen_random_care(a.n, a.m, a.l, a.seed),
    "dare": lambda a: gen_random_dare(a.n, a.m, a.l, a.seed),
    "mare": lambda a: gen_random_mare(a.m, a.n, a.m1, a.n1, a.seed),
    "bsep": lambda a: gen_random_bsep(a.n, a.p, a.seed),
}


class _CliParser(argparse.ArgumentParser):
    """argparse that reports usage errors instead of calling sys.exit(2)."""

    def error(self, message):
        raise SolverError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="dsda", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="solve one problem from matrix files")
    solve.add_argument("--config", help="key=value config file")
    solve.add_argument("--family", choices=tuple(FAMILY_MATRIX_KEYS))
    solve.add_argument("--method", choices=METHODS)
    for flag in MATRIX_KEYS:
        solve.add_argument(f"--{flag}", metavar="PATH", dest=f"mat_{flag}",
                           help=f"Matrix Market file for {flag}")
    solve.add_argument("--gamma", type=float)
    solve.add_argument("--alpha", type=float)
    solve.add_argument("--beta", type=float)
    solve.add_argument("--tol", type=float)
    solve.add_argument("--max-iter", type=int, dest="max_iter")
    solve.add_argument("--column-budget", type=int, dest="column_budget")
    solve.add_argument("--output", choices=("csv", "json"), default="csv")
    solve.add_argument("--out-path", help="report destination (default stdout)")

    selftest = sub.add_parser(
        "selftest", help="check the scalar closed-form suite on both methods")
    selftest.add_argument("--tol", type=float, default=1e-10,
                          help="match tolerance against the analytic values")

    gen = sub.add_parser("gen", help="generate a seeded random problem")
    gen.add_argument("--family", required=True,
                     choices=tuple(FAMILY_MATRIX_KEYS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--n", type=int, default=16)
    gen.add_argument("--m", type=int, default=2)
    gen.add_argument("--l", type=int, default=2)
    gen.add_argument("--m1", type=int, default=2)
    gen.add_argument("--n1", type=int, default=2)
    gen.add_argument("--p", type=int, default=2)
    return parser


def emit_report(report: ConvergenceReport, fmt: str, sink,
                shifts: dict | None = None) -> None:
    """Write a report as CSV (4 significant digits) or JSON (full precision).

    The JSON ``config`` echoes the solver knobs of the report and the
    ``shifts`` the problem was built with.
    """
    if fmt == "csv":
        sink.write("k,residual,rank,basis_cols,elapsed_ms\n")
        for rec in report.iterations:
            sink.write(f"{rec.k},{rec.residual:.3e},{rec.rank},"
                       f"{rec.basis_cols},{rec.elapsed_ms:.3f}\n")
        return
    payload = {
        "status": report.status,
        "family": report.family,
        "method": report.method,
        "config": ({**dataclasses.asdict(report.config), **(shifts or {})}
                   if report.config else None),
        "iterations": [dataclasses.asdict(rec) for rec in report.iterations],
    }
    json.dump(payload, sink, indent=2)
    sink.write("\n")


def _cmd_solve(args) -> int:
    # Precedence: environment budget < config file < flags.  The
    # environment is read only when neither of the others sets the
    # budget, so a bad value there is reported only when it is used.
    settings: dict = {}
    paths: dict[str, str] = {}
    if args.config:
        settings, paths = read_config(args.config)
    settings.update({key: getattr(args, key) for key in SETTINGS
                     if getattr(args, key) is not None})
    env = os.environ.get("RICCATI_COLUMN_BUDGET")
    if env is not None and "column_budget" not in settings:
        try:
            settings["column_budget"] = int(env)
        except ValueError:
            raise SolverError(
                f"RICCATI_COLUMN_BUDGET must be an integer, got '{env}'") from None

    family = settings.pop("family", None)
    if family is None:
        raise SolverError("solve needs --family (or a config file naming one)")
    shifts = {name: settings.pop(name, None) for name in SHIFTS}
    if family == "care" and shifts["gamma"] is None:
        raise SolverError("--gamma is required for --family care")
    for flag in MATRIX_KEYS:
        value = getattr(args, f"mat_{flag}")
        if value is not None:
            paths[flag] = value

    missing = [k for k in FAMILY_MATRIX_KEYS[family] if k not in paths]
    if missing:
        flags = ", ".join(f"--{k}" for k in missing)
        raise SolverError(f"family '{family}' needs matrix flags: {flags}")
    matrices = {key: load_matrix_market(paths[key])
                for key in FAMILY_MATRIX_KEYS[family]}
    problem = assemble_problem(family, matrices, **shifts)
    report = solve_driver(problem, SolveConfig(**settings))
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as sink:
            emit_report(report, args.output, sink, shifts)
    else:
        emit_report(report, args.output, sys.stdout, shifts)
    return STATUS_EXIT_CODES[report.status]


def _cmd_selftest(args) -> int:
    ok = True
    for problem, target in gen_scalar_suite():
        family = family_of(problem)
        for method in ("sda", "dsda"):
            report = solve_driver(problem, SolveConfig(method=method))
            if report.final_solution is None:
                ok = False
                print(f"{family:4s} {method:4s} FAIL: no solution "
                      f"(status {report.status})")
                continue
            if family == "bsep":
                eigs = bsep_eigen_extract(report.final_solution, problem.a,
                                          problem.b_dense())
                got = float(eigs[0].real)
            else:
                got = float(report.final_solution[0, 0])
            err = abs(got - target)
            good = err <= args.tol
            ok = ok and good
            print(f"{family:4s} {method:4s} "
                  f"{'ok  ' if good else 'FAIL'} got={got:+.12f} "
                  f"target={target:+.12f} err={err:.2e} status={report.status}")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    p = _GENERATORS[args.family](args)
    lines = [f"family = {args.family}", "method = dsda"]
    lines += [f"{name} = {getattr(p, name)}" for name in shift_fields(p)
              if getattr(p, name) is not None]
    for key in FAMILY_MATRIX_KEYS[args.family]:
        fname = f"{key}.mtx"
        save_matrix_market(os.path.join(args.out_dir, fname),
                           getattr(p, key.lower()),
                           comment=f"seeded {args.family} instance, "
                                   f"seed={args.seed}")
        lines.append(f"{key} = {fname}")
    cfg_path = os.path.join(args.out_dir, "problem.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(cfg_path)
    return 0


def run_cli(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "solve":
            return _cmd_solve(args)
        if args.subcommand == "selftest":
            return _cmd_selftest(args)
        return _cmd_gen(args)
    except SystemExit as exc:
        # argparse --help exits 0; keep run_cli returning codes instead.
        return int(exc.code or 0)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
