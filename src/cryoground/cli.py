"""Command line entry point.

Subcommands:
  simulate run --config FILE        run a configured simulation
  simulate validate --config FILE   check a config, its mesh and restart; run nothing
  simulate oracle neumann ...       melting-front benchmark, CSV on stdout

Exit codes (mapped in main): 0 success, 2 bad input (config, mesh, restart
or oracle parameter), 3 solver failure (a solve that did not converge or
met a matrix that is not SPD, or a worker process that failed or died).
"""

from __future__ import annotations

import argparse
import sys

from . import verify
from .config import ConfigError, parse_config
from .fem import FemError
from .io import SnapshotError
from .linalg import SpdViolationError
from .mesh import MeshError
from .parallel import WorkerFailure
from .physics import PhysicsError
from .simulate import SimulationError, SolverFailure, initialize, run, step_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Finite-element ground freezing/thawing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument(
        "--workers", type=int, default=None, help="override [solver] workers"
    )

    p_val = sub.add_parser("validate", help="parse and check a config file only")
    p_val.add_argument("--config", required=True, help="path to the config file")

    p_oracle = sub.add_parser("oracle", help="run an analytic verification oracle")
    oracle_sub = p_oracle.add_subparsers(dest="oracle", required=True)
    p_ne = oracle_sub.add_parser(
        "neumann", help="one-phase melting-front benchmark against the similarity solution"
    )
    p_ne.add_argument("--cells", type=int, default=40, help="cells along the bar (default 40)")
    p_ne.add_argument("--tau", type=float, default=2000.0, help="time step in seconds")
    p_ne.add_argument("--beta", "--stefan", dest="beta", type=float, default=1.0,
                      help="Stefan number (alias: --stefan)")
    p_ne.add_argument("--delta", type=float, default=0.1, help="smoothing half-width, deg C")
    p_ne.add_argument("--samples", type=int, default=10, help="number of sampled times")
    return parser


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.workers is not None:
        config.workers = args.workers
        config.validate()
    records = run(config)
    if records:
        last = records[-1]
        print(
            f"completed {last.step} steps to t = {last.t_cur:.6g} s; "
            f"field range [{last.t_min:.4g}, {last.t_max:.4g}] deg C"
        )
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    # the mesh and the restart field of run, which resumes at its time
    _, field = initialize(config)
    n_steps = step_count(config.t_max, config.tau, field.time)
    print(f"config OK: {n_steps} steps of {config.tau:.6g} s, workers={config.workers}")
    return EXIT_OK


def _cmd_oracle_neumann(args) -> int:
    report = verify.run_neumann_benchmark(
        cells=args.cells, tau=args.tau, delta=args.delta, beta=args.beta, samples=args.samples
    )
    sys.stdout.write(report.as_csv())
    print(
        f"# lambda_s = {report.case.lambda_s:.12g}, "
        f"max relative front error (t >= 10% of run) = {report.max_rel_error:.4g}",
        file=sys.stderr,
    )
    return EXIT_OK


# SolverFailure is a SimulationError, so the solver failures are matched first
SOLVER_FAILURES = (SolverFailure, SpdViolationError, WorkerFailure)
INPUT_ERRORS = (ConfigError, FemError, MeshError, PhysicsError, SimulationError, SnapshotError,
                verify.VerifyError, OSError)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "validate": _cmd_validate, "oracle": _cmd_oracle_neumann}
    try:
        return command[args.command](args)
    except SOLVER_FAILURES as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except INPUT_ERRORS as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
