"""Command-line entry point.

Each subcommand runs one experiment kind of ``experiments.KINDS`` and takes
--config, --out, --seed and --quiet, plus --replications and --threads where
the kind reads them; ``risroute --help`` lists them. The other fields of
``experiments.ExperimentPlan`` (the coverage and density grids, the variants
and the speeds) have no flag: the CLI runs each kind at their defaults, and
only a Python caller sets them. ``validate-traffic`` reads no plan field but
the seed; its grids and chain counts are constants of ``experiments``.

Exit status: 0 success, 1 configuration error, 2 experiment failure or
usage error (an unknown subcommand or flag, or a malformed value, which
argparse reports before any file is written).
Every run writes a manifest JSON capturing the resolved configuration
(for the grid kinds, with the endpoints they pin), the plan and the
random stream version. Feeding that manifest back through --config
restores only the configuration: the outputs are reproduced byte for
byte when --seed and --replications are passed again with their
original values. A grid point's rows do not depend on the rest of its
grid, so a one-point plan built in Python reruns one point of a CLI run.

``main`` pins BLAS and OpenMP to one thread before numpy loads: a
250x250 mat-vec of the double-reflection alignment rounds differently
when OpenBLAS splits it across threads, so unpinned outputs would depend
on the host's core count. Calling ``main`` in a process that has already
loaded numpy keeps that process's setting.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .config import ConfigError, SimConfig, load_config

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    from .experiments import KINDS, ExperimentPlan  # loads numpy: ``main`` calls this after the BLAS pin

    parser = argparse.ArgumentParser(
        prog="risroute",
        description="Deterministic RIS-assisted multihop routing simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for kind, entry in KINDS.items():
        p = sub.add_parser(entry.subcommand, help=entry.about)
        p.set_defaults(kind=kind)
        p.add_argument("--config", help="flat key=value file or run-manifest JSON")
        p.add_argument("--out", default="results", help="output directory (default: results)")
        p.add_argument("--seed", type=int, default=1, help="master seed (default: 1)")
        if "replications" in entry.reads:
            p.add_argument("--replications", type=int,
                           default=1 if entry.subcommand == "route" else ExperimentPlan.replications,
                           help="seeded routes, or replications per grid point (default: %(default)s)")
        if "threads" in entry.reads:
            p.add_argument("--threads", type=int, default=ExperimentPlan.threads,
                           help="worker processes for the two sweeps (default: %(default)s); compare and "
                                "mobility accept it and run serially")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv: list[str] | None = None) -> int:
    os.environ.update(dict.fromkeys(BLAS_VARS, "1"))
    from . import experiments  # loads numpy, after the BLAS pin

    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else SimConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    plan_args = {name: getattr(args, name) for name in ("replications", "threads") if name in args}
    try:
        plan = experiments.ExperimentPlan(kind=args.kind, seed=args.seed, **plan_args)
        result = experiments.run(plan, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("experiment failed:", file=sys.stderr)
        traceback.print_exc()
        return 2
    if not args.quiet:
        for trace in result.traces:  # one per route of the route subcommand
            print(trace)
        files = ", ".join(str(p) for p in result.files)
        print(f"{args.subcommand}: {result.summary()}, outputs: {files}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
