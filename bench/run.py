"""risroute benchmark: one seeded workload through ``experiments.run``.

Run from the root of a checkout:

    python3 bench/run.py --workload sparse-ris --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the median
over calls of routes/s and CPU ms per route, the peak RSS, and the median
set-up time of fresh workload processes. ``--trace 1`` runs each call
twice, untraced then traced, on one core, and reports the per-layer
metrics of ``tracing.py`` and the tracing overhead. Either way every
call's outputs are checked (``checks.py``) and hashed. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with provenance and per-call CSV hashes,
goes to ``bench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import env


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the monotonic clock and exit (the set-up time probe)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        blas = env.prepare()
    except env.CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads  # loads numpy and risroute, after the BLAS pin
    from risroute.config import SimConfig

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    count = workload.plan_count(args.seconds, 2 if args.trace else workloads.ROUNDS)
    plans = [workload.plan(workloads.call_seed(args.seed, i)) for i in range(count)]
    cfg = SimConfig()
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0

    import harness

    env.RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scratch = env.RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        # a far slower program or host stops early rather than overrun the run's time
        time_limit = min(1.1 * args.seconds + 4.0, 120.0)
        run = harness.Run(workload, cfg, plans, bool(args.trace), scratch, time_limit)
        run.execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed}
    if args.trace:
        metrics, units = run.per_layer(), harness.tracing.PER_LAYER_UNITS
        run.tracer.write(env.RESULTS / f"{stem}.spans.csv.gz")
        record["trace"] = {"spans_file": f"{stem}.spans.csv.gz", "missing_targets": run.tracer.missing,
                           "route_stats": dict(run.route_stats)}
    else:
        raw, units = run.end_to_end(), harness.END_TO_END_UNITS
        probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        samples = harness.setup_seconds(probe)
        raw["setup_s"] = statistics.median(t for t, _ in samples)
        metrics = harness.at_baseline_speed(raw, run.kernel_s, samples)
        record.update(raw_metrics=raw, kernel_s_median=statistics.median(run.kernel_s),
                      kernel_s=run.kernel_s, setup_samples_s=[t for t, _ in samples],
                      setup_kernel_s=[k for _, k in samples])
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record.update(
        problems=run.problems[:50],
        notes=run.notes,
        outputs_sha256=run.outputs_sha256(),
        calls=run.records,
        provenance={"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, **harness.provenance(cfg, plans, blas)},
    )
    (env.RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in run.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    if not args.trace:  # the figures as timed, for judging a change that moves the kernel time
        print(json.dumps({key: record[key] for key in ("raw_metrics", "kernel_s_median")}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
