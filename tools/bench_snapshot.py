"""Merge one benchmark run's ``--trace 0`` records into one ``BENCH_<name>.json``.

Run every workload of ``BENCHMARK.json`` at one seed first, then, from the
root of the checkout:

    python3 bench/run.py --workload sparse-ris --seed 11 --seconds 20 --trace 0
    ...  (one line per workload)
    python3 tools/bench_snapshot.py --seed 11 --name 6

This writes ``BENCH_6.json``: the seed, each workload's end-to-end metrics,
and each workload's full record as ``bench/run.py`` wrote it to
``bench/results/<workload>-seed<seed>-trace0.json``, provenance included.
``--results`` reads the records of another checkout. A missing record, or
one from another seed or a traced run, is an error: a snapshot holds one
run of every workload or nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def snapshot(results: Path, seed: int, workloads: list[str]) -> dict:
    """The merged record of ``workloads`` at ``seed``; raises ValueError on a missing or foreign record."""
    records = {}
    for name in workloads:
        path = results / f"{name}-seed{seed}-trace0.json"
        if not path.is_file():
            raise ValueError(f"no record {path}")
        record = json.loads(path.read_text())
        run = record.get("provenance", {})
        if (run.get("workload"), run.get("seed"), run.get("trace")) != (name, seed, 0):
            raise ValueError(f"{path} is not an untraced {name} run at seed {seed}")
        records[name] = record
    return {
        "seed": seed,
        "end_to_end": {
            name: {metric: entry["value"] for metric, entry in record["metrics"].items()}
            for name, record in records.items()
        },
        "records": records,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="the seed every workload ran at")
    parser.add_argument("--name", required=True, help="the file written is BENCH_<name>.json")
    parser.add_argument("--results", type=Path, default=ROOT / "bench" / "results")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    try:
        merged = snapshot(args.results, args.seed, workloads)
    except ValueError as exc:
        print(f"bench_snapshot: {exc}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"wrote {out.name}: {', '.join(workloads)} at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
