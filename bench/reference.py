"""Record the reference statistics the benchmark checks every run against.

    python3 bench/reference.py

For every workload this runs about ``ROUTES`` routes on plan seeds that no
benchmark run uses and writes the pooled ``success_rate``, ``ris_mean`` and
``dt_mean`` with their per-route variance to ``reference.json``, replacing
the whole file, so every entry comes from one commit. Rerun it only when a
change is meant to alter the simulated outcomes; a change that only
reorders random draws must pass against the recorded reference.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

import env

ROUTES = 4000
REFERENCE_SEED = 2_307_052_790  # call seeds derive from this root, never from a run's --seed
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    env.prepare()
    import numpy as np

    import checks
    import workloads
    from risroute import experiments
    from risroute.config import SimConfig

    reference = {}
    env.RESULTS.mkdir(parents=True, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        cfg = SimConfig()
        clusters = []
        per_call = workloads.expected_routes(workload.plan(0))
        for index in range(math.ceil(ROUTES / per_call)):
            plan = workload.plan(workloads.call_seed(REFERENCE_SEED, index))
            out = env.RESULTS / f"reference-{name}"
            try:
                experiments.run(plan, cfg, out)
                check = checks.check_call(out, per_call)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if check.failed:
                print(f"{name}: call {index} failed its checks: {check.problems[:3]}", file=sys.stderr)
                return 1
            clusters.append(check.clusters)
        reference[name] = checks.reference_entry(np.concatenate(clusters))
        print(name, json.dumps(reference[name]))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
