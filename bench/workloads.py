"""The benchmark's workloads: one ExperimentPlan shape each, with default SimConfig.

A run holds a fixed number of plans, each called a fixed number of times.
Plan ``i`` of a run with seed ``s`` has plan seed ``call_seed(s, i)``, so the
same seed gives the same inputs. Each workload's replications are sized so
one call takes about ``CALL_S`` on the 2-core machine the baseline was
taken on, and a run of ``seconds`` makes about ``seconds / CALL_S`` calls:
runs at a fixed seed do identical work however fast the program is.
Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risroute.experiments import ExperimentPlan

CALL_S = 1.0  # nominal seconds per call at the baseline
ROUNDS = 3  # calls of each plan in an untraced run; the median of its calls counts


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    coverage_grid: tuple[float, ...]
    density_grid: tuple[int, ...] | None
    replications: int  # per call
    threads: int = 1

    def plan(self, seed: int, replications: int | None = None) -> ExperimentPlan:
        return ExperimentPlan(
            kind=self.kind,
            seed=seed,
            replications=self.replications if replications is None else replications,
            coverage_grid=self.coverage_grid,
            density_grid=self.density_grid,
            threads=self.threads,
        )

    def plan_count(self, seconds: float, calls_per_plan: int) -> int:
        """Plans in a run of ``seconds`` when each plan is called ``calls_per_plan`` times."""
        return max(1, round(seconds / (CALL_S * calls_per_plan)))


def expected_routes(plan: ExperimentPlan) -> int:
    """Routes one call of ``plan`` attempts."""
    grid = len(plan.resolved_coverage_grid())
    if plan.kind == "comparison":
        grid *= len(plan.variants)
    elif plan.kind == "mobility":
        grid = len(plan.vmax_grid)
    else:
        grid *= len(plan.resolved_density_grid())
    return grid * plan.replications


def call_seed(seed: int, index: int) -> int:
    """Plan seed of plan ``index`` in a run seeded with ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


WORKLOADS = {
    w.name: w
    for w in (
        # r=30 m, 100 IUs: ~99 % of routes end in the reflector stage (channel-bound)
        Workload("sparse-ris", "coverage_sweep", (30.0,), (100,), replications=40),
        # r=90 m, 900 IUs: every route succeeds over IU hops (set-up-bound)
        Workload("dense-relay", "coverage_sweep", (90.0,), (900,), replications=80),
        # five policies on common topologies, 400 IUs; the only multi-worker plan
        Workload("compare-pool", "comparison", (30.0, 60.0, 90.0), None, replications=4, threads=2),
        # r=50 m, 400 IUs, v_max 0..20 m/s: the only workload that moves IUs
        Workload("mobile", "mobility", (50.0,), None, replications=20),
    )
}
