"""Claim sentinels: the largest effects the experiment CSVs exist to show, pinned by direction.

``golden.json`` pins today's numbers, and a stream bump regenerates it, so it
cannot say whether a change reversed what the paper claims. Each test here
runs ``experiments.run`` on a small plan and checks one effect one-sidedly.
The seed, the replications N and the margin were fixed before any result
was read: each effect must exceed ``MARGIN_SE`` standard errors of the
difference, so a stream bump alone is very unlikely to fail one, while a
change that removes the effect fails it.
"""

import csv
import math

from risroute import experiments
from risroute.config import SimConfig

SEED = 47
N = 40  # replications per grid cell
MARGIN_SE = 6.0  # the least effect, in standard errors of the difference


def summary_rows(plan: experiments.ExperimentPlan, out) -> list[dict]:
    result = experiments.run(plan, SimConfig(), out)
    summary = next(p for p in result.files if p.name.endswith("_summary.csv"))
    with open(summary) as fh:
        return list(csv.DictReader(fh))


def test_sparse_users_need_more_reflectors(tmp_path):
    # (i) at r = 45 m, routes among 100 IUs engage more surfaces than routes among 900. Not at 30 m:
    # ris_mean is a mean over successes, and 100 IUs there succeed too rarely
    plan = experiments.ExperimentPlan(kind="density_sweep", seed=SEED, replications=N,
                                      coverage_grid=(45.0,), density_grid=(100, 900))
    sparse, dense = summary_rows(plan, tmp_path)
    assert (sparse["density"], dense["density"]) == ("100", "900")
    assert "" not in (sparse["ris_mean"], dense["ris_mean"]), "a density where no route succeeded"
    effect = float(sparse["ris_mean"]) - float(dense["ris_mean"])
    se = math.hypot(float(sparse["ris_se"]), float(dense["ris_se"]))
    assert effect > MARGIN_SE * se, f"ris_mean 100 IUs - 900 IUs = {effect} with SE {se}"


def test_the_single_stage_rescues_routes_the_double_stage_alone_loses(tmp_path):
    # (iii) at r = 30 m, the full policy succeeds more often than the double-reflection-only one; the
    # SE of the difference treats the two rates as independent, which overstates it under the
    # common random numbers the variants share
    plan = experiments.ExperimentPlan(kind="comparison", seed=SEED, replications=N, coverage_grid=(30.0,),
                                      variants=("full", "double_ris"))
    rates = {row["variant"]: float(row["success_rate"]) for row in summary_rows(plan, tmp_path)}
    effect = rates["full"] - rates["double_ris"]
    se = math.sqrt(sum(p * (1.0 - p) for p in rates.values()) / N)
    assert effect > MARGIN_SE * se, f"success rate full - double_ris = {effect} with SE {se}"
