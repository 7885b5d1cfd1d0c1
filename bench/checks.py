"""Correctness checks on the outputs of one ``experiments.run`` call.

Three checks run on every call: each detail row is valid on its own, each
summary row agrees with the detail rows it summarises, and every CSV is
hashed. Traced calls also check every route ledger. Across a whole run the
pooled ``success_rate``, ``ris_mean`` and ``dt_mean`` must match the
reference recorded in ``reference.json`` within ``K_SE`` standard errors,
so a change that reorders random draws but keeps the statistics passes.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

K_SE = 5.0
METRIC_COLUMNS = ("D_T", "D_T_normalized", "E_eff")
SUMMARY_STATS = ("replications", "success_rate", "ris_mean", "ris_se", "dt_mean", "dt_se",
                 "dtn_mean", "eeff_mean", "eeff_se")
# statistic -> (numerator, denominator) columns of the cluster totals (rows,
# successes, ris_count sum, D_T sum)
RATIOS = {"success_rate": (1, 0), "ris_mean": (2, 1), "dt_mean": (3, 0)}


@dataclass
class CallCheck:
    failed: int = 0  # rows failing a check, plus rows missing from the output
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    # per cluster of routes sharing random numbers: rows, successes, ris_count sum, D_T sum
    clusters: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row_problem(row: dict) -> str | None:
    """Why a detail row is invalid, or None."""
    try:
        if row["success"] == "1":
            values = [float(row[c]) for c in METRIC_COLUMNS]
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                return "successful row with a non-positive or non-finite metric"
            if int(row["hops"]) < 1 or int(row["ris_count"]) < 0:
                return "successful row with hops < 1 or negative ris_count"
        elif row["success"] == "0":
            if any(float(row[c]) != 0.0 for c in METRIC_COLUMNS) or row["ris_count"] or row["hops"]:
                return "failed row is not zeroed"
        else:
            return f"success is {row['success']!r}, not 0 or 1"
    except (KeyError, TypeError, ValueError) as exc:
        return f"unparseable detail row: {exc!r}"
    return None


def _mean_se(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se


def expected_summary(rows: list[dict]) -> dict[str, float | None]:
    """Summary statistics recomputed from valid detail rows."""
    succ = [r for r in rows if r["success"] == "1"]
    ris_mean, ris_se = _mean_se([int(r["ris_count"]) for r in succ])
    dt_mean, dt_se = _mean_se([float(r["D_T"]) for r in rows])
    dtn_mean, _ = _mean_se([float(r["D_T_normalized"]) for r in rows])
    eeff_mean, eeff_se = _mean_se([float(r["E_eff"]) for r in succ])
    return {
        "replications": len(rows),
        "success_rate": len(succ) / len(rows),
        "ris_mean": ris_mean,
        "ris_se": ris_se,
        "dt_mean": dt_mean,
        "dt_se": dt_se,
        "dtn_mean": dtn_mean,
        "eeff_mean": eeff_mean,
        "eeff_se": eeff_se,
    }


def _agrees(written: str, expected: float | None) -> bool:
    if expected is None:
        return written == ""
    try:
        return math.isclose(float(written), expected, rel_tol=1e-9, abs_tol=1e-12)
    except ValueError:
        return False


def check_call(out_dir: Path, expected_routes: int) -> CallCheck:
    """Check one call's ``*_detail.csv`` and ``*_summary.csv`` and hash every CSV."""
    check = CallCheck()
    check.hashes = {p.name: sha256(p) for p in sorted(out_dir.glob("*.csv"))}
    details = sorted(out_dir.glob("*_detail.csv"))
    summaries = sorted(out_dir.glob("*_summary.csv"))
    if len(details) != 1 or len(summaries) != 1:
        check.failed = expected_routes
        check.problems.append(f"expected one detail and one summary CSV, found {len(details)} and {len(summaries)}")
        return check
    rows = read_csv(details[0])
    bad: set[int] = set()
    groups: dict[str, list[int]] = defaultdict(list)
    for i, row in enumerate(rows):
        problem = row_problem(row)
        if problem:
            bad.add(i)
            check.problems.append(f"detail row {i}: {problem}")
        groups[row.get("scenario_id", "")].append(i)
    summarized = set()
    for srow in read_csv(summaries[0]):
        scenario = srow.get("scenario_id", "")
        members = groups.get(scenario, [])
        summarized.add(scenario)
        valid = [rows[i] for i in members if i not in bad]
        if not members:
            check.failed += 1
            check.problems.append(f"summary {scenario} has no detail rows")
            continue
        if len(valid) < len(members):
            continue  # invalid rows are already counted; nothing sound to compare
        expected = expected_summary(valid)
        wrong = [k for k in SUMMARY_STATS if not _agrees(srow.get(k, ""), expected[k])]
        if wrong:
            bad.update(members)
            check.problems.append(f"summary {scenario}: {', '.join(wrong)} disagree with the detail rows")
    for scenario, members in groups.items():
        if scenario not in summarized:
            bad.update(members)
            check.problems.append(f"scenario {scenario} has detail rows but no summary row")
    check.failed += len(bad) + max(0, expected_routes - len(rows))
    if len(rows) != expected_routes:
        check.problems.append(f"{len(rows)} detail rows, expected {expected_routes}")
    check.clusters = _clusters(rows, groups, bad)
    return check


def _clusters(rows: list[dict], groups: dict[str, list[int]], bad: set[int]) -> np.ndarray:
    """Totals per cluster of routes that share a replication's random numbers.

    Variants of a comparison and v_max values of a mobility run reuse the
    same replication streams, so their routes are not independent; the
    cluster is (coverage, density, replication), the replication being the
    row's position within its scenario.
    """
    totals: dict[tuple, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
    for members in groups.values():
        for position, i in enumerate(members):
            if i in bad:
                continue
            row = rows[i]
            t = totals[(row["coverage_m"], row["density"], position)]
            t[0] += 1
            if row["success"] == "1":
                t[1] += 1
                t[2] += int(row["ris_count"])
            t[3] += float(row["D_T"])
    return np.array(list(totals.values()), dtype=float).reshape(-1, 4)


def ratio_stats(clusters: np.ndarray) -> dict[str, tuple[float, float, float]]:
    """Pooled (mean, standard error, denominator total) of each ratio statistic.

    Each statistic is a ratio of cluster totals; its standard error is the
    usual linearisation over independent clusters. A statistic whose
    denominator is zero (``ris_mean`` with no successful route) is absent.
    """
    out = {}
    n = clusters.shape[0]
    for name, (num, den) in RATIOS.items():
        y, x = clusters[:, num], clusters[:, den]
        total = float(x.sum())
        if total <= 0.0:
            continue
        mean = float(y.sum()) / total
        se = math.sqrt(n / (n - 1) * float(((y - mean * x) ** 2).sum())) / total if n > 1 else math.inf
        out[name] = (mean, se, total)
    return out


def reference_entry(clusters: np.ndarray) -> dict[str, dict[str, float]]:
    """Reference mean and per-unit variance of each statistic.

    ``sigma2`` is the variance of one denominator unit (one route, or one
    successful route for ``ris_mean``), floored at one unit-sized event in
    the whole reference sample: a statistic that never varied there (every
    dense route succeeds over IUs only) still tolerates a rare event.
    """
    stats = ratio_stats(clusters)
    success_dt = stats["dt_mean"][0] / stats["success_rate"][0]  # D_T of one successful route
    scale = {"success_rate": 1.0, "ris_mean": 1.0, "dt_mean": success_dt}
    return {
        name: {"mean": mean, "sigma2": max(se * se * total, scale[name] ** 2 / total), "n": total}
        for name, (mean, se, total) in stats.items()
    }


def reference_problems(clusters: np.ndarray, reference: dict, k: float = K_SE) -> list[str]:
    """Statistics of this run more than ``k`` standard errors from the reference."""
    problems = []
    stats = ratio_stats(clusters)
    for name, ref in reference.items():
        if name not in stats:
            continue  # undefined in this run, e.g. no successful route to average over
        mean, _, total = stats[name]
        tol = k * math.sqrt(ref["sigma2"] / total + ref["sigma2"] / ref["n"])
        if abs(mean - ref["mean"]) > tol:
            problems.append(f"{name} = {mean:.6g} is off the reference {ref['mean']:.6g} by more than {tol:.3g}")
    return problems


def ledger_problems(ledger, cfg) -> list[str]:
    """Invariants every route ledger must satisfy."""
    problems = []
    remaining = math.inf
    if cfg.source_xy is not None and cfg.dest_xy is not None:
        remaining = math.dist(cfg.source_xy, cfg.dest_xy)
    for hop in ledger.transmission_hops:
        if not hop.remaining_m < remaining:
            problems.append(f"remaining distance {hop.remaining_m:.6g} m does not drop below {remaining:.6g} m")
            break
        remaining = hop.remaining_m
    if ledger.total_slots < sum(h.slots_used for h in ledger.hops):
        problems.append("total_slots is below the slots the hops used")
    if ledger.success and ledger.total_slots * ledger.slot_s > ledger.total_delay_s:
        problems.append("successful route overran its delay budget")
    return problems
