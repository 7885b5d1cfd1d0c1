"""One benchmark run: timed ``experiments.run`` calls, their checks, the metrics.

Imported only after ``env.prepare()`` has pinned the BLAS threads.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

import checks
import env
import tracing
import workloads
from risroute import experiments

END_TO_END_UNITS = {"routes_per_s": "1/s", "cpu_ms_per_route": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 10  # set-up probes per run, about 0.45 s each
REFERENCE = Path(__file__).resolve().parent / "reference.json"
KERNEL_S = 0.015  # a typical speed_kernel() time on the baseline host; sets the scale only


def speed_kernel() -> float:
    """Seconds for a fixed piece of numpy work like the simulator's.

    Complex normal draws, element-wise math and a mat-vec, on 100x100
    arrays so that it adds nothing to the peak RSS. It does not touch the
    program, so it times only the host: on the 2-core virtual machine the
    baseline was taken on, host speed drifts by up to a third over seconds
    to minutes, and timing this before each call lets a run divide the drift
    out (``at_baseline_speed``). Of the kernels tried, a pure-Python loop
    over small dataclasses and mixes of it with this one, this tracked the
    drift best across all four workloads.
    """
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(18):
        a = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        (np.abs(a) * np.exp(-1j * np.angle(a))) @ np.ones(100)
    return time.perf_counter() - t0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Run:
    """The calls of one run, what they attempted and failed, and why."""

    def __init__(self, workload: workloads.Workload, cfg, plans: list, trace: bool, scratch: Path,
                 time_limit_s: float):
        self.workload = workload
        self.time_limit_s = time_limit_s
        self.cfg = cfg
        self.plans = plans
        self.trace = trace
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.records: list[dict] = []
        self.clusters: list[np.ndarray] = []
        self.route_stats: Counter = Counter()
        self.kernel_s: list[float] = []
        # children that ran before any call, e.g. a launcher that exec'd into this process
        self.children_rss0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.tracer = tracing.Tracer(on_route=self._on_route) if trace else None

    def _on_route(self, cfg, ledger) -> None:
        self.route_stats["routes"] += 1
        self.route_stats["hops"] += ledger.hop_count
        if not ledger.success and ledger.failure_reason is not None:
            self.route_stats[f"fail.{ledger.failure_reason.value}"] += 1
        problems = checks.ledger_problems(ledger, cfg)
        if problems:
            self.route_stats["ledger_failed"] += 1
            self.problems.append(f"ledger: {problems[0]}")

    def _call(self, index: int, plan, traced: bool) -> dict:
        out = self.scratch / f"call-{index}-{int(traced)}"
        expected = workloads.expected_routes(plan)
        if not traced:
            self.kernel_s.append(speed_kernel())
        gc.collect()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        error = None
        try:
            if traced:
                with self.tracer:
                    experiments.run(plan, self.cfg, out)
            else:
                experiments.run(plan, self.cfg, out)
        except Exception:  # a failing call is counted, not fatal
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        record = {"index": index, "plan_seed": plan.seed, "traced": traced, "routes": expected,
                  "wall_s": wall, "cpu_s": cpu}
        if error is not None:
            record.update(failed=expected, hashes={})
            self.problems.append(f"call {index} raised:\n{error}")
        else:
            check = checks.check_call(out, expected)
            record.update(failed=check.failed, hashes=check.hashes)
            self.problems.extend(f"call {index}: {p}" for p in check.problems[:5])
            if not traced and not any(r["index"] == index for r in self.records):
                self.clusters.append(check.clusters)  # each plan's routes count once
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += expected
        self.failed += record["failed"]
        self.records.append(record)
        return record

    def execute(self) -> None:
        """Untraced runs call every plan ``workloads.ROUNDS`` times, round-robin, so a
        slow spell of the host hits one round of a plan, not all of them;
        traced runs call every plan once untraced, then once traced, on one
        core (spans recorded in pool workers would be lost)."""
        start = time.perf_counter()
        first: dict[int, dict] = {}
        rounds = 1 if self.trace else workloads.ROUNDS
        order = [(index, plan) for _ in range(rounds) for index, plan in enumerate(self.plans)]
        for done, (index, plan) in enumerate(order):
            if time.perf_counter() - start > self.time_limit_s:
                self.notes.append(f"stopped after {done} of {len(order)} calls at {self.time_limit_s:g} s")
                break
            if self.trace:
                plan = replace(plan, threads=1)
                first[index] = self._call(index, plan, traced=False)
                record = self._call(index, plan, traced=True)
            else:
                record = self._call(index, plan, traced=False)
                first.setdefault(index, record)
            if record["hashes"] != first[index]["hashes"]:
                self.failed += record["routes"]
                self.problems.append(f"plan {index}: a rerun or traced call changed the output CSVs")
        self.failed += self.route_stats["ledger_failed"]
        reference = json.loads(REFERENCE.read_text()).get(self.workload.name) if REFERENCE.is_file() else None
        if reference is None:
            off = [f"no reference statistics for {self.workload.name} in {REFERENCE.name}"]
        else:
            off = checks.reference_problems(np.concatenate(self.clusters or [np.empty((0, 4))]), reference)
        if off:
            self.failed = self.attempted  # the whole output distribution is suspect
            self.problems.extend(off)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def end_to_end(self) -> dict[str, float]:
        """Routes/s and CPU ms per route over every plan, each plan at the
        median of its rounds, as timed. Read before any set-up probe adds to
        the children's resource usage."""
        rounds: dict[int, list[dict]] = {}
        for r in self.records:
            rounds.setdefault(r["index"], []).append(r)

        def total(key: str) -> float:
            return sum(statistics.median(r[key] for r in rs) for rs in rounds.values())

        routes = sum(rs[0]["routes"] for rs in rounds.values())
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        workers = self.plans[0].threads if worker > self.children_rss0 else 0  # a pool ran
        return {
            "routes_per_s": routes / total("wall_s"),
            "cpu_ms_per_route": total("cpu_s") * 1e3 / routes,
            # Linux reports KiB; every pool worker is counted at the largest worker's peak
            "peak_rss_mb": (own + workers * worker) / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        out = tracing.layer_metrics(self.tracer, self.route_stats)

        def rate(traced: bool) -> float:
            calls = [r for r in self.records if r["traced"] is traced]
            return sum(r["routes"] for r in calls) / sum(r["wall_s"] for r in calls)

        out["bench.trace_overhead"] = 1.0 - rate(True) / rate(False)
        return out

    def outputs_sha256(self) -> str:
        """One digest over the CSV hashes of every plan, in plan order."""
        hashes = [r["hashes"] for r in self.records if not r["traced"]][: len(self.plans)]
        return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def setup_seconds(probe: list[str]) -> list[tuple[float, float]]:
    """Set-up times of fresh workload processes: from spawn to the point of
    calling ``experiments.run``, which the probe prints as a monotonic clock
    reading. Each comes with the ``speed_kernel`` time taken just before it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        kernel = speed_kernel()
        t0 = time.monotonic()
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
        samples.append((float(proc.stdout.split()[-1]) - t0, kernel))
    return samples


def at_baseline_speed(raw: dict[str, float], kernel_s: list[float],
                      setup_samples: list[tuple[float, float]]) -> dict[str, float]:
    """End-to-end metrics with times scaled to the baseline host's speed.

    The calls' slowness is the run's median ``speed_kernel`` time over
    ``KERNEL_S``; routes/s and CPU ms per route are divided by it. Each
    set-up probe is divided by the slowness its own kernel time gives, and
    ``setup_s`` is the median of those: probes last half a second, and the
    host's speed during one tracks the kernel just before it more closely
    than the run's median. Memory is not scaled.
    """
    slowness = statistics.median(kernel_s) / KERNEL_S
    return {
        "routes_per_s": raw["routes_per_s"] * slowness,
        "cpu_ms_per_route": raw["cpu_ms_per_route"] / slowness,
        "setup_s": statistics.median(t * KERNEL_S / k for t, k in setup_samples),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def provenance(cfg, plans: list, blas: dict) -> dict:
    git_sha = None
    if (env.ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(env.ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((env.SRC / "risroute").rglob("*.py")):
        source.update(path.relative_to(env.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas_build.get('name')} {blas_build.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_lib,
        "blas_threads": blas,
        "plan": asdict(plans[0]),
        "plan_seeds": [p.seed for p in plans],
        "config": cfg.to_dict(),
    }
