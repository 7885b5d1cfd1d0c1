"""Outside-in tracing: spans and counts around the simulator's layer boundaries.

The simulator is not changed. While a ``Tracer`` is installed, each target
below is rebound on its module or class to a wrapper that records a span
(name, start, end, parent span) and runs a counting hook on the call.
Callers inside the package look these names up at call time, so the
wrappers see every call. Spans nest; a span's self time is its duration
minus the time its child spans cover, and a layer's self time is the sum
over the spans named after it. Spans stay in memory until the run ends.

A target missing from the program (renamed or removed by a refactor) is
skipped and listed in ``Tracer.missing``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import gzip
import math
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from risroute import channel, delaymodel, experiments, linkbudget, metrics, router, topology, traffic

LAYERS = ("experiments", "topology", "traffic", "channel", "router", "linkbudget", "delaymodel", "metrics")
FAILURE_REASONS = ("no_iu_no_ris", "delay_exceeded", "dead_end_after_double_ris", "outage")


def _count_fading(counts, args, kwargs, result):
    shape = args[0] if args else kwargs["n"]
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    counts["channel.fading_elements"] += math.prod(shape)
    counts["channel.hmid_draws"] += len(shape) == 2


def _count_scan(counts, args, kwargs, result):
    counts["topology.scan_hits"] += len(result)


def _count_observe(counts, args, kwargs, result):
    counts["traffic.observed_ius"] += len(result)


def _count_aset(counts, args, kwargs, result):
    counts["router.aset_links"] += len(args[0] if args else kwargs["links"])
    counts["router.aset_entries"] += len(result)


# (owner, attribute, span name, counting hook); the layer is the span name's prefix.
TARGETS = (
    (experiments, "run", "experiments.run", None),
    (experiments, "run_one_route", "experiments.route", None),
    (experiments, "_profiles_for", "traffic.setup", None),  # builds the per-IU TrafficProfile list
    (experiments, "write_csv", "experiments.io", None),
    (experiments, "write_manifest", "experiments.io", None),
    (getattr(experiments, "MobilityField", None), "positions_at", "experiments.mobility", None),
    (topology, "generate_topology", "topology.generate", None),
    (topology, "half_circle_scan", "topology.scan", _count_scan),
    (getattr(traffic, "TrafficField", None), "__init__", "traffic.setup", None),
    (getattr(traffic, "TrafficField", None), "states_at", "traffic.observe", _count_observe),
    (traffic, "deferral_window", "traffic.deferral", None),
    (channel, "sample_fading", "channel.fading", _count_fading),
    (channel, "alternating_double_phases", "channel.align", None),
    (channel, "direct_snr", "channel.snr", None),
    (channel, "optimal_single_reflection_snr", "channel.snr", None),
    (channel, "double_reflection_sinr", "channel.snr", None),
    (channel, "finite_blocklength_rate", "channel.snr", None),
    (channel, "shannon_rate", "channel.snr", None),
    (getattr(router, "Router", None), "__init__", "router.init", None),
    (getattr(router, "Router", None), "run", "router.run", None),
    (getattr(router, "Router", None), "ris_fallback", "router.ris_fallback", None),
    (router, "availability_set", "router.aset", _count_aset),
    (linkbudget, "build_mode_table", "linkbudget.mode_table", None),
    (linkbudget, "harvested_energy_for_transfer", "linkbudget.harvest", None),
    (getattr(delaymodel, "DelayBudget", None), "advance", "delaymodel.advance", None),
    (getattr(delaymodel, "DelayBudget", None), "pin_next", "delaymodel.pin_next", None),
    (metrics, "compute_route_metrics", "metrics.compute", None),
)

# per-layer metric -> unit; every one is per traced route unless its name says otherwise
PER_LAYER_UNITS = {
    "channel.fading_ms": "ms",
    "channel.fading_elements": "count",
    "channel.hmid_draws": "count",
    "channel.align_ms": "ms",
    "channel.align_calls": "count",
    "channel.snr_ms": "ms",
    "channel.hmid_useful_ratio": "ratio",
    "channel.self_share": "share",
    "topology.generate_ms": "ms",
    "topology.scan_ms": "ms",
    "topology.scan_calls": "count",
    "topology.scan_hits": "count",
    "topology.self_share": "share",
    "traffic.setup_ms": "ms",
    "traffic.observe_ms": "ms",
    "traffic.observed_ius": "count",
    "traffic.deferrals": "count",
    "traffic.self_share": "share",
    "router.init_ms": "ms",
    "router.run_self_ms": "ms",
    "router.aset_ms": "ms",
    "router.aset_useful_ratio": "ratio",
    "router.ris_fallback_calls": "count",
    "router.ris_fallback_ms": "ms",
    **{f"router.fail.{reason}": "share" for reason in FAILURE_REASONS},
    "router.hops_mean": "count",
    "router.self_share": "share",
    "linkbudget.mode_table_ms": "ms",
    "linkbudget.harvest_calls": "count",
    "linkbudget.self_share": "share",
    "delaymodel.advance_calls": "count",
    "delaymodel.pin_next_calls": "count",
    "delaymodel.self_share": "share",
    "metrics.ms": "ms",
    "metrics.self_share": "share",
    "experiments.route_ms_p50": "ms",
    "experiments.route_ms_p99": "ms",
    "experiments.mobility_ms": "ms",
    "experiments.io_ms": "ms",
    "experiments.self_share": "share",
    "bench.trace_overhead": "share",
}


class Tracer:
    """Span store plus the wrappers that feed it; install with ``with``."""

    def __init__(self, on_route=None):
        self.on_route = on_route  # called with (cfg, ledger) after each traced route
        self.span_names: list[str] = []
        self.name_ids: array = array("l")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.parents: array = array("l")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, span, hook in TARGETS:
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.missing = sorted(set(self.missing))

    def _wrap(self, original, span: str, hook):
        if span not in self.span_names:
            self.span_names.append(span)
        name_id = self.span_names.index(span)
        is_route = span == "experiments.route"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            if is_route and self.on_route is not None:
                self.on_route(args[0] if args else kwargs["cfg"], result)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------------

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, durations in seconds, self times in seconds)."""
        names, parents = np.asarray(self.name_ids), np.asarray(self.parents)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        covered = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        return names, duration, duration - covered

    def write(self, path: Path) -> None:
        """Every span as ``name,start_s,end_s,parent`` (gzip CSV)."""
        names = self.span_names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            for n, s, e, p in zip(self.name_ids, self.starts, self.ends, self.parents):
                fh.write(f"{names[n]},{s:.9f},{e:.9f},{p}\n")


def layer_metrics(tracer: Tracer, route_stats: Counter) -> dict[str, float]:
    """Per-layer metrics, per traced route; ``route_stats`` counts over the ledgers."""
    names, duration, self_time = tracer.spans()
    spans = {name: names == i for i, name in enumerate(tracer.span_names)}
    no_span = np.zeros(names.shape, dtype=bool)
    self_s = {name: float(self_time[mask].sum()) for name, mask in spans.items()}
    total_self = sum(self_s.values())
    per_route = max(route_stats["routes"], 1)
    counts = tracer.counts
    route_ms = duration[spans.get("experiments.route", no_span)] * 1e3

    def ms(span: str) -> float:
        return self_s.get(span, 0.0) * 1e3 / per_route

    def count(span: str) -> int:
        return int(spans.get(span, no_span).sum())

    def calls(span: str) -> float:
        return count(span) / per_route

    out = {
        "channel.fading_ms": ms("channel.fading"),
        "channel.fading_elements": counts["channel.fading_elements"] / per_route,
        "channel.hmid_draws": counts["channel.hmid_draws"] / per_route,
        "channel.align_ms": ms("channel.align"),
        "channel.align_calls": calls("channel.align"),
        "channel.snr_ms": ms("channel.snr"),
        # no h_mid drawn means none wasted
        "channel.hmid_useful_ratio": count("channel.align") / counts["channel.hmid_draws"]
        if counts["channel.hmid_draws"] else 1.0,
        "topology.generate_ms": ms("topology.generate"),
        "topology.scan_ms": ms("topology.scan"),
        "topology.scan_calls": calls("topology.scan"),
        "topology.scan_hits": counts["topology.scan_hits"] / per_route,
        "traffic.setup_ms": ms("traffic.setup"),
        "traffic.observe_ms": ms("traffic.observe"),
        "traffic.observed_ius": counts["traffic.observed_ius"] / per_route,
        "traffic.deferrals": calls("traffic.deferral"),
        "router.init_ms": ms("router.init"),
        "router.run_self_ms": ms("router.run"),
        "router.aset_ms": ms("router.aset"),
        "router.aset_useful_ratio": counts["router.aset_entries"] / counts["router.aset_links"]
        if counts["router.aset_links"] else 0.0,
        "router.ris_fallback_calls": calls("router.ris_fallback"),
        "router.ris_fallback_ms": ms("router.ris_fallback"),
        **{f"router.fail.{r}": route_stats[f"fail.{r}"] / per_route for r in FAILURE_REASONS},
        "router.hops_mean": route_stats["hops"] / per_route,
        "linkbudget.mode_table_ms": ms("linkbudget.mode_table"),
        "linkbudget.harvest_calls": calls("linkbudget.harvest"),
        "delaymodel.advance_calls": calls("delaymodel.advance"),
        "delaymodel.pin_next_calls": calls("delaymodel.pin_next"),
        "metrics.ms": ms("metrics.compute"),
        "experiments.route_ms_p50": float(np.percentile(route_ms, 50)) if route_ms.size else 0.0,
        "experiments.route_ms_p99": float(np.percentile(route_ms, 99)) if route_ms.size else 0.0,
        "experiments.mobility_ms": ms("experiments.mobility"),
        "experiments.io_ms": ms("experiments.io"),
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_share"] = layer_self / total_self if total_self else 0.0
    return out
