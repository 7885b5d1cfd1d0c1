"""Seeded Monte Carlo studies emitting CSV results and a run manifest.

Each experiment kind is declared once, in ``KINDS``: its CLI subcommand, the
plan fields it reads, its runner and its default grids. The plan checks,
the grid defaults, the CLI and ``run`` all read that table.

The sweep, comparison and mobility kinds are grids of cells, each cell one
grid point under one policy and one summary row: ``_grid_cells`` lists them
from the plan alone, in output order, grouped by shared topology (the
comparison variants at one coverage, the mobility speeds; any sweep cell
alone). The plan check reads their scenario ids; ``_run_grid`` builds each
group's config, then runs every group through ``_run_cells`` (the two
sweeps on worker processes when asked) into CSVs.

Node positions are rows of the topology's node table (a node's id is its row;
see ``topology``). The mobility walk keeps IU i's position, waypoint and
speed on row i of three arrays. Each tick moves every row in one array pass
(a row not on its leg adds zero), and then each node that reaches its
waypoint walks on in IU order with scalar float arithmetic (``math.dist``),
drawing its next waypoint and speed from the walk's own stream.

Each replication does only per-route work. What depends on the config
alone is computed once per distinct key and shared read-only: the traffic
chain law (``_profiles_for``), the RIS grid (``topology.ris_grid_positions``),
the mode table (``linkbudget.build_mode_table``), each policy's slot table
(``router.slot_table``) and the surfaces' scan table (``topology``).

Every generator comes from ``_stream``, keyed by the seed, the runner
family, the grid point's name (``_point``: coverage and density) and the
replication. So outputs are byte-identical across runs and thread
counts, a grid point's rows do not depend on the rest of its grid, and no
two families share a stream. The variant and the speed are not in the key:
comparison variants and mobility speeds reuse the same replication streams
(common random numbers), so differences between curves are driven by the
policies, not by sampling noise.

Each replication is drawn once, up front (``Replication``): its topology,
drawn from the route stream, and the states at which every one of its
routes starts the route stream (just after that draw) and the walk stream
(before any walk draw). Its cells route on it, the comparison variants and
the mobility speeds alike, each from those states: exactly where it would
have started alone, in any order. The routes share the topology's scan
memo (``topology.Topology.scan``), a moving route until its first tick,
while its IU rows are still the topology's. A static variant whose route
would take the same draws and hops as one routed before it
(``router.RoutePolicy.first_difference``) reuses that ledger instead of
routing again; a moving route never takes a ledger nor leaves one. Every
row keeps the bytes of routing each cell alone.

``STREAM_VERSION`` names the order in which a route consumes its stream.
A change that moves any draw bumps it, and every manifest records it; what
each version moved is in CHANGES.md. The bytes do not depend on the Python
version either: the float totals a route keeps (the delay budget's waits,
``delaymodel``, and the ledger's harvest, ``RouteLedger.to_rows``) are added
left to right, not by builtin ``sum``, which compensates from 3.12 on.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__, invariants, metrics, router, topology, traffic
from .config import ConfigError, SimConfig, check_numbers

DETAIL_COLUMNS = [
    "scenario_id",
    "seed",
    "variant",
    "coverage_m",
    "density",
    "D_T",
    "D_T_normalized",
    "E_eff",
    "ris_count",
    "hops",
    "success",
]

STREAM_VERSION = 8

# The grid kinds pin one endpoint pair so grid points differ only in the topology draw.
SWEEP_SOURCE = (20.0, 200.0)
SWEEP_DEST = (380.0, 200.0)

# The traffic validation's grids and Monte Carlo size: duty cycles xi, quantile tolerances delta, and
# Exp(1) chains split into batches (each batch's quantiles give one sample of the estimate's SE)
XI_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
DELTAS = (0.1, 0.2, 0.3)
CHAINS = 100_000
BATCHES = 20


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (seed, indices)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _stream(seed: int, family: str, rep: int, scenario: str = "") -> np.random.Generator:
    """Replication ``rep``'s generator in one runner family (``grid``, ``walk``, ``trajectory`` or
    ``traffic``) at one grid point, ``scenario``. Family and scenario are packed into one integer,
    then come ``rep`` and the text's byte count, which fixes where the text ends: no key is a prefix
    of another, and none ends in the zero word that SeedSequence would ignore."""
    text = f"{family}:{scenario}".encode()
    return derive_rng(seed, int.from_bytes(text, "big"), rep, len(text))


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str  # a key of ``KINDS``
    seed: int = 1
    replications: int = 500
    coverage_grid: tuple[float, ...] | None = None  # None: the kind's default
    density_grid: tuple[int, ...] | None = None  # None: the kind's default
    vmax_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    variants: tuple[str, ...] = ("full", "shannon", "fixed_mod", "single_ris", "double_ris")
    threads: int = 1  # worker processes for the two sweeps; comparison and mobility accept it and run serially

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; choose from {sorted(KINDS)}")
        # a grid is stored as a tuple (so a list compares with its default), and a field the kind would
        # ignore is refused rather than dropped; ``tuple`` would split a text and fail bare on a number
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("tuple") and value is not None:
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(f"{f.name} must be a list of values, got {value!r}")
                object.__setattr__(self, f.name, tuple(value))
            if f.name not in kind.reads | {"kind", "seed"} and getattr(self, f.name) != f.default:
                readers = [name for name, other in KINDS.items() if f.name in other.reads]
                raise ConfigError(f"{self.kind} takes no {f.name} (read only by {', '.join(readers)})")
        check_numbers(self)
        if not self.variants:
            raise ConfigError("variants must not be empty")
        # refused here, before any file is written: an unknown variant would fail as a bare KeyError
        # in ``_grid_cells``
        unknown = [v for v in self.variants if v not in router.BASELINE_POLICIES]
        if unknown:
            raise ConfigError(f"unknown variants {unknown}; choose from {sorted(router.BASELINE_POLICIES)}")
        if self.kind == "mobility" and len(self.resolved_coverage_grid()) > 1:
            raise ConfigError("mobility runs at one coverage radius; give coverage_grid a single value")
        # the grids name their cells' scenario ids, so no two values may print alike
        ids = Counter(cell.scenario_id for group in _grid_cells(self) for cell in group)
        alike = [sid for sid, n in ids.items() if n > 1]
        if alike:
            raise ConfigError(f"two grid cells share the scenario id {alike[0]!r}: no two grid values may print alike")

    def resolved_coverage_grid(self) -> tuple[float, ...]:
        return KINDS[self.kind].coverage_grid if self.coverage_grid is None else self.coverage_grid

    def resolved_density_grid(self) -> tuple[int, ...]:
        return KINDS[self.kind].density_grid if self.density_grid is None else self.density_grid


@dataclass
class ExperimentResult:
    files: list[Path] = field(default_factory=list)
    attempted: int = 0  # routes, in every kind but the traffic validation, which routes none
    succeeded: int = 0
    estimated: int = 0  # the traffic validation's (xi, delta, figure) estimator cells
    traces: list[str] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 1.0

    def summary(self) -> str:
        """What the run counted, as the CLI's summary line states it."""
        if self.estimated:
            return f"{self.estimated} estimator cells (xi x delta x figure)"
        return f"{self.attempted} routes attempted, success rate {self.success_rate:.3f}"


# --------------------------------------------------------------------------
# Random-waypoint mobility
# --------------------------------------------------------------------------


class MobilityField:
    """Lazy random-waypoint walk (no pauses) for all IUs of one run.

    Row i of ``xy``, ``waypoints`` and ``speeds`` is IU i's walk. Speeds are
    a shared uniform fraction times v_max, so runs that differ only in v_max
    scale the same displacements (and v_max=0 is exactly static). Owns its
    RNG: the route's streams are never touched.
    """

    def __init__(
        self,
        initial_xy: np.ndarray,
        arena: float,
        v_max: float,
        rng: np.random.Generator,
    ):
        self.arena = arena  # the side of the square arena
        self.v_max = float(v_max)
        self.rng = rng
        self.xy = np.array(initial_xy, dtype=float).reshape(-1, 2)  # the walk's own copy
        m = self.xy.shape[0]
        self.waypoints = np.column_stack([rng.uniform(0.0, arena, size=m), rng.uniform(0.0, arena, size=m)])
        self.speeds = rng.uniform(0.0, 1.0, size=m) * self.v_max
        self.t = 0.0

    def positions_at(self, t: float) -> np.ndarray:
        """The IU positions at time ``t``: the walk's own ``xy`` array, not a copy, which the next
        call moves in place.

        One array pass moves every row by ``delta * (step / dist)``, and a row at speed 0 keeps
        its bits (``0 / dist``). When no row arrives in the tick, as in most route ticks, no row
        sits on its waypoint, so every distance is nonzero and the pass divides unmasked; that is
        the whole step. Otherwise an arriving row adds ±0 in the pass (a masked divide) and keeps
        its bits, and then each arriving row walks on in IU order. The two passes take the same
        quotients, so the bits are the same.
        """
        if t < self.t - 1e-12:
            raise ValueError("mobility clock moved backwards")
        dt = t - self.t
        if dt > 0 and self.v_max > 0 and self.xy.size:
            delta = self.waypoints - self.xy
            dist = np.hypot(delta[:, 0], delta[:, 1])
            step = self.speeds * dt
            arriving = step >= dist  # a row on its waypoint arrives, so no row left divides by zero
            if arriving.any():
                self.xy += delta * np.divide(step, dist, out=np.zeros_like(step), where=~arriving)[:, None]
                # arriving nodes walk on leg by leg; each arrival draws the next waypoint's x, y, then the speed
                for i in np.nonzero(arriving)[0]:
                    (x, y), (wx, wy), v = self.xy[i].tolist(), self.waypoints[i].tolist(), float(self.speeds[i])
                    remaining = dt
                    while v > 0.0:
                        dist = math.dist((x, y), (wx, wy))
                        time_to_wp = dist / v
                        if time_to_wp > remaining:
                            frac = v * remaining / dist
                            x, y = x + (wx - x) * frac, y + (wy - y) * frac
                            break
                        x, y = wx, wy
                        remaining -= time_to_wp
                        wx, wy = self.rng.uniform(0.0, self.arena), self.rng.uniform(0.0, self.arena)
                        v = self.rng.uniform(0.0, 1.0) * self.v_max
                    self.xy[i], self.waypoints[i], self.speeds[i] = (x, y), (wx, wy), v
            else:  # the same quotients, unmasked
                self.xy += delta * (step / dist)[:, None]
        self.t = t
        return self.xy


# --------------------------------------------------------------------------
# Shared replication machinery
# --------------------------------------------------------------------------


def _profiles_for(cfg: SimConfig) -> traffic.ChainLaw:
    """The traffic chain law of ``cfg``, computed once per distinct traffic config and shared read-only."""
    return _chain_law(cfg.lambda_off_ms, cfg.mu_on_ms, cfg.iu_count, cfg.slot_s, cfg.delta, cfg.p_th)


@lru_cache(maxsize=16)
def _chain_law(lambda_off_ms, mu_on_ms, iu_count: int, slot: float, delta: float, p_th: float) -> traffic.ChainLaw:
    """The chain law of per-IU mean OFF and ON lengths in ms (scalars are broadcast to every IU)."""
    lambda_s, mu_s = (
        np.broadcast_to(np.asarray(value, dtype=float) * 1e-3, (iu_count,)) for value in (lambda_off_ms, mu_on_ms)
    )
    return traffic.chain_law(lambda_s, mu_s, slot, delta, p_th)


class Replication:
    """One replication, drawn up front: its topology (and so its scan memo), drawn from ``rng``; the
    route stream's state just after that draw; the walk stream's state before any walk draw (None
    without a walk); and each static route's (policy, ledger) so far. Every route of the replication
    starts from those two states (``run_one_route``)."""

    def __init__(self, cfg: SimConfig, rng: np.random.Generator, walk: np.random.Generator | None = None):
        self.topo = topology.generate_topology(cfg, rng)
        self.rng, self.walk = rng, walk
        self.after_topology = rng.bit_generator.state
        self.walk_start = None if walk is None else walk.bit_generator.state
        self.routed: list[tuple[router.RoutePolicy, router.RouteLedger]] = []

    def ledger_for(self, policy: router.RoutePolicy) -> router.RouteLedger | None:
        """The ledger of a route so far that never reached the first stage where its policy and
        ``policy`` can differ: the route ``policy`` would take. None when there is no such route."""
        for earlier, ledger in self.routed:
            differs = earlier.first_difference(policy)
            if differs is None or router.STAGES.index(ledger.stage_reached) < router.STAGES.index(differs):
                return ledger
        return None


def run_one_route(
    cfg: SimConfig,
    rep: Replication | np.random.Generator,
    policy: router.RoutePolicy = router.RoutePolicy(),
    v_max: float = 0.0,
) -> router.RouteLedger:
    """One cell of replication ``rep``: traffic and a route under ``policy`` on its topology, with the
    IUs walking at speeds up to ``v_max`` (static at 0). A bare generator is drawn into a replication
    of its own first.

    Every route starts the route stream at ``rep.after_topology``, and a moving route starts the walk
    at ``rep.walk_start``: exactly where the route would start alone, whatever ``rep`` routed before.
    A static route may instead return a reusable ledger (``Replication.ledger_for``, the same object).
    A moving route never takes a ledger and leaves none, so no static route reuses a moving one.
    """
    if isinstance(rep, np.random.Generator):  # one route alone, as bench/test_selftest.py routes one
        rep = Replication(cfg, rep)
    law = _profiles_for(cfg)
    rep.rng.bit_generator.state = rep.after_topology
    if v_max > 0:
        if rep.walk is None:
            raise ValueError("a replication drawn without a walk stream routes static IUs only")
        rep.walk.bit_generator.state = rep.walk_start
        mobility = MobilityField(rep.topo.iu_xy, cfg.arena_m, v_max, rep.walk)
        return router.Router(rep.topo, law, cfg, rep.rng, policy, mobility).run()
    if (ledger := rep.ledger_for(policy)) is not None:
        return ledger
    ledger = router.Router(rep.topo, law, cfg, rep.rng, policy).run()
    rep.routed.append((policy, ledger))
    return ledger


@dataclass(frozen=True)
class Cell:
    """One grid point under one policy; its replications make one summary row."""

    scenario_id: str
    variant: str  # label in the detail rows' variant column
    policy: router.RoutePolicy  # the policy the routes run under
    point: dict  # the grid point as config overrides: coverage_m, and iu_count in the sweeps
    v_max: float = 0.0  # maximum waypoint speed of the IUs
    extra: dict = field(default_factory=dict)  # summary columns between density and the stats


def _point(coverage: float, density: int) -> str:
    """The name of the grid point (coverage radius, IU count), in its sweep cells' scenario ids and its
    stream keys."""
    return f"r{coverage:g}-m{density}"


def _grid_cells(plan: ExperimentPlan) -> list[tuple[Cell, ...]]:
    """A plan's grid cells in output order, grouped by shared topology (the comparison variants at one
    coverage, the mobility speeds, any sweep cell alone), each variant resolved to its policy; none for
    a kind that runs no grid, whose grids are empty. The cells of one group share their grid point."""
    coverages = plan.resolved_coverage_grid()
    full = router.BASELINE_POLICIES["full"]
    if plan.kind == "comparison":
        return [tuple(Cell(f"comparison-r{c:g}-{v}", v, router.BASELINE_POLICIES[v], {"coverage_m": c},
                           extra={"variant": v}) for v in plan.variants) for c in coverages]
    if plan.kind == "mobility":
        return [tuple(Cell(f"mobility-v{v:g}", f"v{v:g}", full, {"coverage_m": coverages[0]}, v_max=v,
                           extra={"v_max": v}) for v in plan.vmax_grid)]
    return [(Cell(f"{plan.kind}-{_point(c, d)}", "full", full, {"coverage_m": c, "iu_count": d}),)
            for d in plan.resolved_density_grid() for c in coverages]


def _run_cells(cfg: SimConfig, cells: tuple[Cell, ...], seed: int, replications: int) -> list[list[dict]]:
    """Each cell's detail rows, for cells at one grid point ``cfg``; module-level for process pools.

    Each replication is drawn once (``Replication``) from the point's ``grid`` stream, with its
    ``walk`` stream when any cell moves, and every cell routes on it: comparison variants and mobility
    speeds alike. So the curves differ by policy or speed only.
    """
    point = _point(cfg.coverage_m, cfg.iu_count)
    moves = any(cell.v_max > 0 for cell in cells)
    rows: list[list[dict]] = [[] for _ in cells]
    for i in range(replications):
        rep = Replication(cfg, _stream(seed, "grid", i, point), _stream(seed, "walk", i, point) if moves else None)
        for cell, out in zip(cells, rows):
            out.append(_detail_row(cfg, cell, seed, run_one_route(cfg, rep, cell.policy, v_max=cell.v_max)))
    return rows


def _detail_row(cfg: SimConfig, cell: Cell, seed: int, ledger: router.RouteLedger) -> dict:
    row = {
        "scenario_id": cell.scenario_id,
        "seed": seed,
        "variant": cell.variant,
        "coverage_m": cfg.coverage_m,
        "density": cfg.iu_count,
        "D_T": 0.0,
        "D_T_normalized": 0.0,
        "E_eff": 0.0,
        "ris_count": "",
        "hops": "",
        "success": 0,
    }
    if ledger.success:
        row.update(metrics.compute_route_metrics(ledger, cfg), success=1)
    return row


def _mean_se(values: list[float]) -> tuple[float | str, float | str]:
    if not values:
        return "", ""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _aggregate(details: list[dict]) -> dict:
    """Grid-point statistics; throughput means count failures as zero."""
    succ = [d for d in details if d["success"] == 1]
    dt_all = [d["D_T"] for d in details]
    dt_mean, dt_se = _mean_se(dt_all)
    dtn_mean, _ = _mean_se([d["D_T_normalized"] for d in details])
    ris_mean, ris_se = _mean_se([d["ris_count"] for d in succ])
    eeff_mean, eeff_se = _mean_se([d["E_eff"] for d in succ])
    return {
        "replications": len(details),
        "success_rate": len(succ) / len(details) if details else 0.0,
        "ris_mean": ris_mean,
        "ris_se": ris_se,
        "dt_mean": dt_mean,
        "dt_se": dt_se,
        "dtn_mean": dtn_mean,
        "eeff_mean": eeff_mean,
        "eeff_se": eeff_se,
    }


# --------------------------------------------------------------------------
# CSV / manifest output
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, columns: list[str], rows: list[dict], preamble: str = "") -> Path:
    """``preamble``, then the header row and one row per dict (a missing column is empty)."""
    with open(path, "w", newline="") as fh:
        fh.write(preamble)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])
    return path


def write_manifest(out: Path, plan: ExperimentPlan, cfg: SimConfig) -> Path:
    """Write the run's manifest into ``out``, made if need be; runners call this once their checks pass.
    Besides the plan and the config it records the versions of Python, numpy and risroute that ran."""
    payload = {
        "schema": 2,
        "stream_version": STREAM_VERSION,
        "versions": {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__,
                     "risroute": __version__},
        "plan": asdict(plan),
        "config": cfg.to_dict(),
    }
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"manifest_{plan.kind}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------------
# Experiment kinds
# --------------------------------------------------------------------------


def _run_trajectory(plan: ExperimentPlan, cfg: SimConfig, out: Path, result: ExperimentResult):
    result.files.append(write_manifest(out, plan, cfg))
    for i in range(plan.replications):
        ledger = run_one_route(cfg, Replication(cfg, _stream(plan.seed, "trajectory", i)))
        if problems := invariants.check_ledger(ledger, cfg):
            raise RuntimeError(f"route {i + 1} breaks its ledger's invariants: {'; '.join(problems)}")
        result.attempted += 1
        result.succeeded += ledger.success
        result.traces.append(ledger.trace())
        rows = ledger.to_rows()
        schema = f"# ledger-schema v{router.LEDGER_SCHEMA_VERSION}\n"
        result.files.append(write_csv(out / f"route_{i + 1:04d}.csv", list(rows[0]), rows, schema))


def estimate_duration_quantiles(
    scales_slots: np.ndarray, deltas: tuple[float, ...], chains: int, batches: int, rng: np.random.Generator
) -> dict[tuple[int, int], tuple[float, float]]:
    """Batched Monte Carlo quantiles of exponential durations in slots.

    One shared Exp(1) draw serves every scale (common random numbers), so
    estimates move together across the grid. Returns (mean, se) keyed by
    (scale index, delta index).
    """
    base = rng.exponential(1.0, size=chains)
    per_batch = chains // batches
    batched = base[: per_batch * batches].reshape(batches, per_batch)
    out = {}
    for si, scale in enumerate(scales_slots):
        for di, q in enumerate(np.quantile(batched * scale, deltas, axis=1)):
            out[(si, di)] = (float(q.mean()), float(q.std(ddof=1) / np.sqrt(batches)))
    return out


def _run_traffic_validation(plan: ExperimentPlan, cfg: SimConfig, out: Path, result: ExperimentResult):
    if isinstance(cfg.lambda_off_ms, tuple) or isinstance(cfg.mu_on_ms, tuple):
        raise ConfigError("traffic validation needs scalar lambda_off_ms and mu_on_ms, not per-IU lists")
    result.files.append(write_manifest(out, plan, cfg))
    slot = cfg.slot_s
    rng = _stream(plan.seed, "traffic", 0)
    for figure, fixed_ms in (("nu_b", cfg.lambda_off_ms), ("nu_i", cfg.mu_on_ms)):
        fixed_s = fixed_ms * 1e-3
        if figure == "nu_b":  # lambda fixed, mu swept
            means = [xi * fixed_s / (1.0 - xi) for xi in XI_GRID]
        else:  # mu fixed, lambda swept
            means = [fixed_s * (1.0 - xi) / xi for xi in XI_GRID]
        quantiles = estimate_duration_quantiles(np.asarray(means) / slot, DELTAS, CHAINS, BATCHES, rng)
        rows = []
        for si, xi in enumerate(XI_GRID):
            for di, delta in enumerate(DELTAS):
                mc_mean, mc_se = quantiles[(si, di)]
                rows.append(
                    {"xi": xi, "delta": delta, "analytic": traffic.duration_estimate(means[si], slot, delta),
                     "mc_mean": mc_mean, "mc_se": mc_se}
                )
        result.files.append(write_csv(out / f"{figure}.csv", ["xi", "delta", "analytic", "mc_mean", "mc_se"], rows))
    result.estimated = len(XI_GRID) * len(DELTAS) * 2


def _run_grid(plan: ExperimentPlan, cfg: SimConfig, out: Path, result: ExperimentResult):
    """Sweeps, comparison and mobility: one summary row per cell, at the pinned endpoints."""
    cfg = replace(cfg, source_xy=SWEEP_SOURCE, dest_xy=SWEEP_DEST)
    groups = _grid_cells(plan)
    points = [replace(cfg, **group[0].point) for group in groups]  # each checked before any file is written
    result.files.append(write_manifest(out, plan, cfg))
    run_cells = partial(_run_cells, seed=plan.seed, replications=plan.replications)
    # never more workers than cells (a fork-started pool forks every worker at the first submit); one runs serially
    workers = min(plan.threads, len(groups)) if KINDS[plan.kind].pooled else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: a serial run never needs a pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_cells, points, groups))
    else:
        outcomes = list(map(run_cells, points, groups))
    details, summaries = [], []
    for point, group, group_rows in zip(points, groups, outcomes):
        for cell, rows in zip(group, group_rows):
            details.extend(rows)
            summaries.append({"scenario_id": cell.scenario_id, "coverage_m": point.coverage_m,
                              "density": point.iu_count, **cell.extra, **_aggregate(rows)})
            result.attempted += len(rows)
            result.succeeded += sum(d["success"] for d in rows)
    stem = plan.kind.removesuffix("_sweep")
    result.files.append(write_csv(out / f"{stem}_detail.csv", DETAIL_COLUMNS, details))
    result.files.append(write_csv(out / f"{stem}_summary.csv", list(summaries[0]), summaries))


@dataclass(frozen=True)
class Kind:
    """One experiment kind, as the plan checks, the CLI and ``run`` read it."""

    subcommand: str  # the CLI subcommand that runs it
    about: str  # the subcommand's help
    reads: frozenset[str]  # plan fields it reads besides kind and seed; any other must keep its default
    runner: Callable[[ExperimentPlan, SimConfig, Path, ExperimentResult], None]
    coverage_grid: tuple[float, ...] = ()  # default grids; empty for a kind that reads none
    density_grid: tuple[int, ...] = ()
    pooled: bool = False  # runs its cells on ``plan.threads`` worker processes


_GRID_FIELDS = frozenset({"replications", "coverage_grid", "threads"})  # read by every kind ``_run_grid`` runs
_COVERAGES = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0)

KINDS = {
    "trajectory": Kind("route", "one or more seeded routes, a ledger CSV and hop trace each",
                       frozenset({"replications"}), _run_trajectory),
    "coverage_sweep": Kind("sweep-coverage", "mean reflector usage vs coverage radius, per IU density",
                           _GRID_FIELDS | {"density_grid"}, _run_grid, _COVERAGES, (100, 400, 900), pooled=True),
    "density_sweep": Kind("sweep-density", "mean reflector usage vs IU density, per coverage radius",
                          _GRID_FIELDS | {"density_grid"}, _run_grid, (30.0, 45.0, 60.0), (100, 200, 400, 600, 900),
                          pooled=True),
    "traffic_validation": Kind("validate-traffic", "analytic idle/busy-duration estimators vs Monte Carlo",
                               frozenset(), _run_traffic_validation),
    "comparison": Kind("compare", "policy variants across the coverage grid", _GRID_FIELDS | {"variants"},
                       _run_grid, _COVERAGES),
    "mobility": Kind("mobility", "throughput vs maximum waypoint speed", _GRID_FIELDS | {"vmax_grid"},
                     _run_grid, (50.0,)),
}


def run(plan: ExperimentPlan, cfg: SimConfig, out_dir: str | Path) -> ExperimentResult:
    """Execute a plan, writing CSVs plus a manifest into ``out_dir``."""
    result = ExperimentResult()
    KINDS[plan.kind].runner(plan, cfg, Path(out_dir), result)
    return result
