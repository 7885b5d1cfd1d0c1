"""Seeded Monte Carlo studies emitting CSV results and a run manifest.

Kinds:
  trajectory         one or more seeded routes, ledger CSV per replication
  coverage_sweep     mean reflector usage vs coverage radius, per IU density
  density_sweep      mean reflector usage vs IU density, per coverage radius
  traffic_validation analytic idle/busy-duration estimators vs Monte Carlo
  comparison         policy variants across the coverage grid
  mobility           throughput vs maximum waypoint speed

The sweep, comparison and mobility kinds are grids of cells, each cell one
grid point under one policy and one summary row: ``_grid_cells`` lists them
in output order, grouped by shared stream (the comparison variants at one
coverage; any other cell alone), ``_run_cells`` runs the replications of one
group and ``_run_grid`` runs them all (the two sweeps on worker processes
when asked) into CSVs.

Node positions are rows of the topology's node table (a node's id is its row;
see ``topology``). The mobility walk keeps IU i's position, waypoint and
speed on row i of three arrays. Each tick moves every row in one array pass
(a row not on its leg adds zero), and then each node that reaches its
waypoint walks on in IU order with scalar float arithmetic (``math.dist``),
drawing its next waypoint and speed from the walk's own stream.

Each replication does only per-route work. What depends on the config
alone is computed once per distinct key and shared read-only: the traffic
chain law (``_profiles_for``), the RIS grid (``topology.ris_grid_positions``)
and the mode table (``linkbudget.build_mode_table``).

Replication streams derive deterministically from (seed, indices) via
SeedSequence, so outputs are byte-identical across runs and thread
counts; comparison variants and mobility grid points reuse the same
replication streams (common random numbers) so differences between
curves are driven by the policies, not by sampling noise.

The variants of one comparison replication are routed together
(``Replication``): the topology is drawn once and each variant's route
starts from the generator state just after that draw, exactly where it
would have started on its own; the variants share the topology's scan
memo (``topology.Topology.scan``); and a variant whose route would take
the same draws and hops as one routed before it
(``router.RoutePolicy.first_difference``) reuses that ledger instead of
routing again. Every row keeps the bytes of routing each
variant on its own stream.

``STREAM_VERSION`` names the order in which a route consumes its stream.
A change that moves any draw bumps it, and every manifest records it.
Version 2 draws fading only where it is read (see ``router``). Version 3
moves values, not draws: Q^-1 comes from ``statistics`` (``channel.q_inv``),
and a mobile route transmits from where the IU holding the packet is after
it waits.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import invariants, metrics, router, topology, traffic
from .config import ConfigError, SimConfig

EXPERIMENT_KINDS = (
    "trajectory",
    "coverage_sweep",
    "density_sweep",
    "traffic_validation",
    "comparison",
    "mobility",
)

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

STREAM_VERSION = 3

# The grid kinds pin one endpoint pair so grid points differ only in the topology draw.
SWEEP_SOURCE = (20.0, 200.0)
SWEEP_DEST = (380.0, 200.0)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (seed, indices)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    seed: int = 1
    replications: int = 500
    coverage_grid: tuple[float, ...] | None = None
    density_grid: tuple[int, ...] | None = None
    deltas: tuple[float, ...] = (0.1, 0.2, 0.3)
    xi_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    chains: int = 100_000
    batches: int = 20
    vmax_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    variants: tuple[str, ...] = ("full", "shannon", "fixed_mod", "single_ris", "double_ris")
    threads: int = 1  # worker processes; only coverage_sweep and density_sweep use them

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.replications < 1 or self.batches < 2 or self.chains < self.batches:  # a batch needs a chain
            raise ConfigError("replications must be >= 1, batches >= 2 and chains >= batches")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if not all((self.resolved_coverage_grid(), self.resolved_density_grid(), self.vmax_grid, self.variants)):
            raise ConfigError("grids and variants must not be empty")
        # a grid the kind would ignore is refused rather than dropped
        if self.density_grid is not None and self.kind not in ("coverage_sweep", "density_sweep"):
            raise ConfigError(f"{self.kind} takes no density_grid (only the two sweeps run one)")
        if self.coverage_grid is not None and self.kind in ("trajectory", "traffic_validation"):
            raise ConfigError(f"{self.kind} takes no coverage_grid")
        # refused here, before any file is written: an unknown variant would fail as a bare KeyError
        # in ``_grid_cells``, and a negative or NaN speed would run static routes
        unknown = [v for v in self.variants if v not in router.BASELINE_POLICIES]
        if unknown:
            raise ConfigError(f"unknown variants {unknown}; choose from {sorted(router.BASELINE_POLICIES)}")
        if not all(0.0 <= v < math.inf for v in self.vmax_grid):
            raise ConfigError(f"vmax_grid speeds must be finite and >= 0, got {self.vmax_grid}")
        if self.kind == "mobility" and len(self.resolved_coverage_grid()) > 1:
            raise ConfigError("mobility runs at one coverage radius; give coverage_grid a single value")
        for name, readers in _OWNED_FIELDS:
            if self.kind not in readers and getattr(self, name) != _PLAN_DEFAULTS[name]:
                raise ConfigError(f"{self.kind} takes no {name} (read only by {', '.join(readers)})")

    def resolved_coverage_grid(self) -> tuple[float, ...]:
        if self.coverage_grid is not None:
            return self.coverage_grid
        if self.kind == "density_sweep":
            return (30.0, 45.0, 60.0)
        if self.kind == "mobility":
            return (50.0,)
        return (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0)

    def resolved_density_grid(self) -> tuple[int, ...]:
        if self.density_grid is not None:
            return self.density_grid
        if self.kind == "density_sweep":
            return (100, 200, 400, 600, 900)
        return (100, 400, 900)


_PLAN_DEFAULTS = {f.name: f.default for f in fields(ExperimentPlan)}
# plan fields some kinds do not read, with the kinds that do; any other kind refuses a non-default value
_OWNED_FIELDS = (
    ("variants", ("comparison",)),
    ("vmax_grid", ("mobility",)),
    *((name, ("traffic_validation",)) for name in ("deltas", "xi_grid", "chains", "batches")),
    ("replications", tuple(kind for kind in EXPERIMENT_KINDS if kind != "traffic_validation")),
)


@dataclass
class ExperimentResult:
    kind: str
    files: list[Path] = field(default_factory=list)
    attempted: int = 0
    succeeded: int = 0
    traces: list[str] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.attempted if self.attempted else 1.0


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
        arena: tuple[float, float],
        v_max: float,
        rng: np.random.Generator,
    ):
        self.arena = arena
        self.v_max = float(v_max)
        self.rng = rng
        self.xy = np.array(initial_xy, dtype=float).reshape(-1, 2).copy()
        m = self.xy.shape[0]
        self.waypoints = np.column_stack(
            [rng.uniform(0.0, arena[0], size=m), rng.uniform(0.0, arena[1], size=m)]
        )
        self.speeds = rng.uniform(0.0, 1.0, size=m) * self.v_max
        self.t = 0.0

    def positions_at(self, t: float) -> np.ndarray:
        """The IU positions at time ``t``: the walk's own ``xy`` array, not a copy, which the next
        call moves in place.

        One array pass moves every row by ``delta * (step / dist)``. An arriving row adds ±0
        there and keeps its bits, as does a row at speed 0 (``0 / dist``); then each arriving
        row walks on in IU order.
        """
        if t < self.t - 1e-12:
            raise ValueError("mobility clock moved backwards")
        dt = t - self.t
        if dt > 0 and self.v_max > 0 and self.xy.size:
            delta = self.waypoints - self.xy
            dist = np.hypot(delta[:, 0], delta[:, 1])
            step = self.speeds * dt
            arriving = step >= dist  # a row on its waypoint arrives, so no row left divides by zero
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
                    wx, wy = self.rng.uniform(0.0, self.arena[0]), self.rng.uniform(0.0, self.arena[1])
                    v = self.rng.uniform(0.0, 1.0) * self.v_max
                self.xy[i], self.waypoints[i], self.speeds[i] = (x, y), (wx, wy), v
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


@dataclass
class Replication:
    """What the static routes of one replication under several policies share: the topology (and so
    its scan memo), the generator state just after drawing it, and each route's (policy, ledger)."""

    topo: topology.Topology | None = None  # drawn by the first route
    after_topology: dict | None = None  # ``bit_generator.state`` just after the topology draw
    routed: list[tuple[router.RoutePolicy, router.RouteLedger]] = field(default_factory=list)

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
    rng: np.random.Generator,
    policy: router.RoutePolicy = router.RoutePolicy(),
    mobility_rng: np.random.Generator | None = None,
    v_max: float = 0.0,
    shared: Replication | None = None,
) -> router.RouteLedger:
    """One replication: topology draw, traffic, route under ``policy``.

    A static route is one of the routes of ``shared`` (a fresh ``Replication`` when None), which
    routes the policies given the same ``shared``, ``cfg`` and stream together: the first call
    draws the topology from ``rng``, and each later call returns a reusable ledger
    (``Replication.ledger_for``, the same object) or resets ``rng`` to the state after that draw
    and routes on the shared topology. A mobile route (``mobility_rng`` and
    ``v_max > 0``) shares nothing.
    """
    law = _profiles_for(cfg)
    if mobility_rng is not None and v_max > 0:
        if shared is not None:
            raise ValueError("a shared replication routes static IUs only")
        topo = topology.generate_topology(cfg, rng)
        mobility = MobilityField(topo.iu_xy, (cfg.arena_m, cfg.arena_m), v_max, mobility_rng)
        return router.Router(topo, law, cfg, rng, policy, mobility).run()
    shared = Replication() if shared is None else shared
    if shared.topo is None:
        shared.topo = topology.generate_topology(cfg, rng)
        shared.after_topology = rng.bit_generator.state
    elif (ledger := shared.ledger_for(policy)) is not None:
        return ledger
    else:
        rng.bit_generator.state = shared.after_topology
    ledger = router.Router(shared.topo, law, cfg, rng, policy).run()
    shared.routed.append((policy, ledger))
    return ledger


@dataclass(frozen=True)
class Cell:
    """One grid point under one policy; its replications make one summary row."""

    scenario_id: str
    variant: str  # label in the detail rows' variant column
    policy: router.RoutePolicy  # the policy the routes run under
    cfg: SimConfig  # the grid point's coverage and density are cfg.coverage_m and cfg.iu_count
    stream: int | None  # grid index keying the route streams; None keys them by replication only
    v_max: float = 0.0  # maximum waypoint speed of the IUs
    extra: dict = field(default_factory=dict)  # summary columns between density and the stats


def _grid_cells(plan: ExperimentPlan, base: SimConfig) -> list[tuple[Cell, ...]]:
    """A grid plan's cells in output order, grouped by shared stream, each a variation of ``base``;
    every config is built (and checked) and every variant resolved to its policy before any route
    runs."""
    coverages = plan.resolved_coverage_grid()
    full = router.BASELINE_POLICIES["full"]
    if plan.kind == "comparison":
        return [
            tuple(Cell(f"comparison-r{c:g}-{v}", v, router.BASELINE_POLICIES[v], base.with_overrides(coverage_m=c),
                       ci, extra={"variant": v}) for v in plan.variants)
            for ci, c in enumerate(coverages)
        ]
    if plan.kind == "mobility":
        point = base.with_overrides(coverage_m=coverages[0])
        return [
            (Cell(f"mobility-v{v:g}", f"v{v:g}", full, point, None, v_max=v, extra={"v_max": v}),)
            for v in plan.vmax_grid
        ]
    points = [(c, d) for d in plan.resolved_density_grid() for c in coverages]
    return [
        (Cell(f"{plan.kind}-r{c:g}-m{d}", "full", full, base.with_overrides(coverage_m=c, iu_count=d), gi),)
        for gi, (c, d) in enumerate(points)
    ]


def _run_cells(cells: tuple[Cell, ...], seed: int, replications: int) -> list[list[dict]]:
    """Each cell's detail rows, for cells that share one ``stream``; module-level for process pools,
    and the one place grid streams are derived.

    Comparison cells at one coverage share ``stream``, so each replication
    routes their policies together on one topology (``Replication``).
    Mobility cells share the per-replication streams, and each runs alone. So
    the curves differ by policy or speed only.
    """
    stream = cells[0].stream
    rows: list[list[dict]] = [[] for _ in cells]
    for rep in range(replications):
        if stream is None:
            rng, walk, shared = derive_rng(seed, rep, 0), derive_rng(seed, rep, 1), None
        else:
            rng, walk, shared = derive_rng(seed, stream, rep), None, Replication()
        for cell, out in zip(cells, rows):
            ledger = run_one_route(cell.cfg, rng, cell.policy, mobility_rng=walk, v_max=cell.v_max, shared=shared)
            out.append(_detail_row(cell, seed, ledger))
    return rows


def _detail_row(cell: Cell, seed: int, ledger: router.RouteLedger) -> dict:
    row = {
        "scenario_id": cell.scenario_id,
        "seed": seed,
        "variant": cell.variant,
        "coverage_m": cell.cfg.coverage_m,
        "density": cell.cfg.iu_count,
        "D_T": 0.0,
        "D_T_normalized": 0.0,
        "E_eff": 0.0,
        "ris_count": "",
        "hops": "",
        "success": 0,
    }
    if ledger.success:
        row.update(metrics.compute_route_metrics(ledger, cell.cfg), success=1)
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


def write_manifest(path: Path, plan: ExperimentPlan, cfg: SimConfig) -> Path:
    payload = {
        "schema": 1,
        "stream_version": STREAM_VERSION,
        "plan": asdict(plan),
        "config": cfg.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------------
# Experiment kinds
# --------------------------------------------------------------------------


def _run_trajectory(plan: ExperimentPlan, cfg: SimConfig, out: Path, result: ExperimentResult):
    for rep in range(plan.replications):
        rng = derive_rng(plan.seed, rep)
        ledger = run_one_route(cfg, rng)
        if problems := invariants.check_ledger(ledger, ledger.topo, cfg):
            raise RuntimeError(f"route {rep + 1} breaks its ledger's invariants: {'; '.join(problems)}")
        result.attempted += 1
        result.succeeded += ledger.success
        result.traces.append(ledger.trace())
        rows = ledger.to_rows()
        schema = f"# ledger-schema v{router.LEDGER_SCHEMA_VERSION}\n"
        result.files.append(write_csv(out / f"route_{rep + 1:04d}.csv", list(rows[0]), rows, schema))


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
        durations = batched * scale
        for di, delta in enumerate(deltas):
            q = np.quantile(durations, delta, axis=1)
            out[(si, di)] = (float(q.mean()), float(q.std(ddof=1) / np.sqrt(batches)))
    return out


def _run_traffic_validation(plan: ExperimentPlan, cfg: SimConfig, out: Path, result: ExperimentResult):
    if isinstance(cfg.lambda_off_ms, tuple) or isinstance(cfg.mu_on_ms, tuple):
        raise ConfigError("traffic validation needs scalar lambda_off_ms and mu_on_ms, not per-IU lists")
    slot = cfg.slot_s
    rng = derive_rng(plan.seed, 0)
    for figure, fixed_ms in (("nu_b", cfg.lambda_off_ms), ("nu_i", cfg.mu_on_ms)):
        fixed_s = fixed_ms * 1e-3
        if figure == "nu_b":  # lambda fixed, mu swept
            means = [xi * fixed_s / (1.0 - xi) for xi in plan.xi_grid]
        else:  # mu fixed, lambda swept
            means = [fixed_s * (1.0 - xi) / xi for xi in plan.xi_grid]
        quantiles = estimate_duration_quantiles(
            np.asarray(means) / slot, plan.deltas, plan.chains, plan.batches, rng
        )
        rows = []
        for si, xi in enumerate(plan.xi_grid):
            for di, delta in enumerate(plan.deltas):
                mc_mean, mc_se = quantiles[(si, di)]
                rows.append(
                    {"xi": xi, "delta": delta, "analytic": traffic.duration_estimate(means[si], slot, delta),
                     "mc_mean": mc_mean, "mc_se": mc_se}
                )
        result.files.append(write_csv(out / f"{figure}.csv", ["xi", "delta", "analytic", "mc_mean", "mc_se"], rows))
    result.attempted = len(plan.xi_grid) * len(plan.deltas) * 2
    result.succeeded = result.attempted


def _run_grid(plan: ExperimentPlan, cfg: SimConfig, out: Path, result: ExperimentResult):
    """Sweeps, comparison and mobility: one summary row per cell."""
    groups = _grid_cells(plan, cfg)
    run_cells = partial(_run_cells, seed=plan.seed, replications=plan.replications)
    if plan.threads > 1 and plan.kind in ("coverage_sweep", "density_sweep"):
        # never more workers than cells: a fork-started pool forks every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(plan.threads, len(groups))) as pool:
            outcomes = [rows for group in pool.map(run_cells, groups) for rows in group]
    else:
        outcomes = [rows for group in map(run_cells, groups) for rows in group]
    details, summaries = [], []
    for cell, rows in zip((cell for group in groups for cell in group), outcomes):
        details.extend(rows)
        summaries.append({"scenario_id": cell.scenario_id, "coverage_m": cell.cfg.coverage_m,
                          "density": cell.cfg.iu_count, **cell.extra, **_aggregate(rows)})
        result.attempted += len(rows)
        result.succeeded += sum(d["success"] for d in rows)
    stem = plan.kind.removesuffix("_sweep")
    result.files.append(write_csv(out / f"{stem}_detail.csv", DETAIL_COLUMNS, details))
    result.files.append(write_csv(out / f"{stem}_summary.csv", list(summaries[0]), summaries))


def run(plan: ExperimentPlan, cfg: SimConfig, out_dir: str | Path) -> ExperimentResult:
    """Execute a plan, writing CSVs plus a manifest into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult(kind=plan.kind)
    if plan.kind not in ("trajectory", "traffic_validation"):  # the grid kinds run at the pinned endpoints
        cfg = cfg.with_overrides(source_xy=SWEEP_SOURCE, dest_xy=SWEEP_DEST)
    result.files.append(write_manifest(out / f"manifest_{plan.kind}.json", plan, cfg))
    if plan.kind == "trajectory":
        _run_trajectory(plan, cfg, out, result)
    elif plan.kind == "traffic_validation":
        _run_traffic_validation(plan, cfg, out, result)
    else:
        _run_grid(plan, cfg, out, result)
    return result
