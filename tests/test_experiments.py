import copy
import csv
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from test_cli_hashes import cli_hashes

from risroute import experiments, linkbudget, router, topology, traffic
from risroute.config import ConfigError, SimConfig, load_config
from risroute.experiments import (
    ExperimentPlan,
    MobilityField,
    derive_rng,
    estimate_duration_quantiles,
    run,
    run_one_route,
)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestRngDerivation:
    def test_deterministic_and_key_sensitive(self):
        a = derive_rng(1, 2, 3).random(4)
        b = derive_rng(1, 2, 3).random(4)
        c = derive_rng(1, 2, 4).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPlanValidation:
    @pytest.mark.parametrize("bad", [
        {"threads": 0}, {"threads": -2}, {"replications": 0}, {"coverage_grid": ()}, {"variants": ()},
        {"kind": "bogus"},
        # a grid the kind would ignore
        {"kind": "mobility", "coverage_grid": (30.0, 60.0)}, {"density_grid": (100,)},
        {"kind": "mobility", "density_grid": (100,)}, {"kind": "trajectory", "density_grid": (100,)},
        {"kind": "traffic_validation", "density_grid": (100,)}, {"kind": "trajectory", "coverage_grid": (60.0,)},
        {"kind": "traffic_validation", "coverage_grid": (60.0,)},
        # a plan field only another kind reads
        {"kind": "coverage_sweep", "variants": ("shannon",)}, {"kind": "mobility", "variants": ("full",)},
        {"vmax_grid": (0.0,)}, {"kind": "density_sweep", "vmax_grid": (0.0, 5.0)},
        {"deltas": (0.1,)}, {"xi_grid": (0.5,)}, {"chains": 10}, {"batches": 4},
        {"kind": "mobility", "chains": 10}, {"kind": "trajectory", "deltas": (0.2,)},
        # a plan field the kind ignores: traffic validation reads chains and batches instead
        {"kind": "traffic_validation", "replications": 3},
        # fewer chains than batches leaves every batch empty
        {"kind": "traffic_validation", "chains": 3, "batches": 4},
    ])
    def test_rejected_as_config_error(self, bad):
        with pytest.raises(ConfigError):
            ExperimentPlan(**{"kind": "comparison", **bad})

    @pytest.mark.parametrize("bad", [
        {"kind": "comparison", "variants": ("full", "fixed-mod"), "coverage_grid": (60.0,)},
        {"kind": "mobility", "vmax_grid": (0.0, -5.0)},
        {"kind": "mobility", "vmax_grid": (math.nan,)},
        {"kind": "mobility", "vmax_grid": (5.0, math.inf)},
    ])
    def test_refused_before_any_route_runs(self, bad, tmp_path, monkeypatch):
        # unchecked, an unknown variant fails as a bare KeyError once the manifest is written,
        # and a negative or NaN speed runs static routes
        routed = []
        monkeypatch.setattr(experiments, "run_one_route", lambda *args, **kwargs: routed.append(args))
        with pytest.raises(ConfigError):
            run(ExperimentPlan(seed=1, replications=1, **bad), SimConfig(), tmp_path)
        assert routed == [] and list(tmp_path.iterdir()) == []


@dataclass(frozen=True)
class MobilityState:
    """Oracle: one node's waypoint-walk state (random waypoint, no pauses)."""

    position: tuple[float, float]
    waypoint: tuple[float, float]
    velocity: float  # m/s, in [0, v_max]


def mobility_step(state, dt, arena, v_max, rng) -> MobilityState:
    """Oracle: advance one node ``dt`` seconds; redraw waypoint and speed on arrival."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    pos, wp, v = state.position, state.waypoint, state.velocity
    remaining = dt
    while True:
        dist = math.hypot(pos[0] - wp[0], pos[1] - wp[1])
        if v <= 0.0:
            break
        time_to_wp = dist / v
        if time_to_wp > remaining:
            frac = v * remaining / dist
            pos = (pos[0] + (wp[0] - pos[0]) * frac, pos[1] + (wp[1] - pos[1]) * frac)
            break
        pos = wp
        remaining -= time_to_wp
        wp = (rng.uniform(0.0, arena[0]), rng.uniform(0.0, arena[1]))
        v = rng.uniform(0.0, 1.0) * v_max
    return MobilityState(position=pos, waypoint=wp, velocity=v)


def oracle_positions_at(walk, dt, arena, v_max, rng) -> int:
    """Oracle: ``MobilityField.positions_at`` over ``walk = (xy, waypoints, speeds)`` with masked
    gathers (only rows on their leg at a nonzero speed move), each arriving node advanced by
    ``mobility_step``; returns the arrivals."""
    xy, waypoints, speeds = walk
    delta = waypoints - xy
    dist = np.hypot(delta[:, 0], delta[:, 1])
    step = speeds * dt
    arriving = step >= dist
    moving = ~arriving & (speeds > 0)
    xy[moving] += delta[moving] * (step[moving] / dist[moving])[:, None]
    for i in np.nonzero(arriving)[0]:
        state = MobilityState(tuple(xy[i].tolist()), tuple(waypoints[i].tolist()), float(speeds[i]))
        state = mobility_step(state, dt, arena, v_max, rng)
        xy[i], waypoints[i], speeds[i] = state.position, state.waypoint, state.velocity
    return int(arriving.sum())


class TestMobilityStep:
    arena = (400.0, 400.0)

    def test_displacement_toward_waypoint(self):
        state = MobilityState(position=(0.0, 0.0), waypoint=(300.0, 400.0), velocity=5.0)
        out = mobility_step(state, 2.0, self.arena, 20.0, np.random.default_rng(0))
        dist = math.hypot(*out.position)
        assert dist == pytest.approx(10.0, rel=1e-12)  # v*dt
        assert out.waypoint == state.waypoint  # leg not finished

    def test_zero_velocity_is_static(self):
        state = MobilityState(position=(5.0, 5.0), waypoint=(300.0, 300.0), velocity=0.0)
        out = mobility_step(state, 100.0, self.arena, 0.0, np.random.default_rng(0))
        assert out.position == state.position

    def test_arrival_redraws_waypoint_and_speed(self):
        state = MobilityState(position=(0.0, 0.0), waypoint=(3.0, 4.0), velocity=5.0)
        out = mobility_step(state, 10.0, self.arena, 20.0, np.random.default_rng(7))
        assert out.waypoint != state.waypoint
        assert 0.0 <= out.velocity <= 20.0
        # walked past the first waypoint and onward along the new leg
        assert out.position != (3.0, 4.0)

    def test_bad_dt(self):
        state = MobilityState((0.0, 0.0), (1.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            mobility_step(state, 0.0, self.arena, 1.0, np.random.default_rng(0))


class TestMobilityField:
    def test_zero_vmax_constant_positions(self):
        xy = np.array([[10.0, 10.0], [20.0, 20.0]])
        field = MobilityField(xy, (400.0, 400.0), 0.0, derive_rng(1, 1))
        assert np.array_equal(field.positions_at(0.05), xy)

    def test_displacement_scales_linearly_with_vmax(self):
        xy = np.tile(np.array([[200.0, 200.0]]), (5, 1))
        f1 = MobilityField(xy, (400.0, 400.0), 5.0, derive_rng(2, 1))
        f2 = MobilityField(xy, (400.0, 400.0), 10.0, derive_rng(2, 1))
        d1 = f1.positions_at(0.05) - xy
        d2 = f2.positions_at(0.05) - xy
        assert np.allclose(d2, 2.0 * d1, rtol=1e-9)

    @staticmethod
    def check_against_oracle(field, times, min_arrivals):
        """``field`` walks through ``times`` with the bits, arrivals and draws of the oracle."""
        arena, v_max = field.arena, field.v_max
        walk = (field.xy.copy(), field.waypoints.copy(), field.speeds.copy())
        rng = copy.deepcopy(field.rng)
        arrivals, prev = 0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an unguarded step / dist warns on a leg of length 0
            for t in times:
                xy = field.positions_at(t)
                arrivals += oracle_positions_at(walk, t - prev, arena, v_max, rng)
                prev = t
                assert xy.tobytes() == walk[0].tobytes()
                assert field.waypoints.tobytes() == walk[1].tobytes()
                assert field.speeds.tobytes() == walk[2].tobytes()
        assert arrivals >= min_arrivals
        assert field.rng.bit_generator.state == rng.bit_generator.state

    def test_walk_matches_oracle_bit_for_bit(self):
        # steps of tens of seconds at up to 20 m/s: most nodes finish one or more legs per step
        field = MobilityField(derive_rng(5, 0).uniform(0.0, 400.0, size=(200, 2)), (400.0, 400.0), 20.0,
                              derive_rng(5, 1))
        self.check_against_oracle(field, (0.5, 7.5, 37.5, 67.5, 162.5, 162.501, 412.501, 425.0), 501)

    def test_walk_matches_oracle_at_route_ticks(self):
        # a mobile route's ticks, 1 to 10 slots of 100 us, over 400 IUs at up to 20 m/s: no drawn leg ends.
        # Row 0 has speed 0, row 1 sits on its waypoint and row 2 both, so every tick divides 0 by a
        # distance and meets a leg of length 0: row 2 arrives at every tick, row 1 once
        field = MobilityField(derive_rng(6, 0).uniform(0.0, 400.0, size=(400, 2)), (400.0, 400.0), 20.0,
                              derive_rng(6, 1))
        field.speeds[[0, 2]] = 0.0
        field.xy[[1, 2]] = field.waypoints[[1, 2]]
        slots = np.cumsum(derive_rng(6, 2).integers(1, 11, size=100))
        self.check_against_oracle(field, (slots * 1e-4).tolist(), 101)

    def test_returns_the_walks_own_array(self):
        field = MobilityField(np.array([[10.0, 10.0], [20.0, 20.0]]), (400.0, 400.0), 20.0, derive_rng(4, 1))
        xy = field.positions_at(1.0)
        assert xy is field.xy
        before = xy.copy()
        assert field.positions_at(2.0) is xy and not np.array_equal(xy, before)  # moved in place

    def test_clock_cannot_rewind(self):
        field = MobilityField(np.array([[0.0, 0.0]]), (400.0, 400.0), 5.0, derive_rng(3, 1))
        field.positions_at(1.0)
        with pytest.raises(ValueError):
            field.positions_at(0.5)


class TestDurationQuantiles:
    def test_crn_monotone_and_unbiased(self):
        rng = derive_rng(4, 0)
        scales = np.array([10.0, 20.0, 40.0])
        out = estimate_duration_quantiles(scales, (0.1, 0.3), 40000, 10, rng)
        for di, delta in enumerate((0.1, 0.3)):
            means = [out[(si, di)][0] for si in range(3)]
            assert means[0] < means[1] < means[2]
            for si, scale in enumerate(scales):
                analytic = scale * math.log(1 / (1 - delta))
                mean, se = out[(si, di)]
                assert abs(mean - analytic) < 4 * se + 1e-9


class TestSweeps:
    def small_plan(self, kind="coverage_sweep", threads=1):
        """Only the grids ``kind`` runs: comparison runs at the config's iu_count, mobility at r=50."""
        grids = {"coverage_grid": (50.0, 70.0), "density_grid": (120,)}
        if kind == "comparison":
            grids = {"coverage_grid": (50.0, 70.0)}
        elif kind == "mobility":
            grids = {"coverage_grid": (50.0,)}
        return ExperimentPlan(kind=kind, seed=3, replications=8, threads=threads, **grids)

    def test_outputs_and_schema(self, tmp_path):
        res = run(self.small_plan(), SimConfig(), tmp_path)
        detail = read_csv(tmp_path / "coverage_detail.csv")
        summary = read_csv(tmp_path / "coverage_summary.csv")
        assert len(detail) == 16
        assert len(summary) == 2
        assert set(detail[0]) == set(experiments.DETAIL_COLUMNS)
        assert res.attempted == 16
        assert (tmp_path / "manifest_coverage_sweep.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        run(self.small_plan(), SimConfig(), tmp_path / "a")
        run(self.small_plan(), SimConfig(), tmp_path / "b")
        for name in ("coverage_detail.csv", "coverage_summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["coverage_sweep", "density_sweep", "comparison", "mobility"])
    def test_threads_do_not_change_bytes(self, tmp_path, kind):
        cfg = SimConfig(iu_count=120)
        serial = run(self.small_plan(kind), cfg, tmp_path / "serial")
        run(self.small_plan(kind, threads=2), cfg, tmp_path / "pooled")
        names = [p.name for p in serial.files if p.suffix == ".csv"]
        assert len(names) == 2
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pooled" / name).read_bytes()

    @pytest.mark.parametrize("threads", [3, 10_000])
    def test_pool_never_outnumbers_cells(self, tmp_path, monkeypatch, threads):
        # a fork-started pool forks every worker at its first submit, so no real pool this large is started
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        plan = ExperimentPlan(kind="coverage_sweep", seed=3, replications=1, threads=threads,
                              coverage_grid=(50.0, 70.0), density_grid=(20, 40))  # 4 cells
        run(plan, SimConfig(), tmp_path)
        assert seen == [min(threads, 4)]

    def test_standard_error_shrinks_with_replications(self, tmp_path):
        plan_small = ExperimentPlan(kind="coverage_sweep", seed=5, replications=60,
                                    coverage_grid=(60.0,), density_grid=(400,))
        plan_big = ExperimentPlan(kind="coverage_sweep", seed=5, replications=240,
                                  coverage_grid=(60.0,), density_grid=(400,))
        run(plan_small, SimConfig(), tmp_path / "s")
        run(plan_big, SimConfig(), tmp_path / "b")
        se_s = float(read_csv(tmp_path / "s" / "coverage_summary.csv")[0]["dt_se"])
        se_b = float(read_csv(tmp_path / "b" / "coverage_summary.csv")[0]["dt_se"])
        ratio = se_s / se_b
        assert 1.3 < ratio < 3.1  # expect ~2 = sqrt(4)

    def test_manifest_roundtrip_reproduces(self, tmp_path):
        cfg = SimConfig(delta=0.2, packets=3)
        run(self.small_plan(), cfg, tmp_path / "first")
        cfg2 = load_config(tmp_path / "first" / "manifest_coverage_sweep.json")
        assert cfg2 == cfg.with_overrides(source_xy=experiments.SWEEP_SOURCE, dest_xy=experiments.SWEEP_DEST)
        run(self.small_plan(), cfg2, tmp_path / "second")
        assert (tmp_path / "first" / "coverage_detail.csv").read_bytes() == \
               (tmp_path / "second" / "coverage_detail.csv").read_bytes()


class TestManifest:
    @pytest.mark.parametrize("kind", ["trajectory", "coverage_sweep", "traffic_validation"])
    def test_records_the_stream_version(self, kind, tmp_path):
        sizes = {"coverage_sweep": {"replications": 1, "coverage_grid": (60.0,), "density_grid": (50,)},
                 "trajectory": {"replications": 1}, "traffic_validation": {"chains": 200, "batches": 2}}[kind]
        plan = ExperimentPlan(kind=kind, seed=3, **sizes)
        run(plan, SimConfig(iu_count=50), tmp_path)
        payload = json.loads((tmp_path / f"manifest_{kind}.json").read_text())
        assert payload["stream_version"] == experiments.STREAM_VERSION == 3

    @pytest.mark.parametrize("kind", ["comparison", "mobility"])
    def test_grid_kinds_record_the_endpoints_they_ran(self, kind, tmp_path):
        # the grid kinds pin SWEEP_SOURCE and SWEEP_DEST whatever the config says; so does the manifest
        cfg = SimConfig(iu_count=50, source_xy=(50.0, 350.0), dest_xy=(350.0, 50.0))
        plan = ExperimentPlan(kind=kind, seed=3, replications=1, coverage_grid=(60.0,),
                              **({"variants": ("full",)} if kind == "comparison" else {"vmax_grid": (0.0,)}))
        run(plan, cfg, tmp_path)
        recorded = json.loads((tmp_path / f"manifest_{kind}.json").read_text())["config"]
        assert (tuple(recorded["source_xy"]), tuple(recorded["dest_xy"])) == \
            (experiments.SWEEP_SOURCE, experiments.SWEEP_DEST)
        run(plan, SimConfig(iu_count=50), tmp_path / "default")
        detail = f"{kind}_detail.csv"
        assert (tmp_path / detail).read_bytes() == (tmp_path / "default" / detail).read_bytes()

    def test_trajectory_records_its_own_endpoints(self, tmp_path):
        cfg = SimConfig(iu_count=50, source_xy=(50.0, 350.0), dest_xy=(350.0, 50.0))
        run(ExperimentPlan(kind="trajectory", seed=3, replications=1), cfg, tmp_path)
        assert load_config(tmp_path / "manifest_trajectory.json") == cfg


class TestTrafficValidation:
    def test_csv_schema_and_band(self, tmp_path):
        plan = ExperimentPlan(kind="traffic_validation", seed=1, chains=30000, batches=10)
        run(plan, SimConfig(), tmp_path)
        for name in ("nu_b.csv", "nu_i.csv"):
            rows = read_csv(tmp_path / name)
            assert list(rows[0]) == ["xi", "delta", "analytic", "mc_mean", "mc_se"]
            assert len(rows) == 8 * 3
            for row in rows:
                a, m, se = float(row["analytic"]), float(row["mc_mean"]), float(row["mc_se"])
                assert abs(a - m) <= 4 * se + 1e-9

    def test_analytic_monotone_in_duty_cycle(self, tmp_path):
        plan = ExperimentPlan(kind="traffic_validation", seed=2, chains=5000, batches=5)
        run(plan, SimConfig(), tmp_path)
        nub = read_csv(tmp_path / "nu_b.csv")
        nui = read_csv(tmp_path / "nu_i.csv")
        for delta in ("0.1", "0.2", "0.3"):
            b = [float(r["analytic"]) for r in nub if r["delta"] == delta]
            i = [float(r["analytic"]) for r in nui if r["delta"] == delta]
            assert all(x < y for x, y in zip(b, b[1:]))
            assert all(x > y for x, y in zip(i, i[1:]))


    def test_analytic_column_is_the_estimator(self, tmp_path, monkeypatch):
        plan = ExperimentPlan(kind="traffic_validation", seed=3, chains=2000, batches=4)
        cfg = SimConfig()
        run(plan, cfg, tmp_path / "a")
        for name, mean in (
            ("nu_b", lambda xi: xi * cfg.lambda_off_ms * 1e-3 / (1.0 - xi)),
            ("nu_i", lambda xi: cfg.mu_on_ms * 1e-3 * (1.0 - xi) / xi),
        ):
            for row in read_csv(tmp_path / "a" / f"{name}.csv"):
                expected = traffic.duration_estimate(mean(float(row["xi"])), cfg.slot_s, float(row["delta"]))
                assert float(row["analytic"]) == expected
        # the column follows the estimator, not a copy of its formula
        monkeypatch.setattr(traffic, "duration_estimate", lambda *args: -1.0)
        run(plan, cfg, tmp_path / "b")
        for name in ("nu_b", "nu_i"):
            assert {r["analytic"] for r in read_csv(tmp_path / "b" / f"{name}.csv")} == {"-1.0"}


class TestComparison:
    def test_shannon_dominates_finite_blocklength(self, tmp_path):
        plan = ExperimentPlan(kind="comparison", seed=4, replications=30,
                              coverage_grid=(40.0, 60.0), variants=("full", "shannon", "fixed_mod"))
        run(plan, SimConfig(), tmp_path)
        summary = read_csv(tmp_path / "comparison_summary.csv")
        by_point = {}
        for row in summary:
            by_point.setdefault(row["coverage_m"], {})[row["variant"]] = float(row["dt_mean"])
        for point, variants in by_point.items():
            assert variants["shannon"] >= variants["full"] - 1e-12
            assert variants["full"] >= variants["fixed_mod"]


class TestMobilityExperiment:
    def test_zero_vmax_matches_static_exactly(self, tmp_path):
        plan = ExperimentPlan(kind="mobility", seed=6, replications=12, vmax_grid=(0.0, 10.0))
        run(plan, SimConfig(), tmp_path)
        detail = read_csv(tmp_path / "mobility_detail.csv")
        v0 = [r for r in detail if r["variant"] == "v0"]
        cfg = SimConfig().with_overrides(coverage_m=50.0,
                                         source_xy=experiments.SWEEP_SOURCE,
                                         dest_xy=experiments.SWEEP_DEST)
        from risroute.metrics import compute_route_metrics
        for rep, row in enumerate(v0):
            rng = derive_rng(6, rep, 0)
            led = run_one_route(cfg, rng)
            if led.success:
                assert float(row["D_T"]) == compute_route_metrics(led, cfg)["D_T"]
            else:
                assert float(row["D_T"]) == 0.0


class TestRunOneRoute:
    def test_variant_dispatch(self):
        cfg = SimConfig(iu_count=80).with_overrides(source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        led = run_one_route(cfg, derive_rng(9, 0), router.BASELINE_POLICIES["full"])
        assert led.psi == 6 and led == run_one_route(cfg, derive_rng(9, 0))


class TestPerConfigConstants:
    """The chain law, the RIS grid and the mode table are computed once per config
    and shared read-only; each route keeps only its own chain states."""

    def test_shared_arrays_are_read_only(self):
        cfg = SimConfig(iu_count=30)
        law = experiments._profiles_for(cfg)
        assert experiments._profiles_for(cfg.with_overrides(coverage_m=90.0)) is law  # not a traffic key
        for name, array in law._asdict().items():
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable, name
        grid = topology.ris_grid_positions((400.0, 400.0), 30.0)
        assert topology.ris_grid_positions((400.0, 400.0), 30.0) is grid and not grid.flags.writeable
        with pytest.raises(ValueError):
            law.nu_idle[0] = 0.0
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0
        assert linkbudget.build_mode_table(1e-6, "eqtext") is linkbudget.build_mode_table(1e-6, "eqtext")

    def test_per_iu_lists_key_the_law(self):
        cfg = SimConfig(iu_count=3, lambda_off_ms=(1.0, 2.0, 3.0))
        law = experiments._profiles_for(cfg)
        assert experiments._profiles_for(SimConfig(iu_count=3, lambda_off_ms=(1.0, 2.0, 3.0))) is law
        other = experiments._profiles_for(cfg.with_overrides(lambda_off_ms=(1.0, 2.0, 4.0)))
        assert law.p01[:2].tolist() == other.p01[:2].tolist() and law.p01[2] != other.p01[2]

    def test_fields_of_one_law_evolve_independently(self):
        law = experiments._profiles_for(SimConfig(iu_count=200))
        before = law.pi.copy()
        a = traffic.TrafficField(law, np.random.default_rng(1))
        b = traffic.TrafficField(law, np.random.default_rng(1))
        assert np.array_equal(a.state, b.state)
        b_state, b_updated = b.state.copy(), b.updated_at.copy()
        a.states_at(50, np.arange(200), np.random.default_rng(2))
        assert np.array_equal(b.state, b_state) and np.array_equal(b.updated_at, b_updated)
        assert (a.updated_at == 50).all() and not np.array_equal(a.state, b.state)
        assert np.array_equal(law.pi, before)

    def test_cell_computes_the_law_once(self, monkeypatch):
        real, calls = traffic.switch_probability, []
        monkeypatch.setattr(traffic, "switch_probability", lambda *a: calls.append(a) or real(*a))
        cfg = SimConfig(iu_count=50, lambda_off_ms=3.25)  # a traffic key no other test uses
        experiments._chain_law.cache_clear()
        experiments._profiles_for(cfg)
        per_law = len(calls)
        assert per_law > 0
        experiments._chain_law.cache_clear()
        calls.clear()
        cell = experiments.Cell("c", "full", router.RoutePolicy(), cfg, 0)
        (rows,) = experiments._run_cells((cell,), seed=3, replications=3)
        assert len(rows) == 3 and len(calls) == per_law


class TestSharedReplication:
    """Comparison replications route their variants together (``experiments.Replication``). The
    oracle routes each cell's replication alone on its own stream, ``run_one_route(cfg,
    derive_rng(seed, ci, rep), policy)``, as every comparison did before: each ledger must equal
    the oracle's, stage reached included, and the detail CSV must keep its bytes."""

    def check(self, plan, cfg, out, monkeypatch):
        """Run ``plan`` and compare it with the oracle; returns, per stage a pair of policies first
        differs at, how often a later variant reused the earlier one's ledger (fired) and how often
        the earlier route reached that stage (declined)."""
        calls = []  # (shared replication, policy, ledger) of every comparison route, in routing order
        real = experiments.run_one_route

        def recorded(cfg, rng, policy=router.RoutePolicy(), mobility_rng=None, v_max=0.0, shared=None):
            ledger = real(cfg, rng, policy, mobility_rng, v_max, shared)
            calls.append((shared, policy, ledger))
            return ledger

        monkeypatch.setattr(experiments, "run_one_route", recorded)
        run(plan, cfg, out)
        monkeypatch.setattr(experiments, "run_one_route", real)

        groups = experiments._grid_cells(plan, cfg.with_overrides(source_xy=experiments.SWEEP_SOURCE,
                                                                  dest_xy=experiments.SWEEP_DEST))
        n = len(plan.variants)  # one group per coverage, its variants in plan order
        assert [len(group) for group in groups] == [n] * len(plan.resolved_coverage_grid())
        assert all(cell.policy == router.BASELINE_POLICIES[v] and cell.stream == ci
                   for ci, group in enumerate(groups) for cell, v in zip(group, plan.variants))
        cells = [cell for group in groups for cell in group]
        oracle = {(i, rep): run_one_route(cell.cfg, derive_rng(plan.seed, cell.stream, rep), cell.policy)
                  for i, cell in enumerate(cells) for rep in range(plan.replications)}
        # cells i*n to i*n + n - 1 share coverage i and route together, rep by rep
        routing_order = [(ci * n + v, rep) for ci in range(len(groups))
                         for rep in range(plan.replications) for v in range(n)]
        assert [ledger for _, _, ledger in calls] == [oracle[key] for key in routing_order]
        rows = [experiments._detail_row(cell, plan.seed, oracle[i, rep])
                for i, cell in enumerate(cells) for rep in range(plan.replications)]
        experiments.write_csv(out / "oracle.csv", experiments.DETAIL_COLUMNS, rows)
        assert (out / "comparison_detail.csv").read_bytes() == (out / "oracle.csv").read_bytes()

        fired, declined = Counter(), Counter()
        for i, (shared, policy, ledger) in enumerate(calls):
            earlier = [(p, led) for s, p, led in calls[:i] if s is shared]
            reused = any(led is ledger for _, led in earlier)
            for earlier_policy, earlier_ledger in earlier:
                stage = earlier_policy.first_difference(policy)
                if stage in (None, "relay"):
                    continue
                reached = router.STAGES.index(earlier_ledger.stage_reached) >= router.STAGES.index(stage)
                if earlier_ledger is ledger:
                    assert not reached
                    fired[stage] += 1
                elif reached:
                    declined[stage] += 1
                else:  # the rule allowed reuse: the first route it allowed was reused
                    assert reused
        return fired, declined

    def test_rows_equal_per_variant_routes(self, tmp_path, monkeypatch):
        default = ExperimentPlan(kind="comparison").variants
        fired, declined = Counter(), Counter()
        # the default order, then the reverse, in which full reuses what the baselines routed
        for seed, variants in ((3, default), (4, default), (5, default[::-1])):
            for density in (100, 400):
                plan = ExperimentPlan(kind="comparison", seed=seed, replications=3, coverage_grid=(30.0, 60.0, 90.0),
                                      variants=variants)
                f, d = self.check(plan, SimConfig(iu_count=density), tmp_path / f"{seed}-{density}", monkeypatch)
                fired += f
                declined += d
        # e.g. shannon and double_ris from full (reflector stage), single_ris from full (double stage)
        assert min(fired["reflector"], declined["reflector"], fired["double"], declined["double"]) >= 1

    def test_rows_equal_per_variant_routes_with_per_iu_traffic(self, tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cli_hashes.CONFIG))
        plan = ExperimentPlan(kind="comparison", seed=7, replications=2)
        self.check(plan, load_config(path), tmp_path / "out", monkeypatch)

    def test_each_variant_starts_after_the_one_topology_draw(self, monkeypatch):
        draws = []
        real = topology.generate_topology
        monkeypatch.setattr(topology, "generate_topology", lambda cfg, rng: draws.append(1) or real(cfg, rng))
        # none of the three can reuse another's ledger here: each routes on the one topology
        cfg = SimConfig(coverage_m=30.0, iu_count=400, source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        policies = [router.BASELINE_POLICIES[v] for v in ("full", "fixed_mod", "double_ris")]
        shared, rng = experiments.Replication(), derive_rng(1, 0, 0)
        ledgers = [run_one_route(cfg, rng, policy, shared=shared) for policy in policies]
        assert len(draws) == 1 and len(shared.routed) == 3 and shared.topo._scans
        assert all(ledger.hop_count for ledger in ledgers)
        for policy, ledger in zip(policies, ledgers):
            assert ledger == run_one_route(cfg, derive_rng(1, 0, 0), policy)

    def test_moving_ius_refuse_a_shared_replication(self):
        cfg = SimConfig(iu_count=50)
        with pytest.raises(ValueError, match="static"):
            run_one_route(cfg, derive_rng(1, 0), mobility_rng=derive_rng(1, 1), v_max=5.0,
                          shared=experiments.Replication())
