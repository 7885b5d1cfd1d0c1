import concurrent.futures
import copy
import csv
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from test_cli_hashes import cli_hashes

from risroute import __version__, experiments, linkbudget, router, topology, traffic
from risroute.config import ConfigError, SimConfig, load_config
from risroute.experiments import (
    ExperimentPlan,
    MobilityField,
    Replication,
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

    def test_families_never_share_a_stream(self, monkeypatch):
        keys = []  # every key ``_stream`` derives
        real = experiments.derive_rng
        monkeypatch.setattr(experiments, "derive_rng", lambda seed, *key: keys.append(key) or real(seed, *key))
        points = [f"r{c:g}-m{d}" for c in (30.0, 45.0, 60.0) for d in (100, 400, 900)]
        draws = {(family, point, rep): tuple(experiments._stream(21, family, rep, point).random(2))
                 for family, scenarios in (("grid", points), ("walk", points), ("trajectory", [""]), ("traffic", [""]))
                 for point in scenarios for rep in range(6)}
        assert len(set(draws.values())) == len(draws) == len(keys) == len(set(keys))
        # SeedSequence pads a short key with zeros, so a key ending in zero draws the stream of the key
        # without it: when traffic validation was keyed (seed, 0) and a grid cell (seed, cell, rep), the
        # traffic stream was cell 0's rep-0 stream. Every key now ends in its text's length.
        assert derive_rng(21, 0).random() == derive_rng(21, 0, 0).random()
        assert all(key[-1] > 0 for key in keys)


def rows_by_point(path: Path, variant: str) -> dict[tuple[str, str], list[dict]]:
    """The detail rows of ``variant`` by (coverage, density), without the columns that name the cell."""
    out = {}
    for row in read_csv(path):
        if row["variant"] == variant:
            rest = {k: v for k, v in row.items() if k not in ("scenario_id", "variant")}
            out.setdefault((row["coverage_m"], row["density"]), []).append(rest)
    return out


class TestPointStreams:
    """A grid point draws the streams of what it is, its coverage and density, so it gives the same
    rows in any plan and any grid kind that holds it."""

    SEED, REPS = 11, 2

    @pytest.fixture(scope="class")
    def default_grids(self, tmp_path_factory):
        """Each grid kind's rows on its default grid, for ``full`` (``v0`` for mobility)."""
        out = {}
        for kind, stem, variant in (("coverage_sweep", "coverage", "full"), ("density_sweep", "density", "full"),
                                    ("comparison", "comparison", "full"), ("mobility", "mobility", "v0")):
            path = tmp_path_factory.mktemp(kind)
            run(ExperimentPlan(kind=kind, seed=self.SEED, replications=self.REPS), SimConfig(), path)
            out[kind] = rows_by_point(path / f"{stem}_detail.csv", variant)
        return out

    def test_a_one_point_plan_repeats_its_row_in_the_grid(self, default_grids, tmp_path):
        plan = ExperimentPlan(kind="density_sweep", seed=self.SEED, replications=self.REPS,
                              coverage_grid=(45.0,), density_grid=(200,))
        run(plan, SimConfig(), tmp_path)
        alone = rows_by_point(tmp_path / "density_detail.csv", "full")
        assert list(alone) == [("45.0", "200")]
        assert alone[("45.0", "200")] == default_grids["density_sweep"][("45.0", "200")]

    def test_both_sweeps_agree_where_their_grids_meet(self, default_grids):
        coverage, density = default_grids["coverage_sweep"], default_grids["density_sweep"]
        shared = sorted(set(coverage) & set(density))
        assert shared == [(c, d) for c in ("30.0", "60.0") for d in ("100", "400", "900")]
        assert all(coverage[point] == density[point] for point in shared)

    def test_comparison_full_is_the_sweep_at_400_ius(self, default_grids):
        comparison, coverage = default_grids["comparison"], default_grids["coverage_sweep"]
        assert len(comparison) == 7 and all(d == "400" for _, d in comparison)
        assert all(rows == coverage[point] for point, rows in comparison.items())

    def test_static_mobility_is_the_sweep_at_its_point(self, default_grids):
        assert list(default_grids["mobility"]) == [("50.0", "400")]
        assert default_grids["mobility"][("50.0", "400")] == default_grids["coverage_sweep"][("50.0", "400")]


class TestPlanValidation:
    @pytest.mark.parametrize("bad", [
        {"threads": 0}, {"threads": -2}, {"replications": 0}, {"coverage_grid": ()}, {"variants": ()},
        # an empty grid given as a list
        {"coverage_grid": []}, {"variants": []}, {"kind": "mobility", "vmax_grid": []},
        # a grid value outside its interval: a negative or NaN speed, a coverage of 0, inf or NaN, a negative count
        {"kind": "mobility", "vmax_grid": (-1.0,)}, {"kind": "mobility", "vmax_grid": (5.0, math.nan)},
        {"coverage_grid": (0.0,)}, {"coverage_grid": (60.0, math.inf)}, {"coverage_grid": (math.nan,)},
        {"kind": "density_sweep", "density_grid": (100, -1)},
        {"kind": "bogus"},
        # a grid the kind would ignore
        {"kind": "mobility", "coverage_grid": (30.0, 60.0)}, {"density_grid": (100,)},
        {"kind": "mobility", "density_grid": (100,)}, {"kind": "trajectory", "density_grid": (100,)},
        {"kind": "traffic_validation", "density_grid": (100,)}, {"kind": "trajectory", "coverage_grid": (60.0,)},
        {"kind": "traffic_validation", "coverage_grid": (60.0,)},
        # a plan field only another kind reads
        {"kind": "coverage_sweep", "variants": ("shannon",)}, {"kind": "mobility", "variants": ("full",)},
        {"vmax_grid": (0.0,)}, {"kind": "density_sweep", "vmax_grid": (0.0, 5.0)},
        {"kind": "trajectory", "variants": ("shannon",)}, {"kind": "trajectory", "vmax_grid": (5.0,)},
        {"kind": "coverage_sweep", "vmax_grid": (5.0,)}, {"kind": "mobility", "variants": ("shannon",)},
        {"kind": "traffic_validation", "variants": ("shannon",)}, {"kind": "traffic_validation", "vmax_grid": (0.0,)},
        # a plan field the kind ignores: traffic validation reads none but the seed
        {"kind": "traffic_validation", "replications": 3},
        # a seed outside its interval, on the kind that reads no other field
        {"kind": "traffic_validation", "seed": -1},
        # threads, on a kind that reads none
        {"kind": "trajectory", "threads": 2}, {"kind": "traffic_validation", "threads": 2},
        # two cells under one scenario id: a repeated value, or two that print alike
        {"variants": ("full", "full")}, {"kind": "mobility", "vmax_grid": (5.0, 5.0)},
        {"coverage_grid": (30.0, 30.0000001)}, {"kind": "density_sweep", "density_grid": (100, 100)},
        # an integer field given a bool or a non-integral value
        {"replications": 1.5}, {"threads": True}, {"seed": 2.5}, {"seed": -1}, {"kind": "density_sweep", "density_grid": (50.5,)},
        {"kind": "density_sweep", "density_grid": (True,)}, {"threads": 2.5},
        # a bool speed, and a numpy NaN speed
        {"kind": "mobility", "vmax_grid": (0.0, True)}, {"kind": "mobility", "vmax_grid": (np.float32("nan"),)},
        # a grid given a number or a text: a bare TypeError, and a text split into its letters
        {"kind": "mobility", "vmax_grid": 5.0}, {"coverage_grid": 30.0}, {"variants": "full"},
        {"kind": "density_sweep", "density_grid": "100"},
    ])
    def test_rejected_as_config_error(self, bad):
        with pytest.raises(ConfigError):
            ExperimentPlan(**{"kind": "comparison", **bad})

    @pytest.mark.parametrize("key,value", [("vmax_grid", 5.0), ("variants", "full"), ("density_grid", "100")])
    def test_a_grid_that_is_no_list_names_its_value(self, key, value):
        kind = {"vmax_grid": "mobility", "variants": "comparison", "density_grid": "density_sweep"}[key]
        with pytest.raises(ConfigError, match=f"^{key} must be a list of values, got {value!r}$"):
            ExperimentPlan(kind=kind, **{key: value})

    def test_numpy_integers_are_recorded_as_int(self, tmp_path):
        plan = ExperimentPlan(kind="density_sweep", replications=np.int64(2), density_grid=(np.int64(100),))
        path = experiments.write_manifest(tmp_path, plan, SimConfig(iu_count=np.int64(100)))
        payload = json.loads(path.read_text())
        assert (payload["plan"]["replications"], payload["plan"]["density_grid"]) == (2, [100])

    def test_numpy_floats_are_recorded_as_float(self, tmp_path):
        # a numpy float in a grid failed in json.dumps once the manifest was written
        plan = ExperimentPlan(kind="mobility", vmax_grid=(np.float32(0.0), np.float64(2.5), 5))
        assert plan.vmax_grid == (0.0, 2.5, 5.0) and {type(v) for v in plan.vmax_grid} == {float}
        path = experiments.write_manifest(tmp_path, plan, SimConfig())
        assert json.loads(path.read_text())["plan"]["vmax_grid"] == [0.0, 2.5, 5.0]

    @pytest.mark.parametrize("kind", sorted(experiments.KINDS))
    def test_every_field_the_kind_does_not_read_is_refused(self, kind):
        # a valid non-default value of every plan field but kind and seed
        changed = {"replications": 3, "coverage_grid": (60.0,), "density_grid": (100,), "vmax_grid": (0.0,),
                   "variants": ("shannon",), "threads": 2}
        assert set(changed) == {f.name for f in fields(ExperimentPlan)} - {"kind", "seed"}
        reads = experiments.KINDS[kind].reads
        assert ExperimentPlan(kind=kind, **{name: changed[name] for name in reads})
        for name in changed.keys() - reads:
            with pytest.raises(ConfigError, match=f"{kind} takes no {name}"):
                ExperimentPlan(kind=kind, **{name: changed[name]})

    @pytest.mark.parametrize("kind,given,count", [
        ("coverage_sweep", {"coverage_grid": (30.0, 30.5, 31), "density_grid": (100, 101)}, 6),
        ("density_sweep", {"coverage_grid": (30.0, 30.5), "density_grid": (100, 101, 102)}, 6),
        ("comparison", {"coverage_grid": (30.0, 30.5, 31), "variants": ("full", "shannon")}, 6),
        ("mobility", {"vmax_grid": (0.0, 0.5, 5)}, 3),
    ])
    def test_grid_values_that_print_near_alike_name_distinct_cells(self, kind, given, count):
        ids = [cell.scenario_id for group in experiments._grid_cells(ExperimentPlan(kind=kind, **given))
               for cell in group]
        assert len(set(ids)) == len(ids) == count

    @pytest.mark.parametrize("bad", [
        {"kind": "comparison", "variants": ("full", "fixed-mod"), "coverage_grid": (60.0,)},
        {"kind": "coverage_sweep", "coverage_grid": (-5.0,)},
        {"kind": "mobility", "vmax_grid": (0.0, -5.0)},
        {"kind": "mobility", "vmax_grid": (math.nan,)},
        {"kind": "mobility", "vmax_grid": (5.0, math.inf)},
        {"kind": "comparison", "coverage_grid": []},
        {"kind": "comparison", "variants": []},
        {"kind": "mobility", "vmax_grid": []},
        {"kind": "coverage_sweep", "coverage_grid": (60.0, 1.0)},
        {"kind": "comparison", "coverage_grid": (60.0, math.nan)},
        {"kind": "density_sweep", "density_grid": (100, -1)},
        {"kind": "traffic_validation", "replications": 2},
    ])
    def test_refused_before_any_route_runs(self, bad, tmp_path, monkeypatch):
        # unchecked, an unknown variant fails as a bare KeyError once the manifest is written,
        # and a negative or NaN speed runs static routes; a grid point's config (a 0.5 m reflector
        # grid at r = 1 m) is refused before the manifest is written. An empty grid given as a list
        # fails as an IndexError once the manifest is written
        routed = []
        monkeypatch.setattr(experiments, "run_one_route", lambda *args, **kwargs: routed.append(args))
        given = {"seed": 1, **bad}
        if "replications" in experiments.KINDS[bad["kind"]].reads:  # traffic validation takes none
            given["replications"] = 1
        with pytest.raises(ConfigError):
            run(ExperimentPlan(**given), SimConfig(), tmp_path)
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
        wp = (rng.uniform(0.0, arena), rng.uniform(0.0, arena))
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
    arena = 400.0

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
        field = MobilityField(xy, 400.0, 0.0, derive_rng(1, 1))
        assert np.array_equal(field.positions_at(0.05), xy)

    def test_displacement_scales_linearly_with_vmax(self):
        xy = np.tile(np.array([[200.0, 200.0]]), (5, 1))
        f1 = MobilityField(xy, 400.0, 5.0, derive_rng(2, 1))
        f2 = MobilityField(xy, 400.0, 10.0, derive_rng(2, 1))
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
        field = MobilityField(derive_rng(5, 0).uniform(0.0, 400.0, size=(200, 2)), 400.0, 20.0,
                              derive_rng(5, 1))
        self.check_against_oracle(field, (0.5, 7.5, 37.5, 67.5, 162.5, 162.501, 412.501, 425.0), 501)

    def test_walk_matches_oracle_at_route_ticks(self):
        # a mobile route's ticks, 1 to 10 slots of 100 us, over 400 IUs at up to 20 m/s: no drawn leg ends.
        # Row 0 has speed 0, row 1 sits on its waypoint and row 2 both, so every tick divides 0 by a
        # distance and meets a leg of length 0: row 2 arrives at every tick, row 1 once
        field = MobilityField(derive_rng(6, 0).uniform(0.0, 400.0, size=(400, 2)), 400.0, 20.0,
                              derive_rng(6, 1))
        field.speeds[[0, 2]] = 0.0
        field.xy[[1, 2]] = field.waypoints[[1, 2]]
        slots = np.cumsum(derive_rng(6, 2).integers(1, 11, size=100))
        self.check_against_oracle(field, (slots * 1e-4).tolist(), 101)

    @staticmethod
    def masked_pass(walk, dt):
        """Oracle: the array pass of a tick as one masked divide, which moves every row by
        ``delta * (step / dist)`` and an arriving row by ±0; returns the arriving rows."""
        xy, waypoints, speeds = walk
        delta = waypoints - xy
        dist = np.hypot(delta[:, 0], delta[:, 1])
        step = speeds * dt
        arriving = step >= dist
        xy += delta * np.divide(step, dist, out=np.zeros_like(step), where=~arriving)[:, None]
        return arriving

    def test_a_tick_without_arrivals_is_the_masked_pass(self):
        """Over random fields and ticks, a tick in which no row arrives leaves every row with the bits
        of the masked pass and draws nothing, and a tick with arrivals leaves every other row so. Row 0
        starts on its waypoint, so its first tick is one with arrivals."""
        quiet = busy = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an unmasked 0 / 0 warns
            for seed, (m, v_max) in enumerate(((1, 20.0), (50, 5.0), (400, 20.0), (400, 0.5))):
                field = MobilityField(derive_rng(7, seed).uniform(0.0, 400.0, size=(m, 2)), 400.0, v_max,
                                      derive_rng(8, seed))
                field.xy[0] = field.waypoints[0]
                # route ticks of 1 to 10 slots, and every tenth tick 1 to 60 s, long enough for arrivals
                ticks = derive_rng(9, seed).integers(1, 11, size=60) * 1e-4
                ticks[9::10] = derive_rng(10, seed).uniform(1.0, 60.0, size=6)
                for t in np.cumsum(ticks).tolist():
                    walk = (field.xy.copy(), field.waypoints.copy(), field.speeds.copy())
                    state = field.rng.bit_generator.state
                    arriving = self.masked_pass(walk, t - field.t)
                    xy = field.positions_at(t)
                    assert xy[~arriving].tobytes() == walk[0][~arriving].tobytes()
                    if arriving.any():
                        busy += 1
                        continue
                    quiet += 1
                    assert xy.tobytes() == walk[0].tobytes() and field.rng.bit_generator.state == state
                    assert field.waypoints.tobytes() == walk[1].tobytes()
                    assert field.speeds.tobytes() == walk[2].tobytes()
        assert quiet >= 100 and busy >= 8

    def test_a_row_on_its_waypoint_takes_the_masked_pass(self):
        """A row at speed 0 on its waypoint arrives at every tick (a step of 0 covers a distance of 0),
        so no tick divides 0 by 0: the row keeps its bits, and every other row moves as in the masked
        pass."""
        field = MobilityField(derive_rng(11, 0).uniform(0.0, 400.0, size=(50, 2)), 400.0, 20.0, derive_rng(11, 1))
        field.xy[3], field.speeds[3] = field.waypoints[3], 0.0
        at = field.xy[3].tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e-4, 5e-4, 1.2e-3):
                walk = (field.xy.copy(), field.waypoints.copy(), field.speeds.copy())
                arriving = self.masked_pass(walk, t - field.t)
                assert np.flatnonzero(arriving).tolist() == [3]
                assert field.positions_at(t).tobytes() == walk[0].tobytes() and field.xy[3].tobytes() == at

    def test_returns_the_walks_own_array(self):
        field = MobilityField(np.array([[10.0, 10.0], [20.0, 20.0]]), 400.0, 20.0, derive_rng(4, 1))
        xy = field.positions_at(1.0)
        assert xy is field.xy
        before = xy.copy()
        assert field.positions_at(2.0) is xy and not np.array_equal(xy, before)  # moved in place

    def test_clock_cannot_rewind(self):
        field = MobilityField(np.array([[0.0, 0.0]]), 400.0, 5.0, derive_rng(3, 1))
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

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # imported by the pooled run
        plan = ExperimentPlan(kind="coverage_sweep", seed=3, replications=1, threads=threads,
                              coverage_grid=(50.0, 70.0), density_grid=(20, 40))  # 4 cells
        run(plan, SimConfig(), tmp_path)
        run(replace(plan, coverage_grid=(50.0,), density_grid=(20,)), SimConfig(), tmp_path / "one")
        assert seen == [min(threads, 4)]  # the one-cell plan runs serially: a lone worker is no parallelism

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
        assert cfg2 == replace(cfg, source_xy=experiments.SWEEP_SOURCE, dest_xy=experiments.SWEEP_DEST)
        run(self.small_plan(), cfg2, tmp_path / "second")
        assert (tmp_path / "first" / "coverage_detail.csv").read_bytes() == \
               (tmp_path / "second" / "coverage_detail.csv").read_bytes()


class TestManifest:
    @pytest.mark.parametrize("kind", ["trajectory", "coverage_sweep", "traffic_validation"])
    def test_records_the_stream_version(self, kind, tmp_path, monkeypatch):
        sizes = {"coverage_sweep": {"replications": 1, "coverage_grid": (60.0,), "density_grid": (50,)},
                 "trajectory": {"replications": 1}, "traffic_validation": {}}[kind]
        monkeypatch.setattr(experiments, "CHAINS", 200)
        monkeypatch.setattr(experiments, "BATCHES", 2)
        plan = ExperimentPlan(kind=kind, seed=3, **sizes)
        run(plan, SimConfig(iu_count=50), tmp_path)
        payload = json.loads((tmp_path / f"manifest_{kind}.json").read_text())
        assert payload["stream_version"] == experiments.STREAM_VERSION == 8

    def test_records_the_versions_that_ran(self, tmp_path):
        path = experiments.write_manifest(tmp_path, ExperimentPlan(kind="trajectory"), SimConfig())
        payload = json.loads(path.read_text())
        assert payload["schema"] == 2
        assert payload["versions"] == {"python": "{}.{}.{}".format(*sys.version_info), "numpy": np.__version__,
                                       "risroute": __version__}
        assert load_config(path) == SimConfig()  # a rerun from the manifest reads only its config

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
    @pytest.fixture
    def chains(self, monkeypatch):
        """Run the traffic validation at ``chains`` Exp(1) chains in ``batches`` batches."""
        def set_sizes(chains, batches):
            monkeypatch.setattr(experiments, "CHAINS", chains)
            monkeypatch.setattr(experiments, "BATCHES", batches)
        return set_sizes

    def test_csv_schema_and_band(self, tmp_path, chains):
        chains(30000, 10)
        plan = ExperimentPlan(kind="traffic_validation", seed=1)
        run(plan, SimConfig(), tmp_path)
        for name in ("nu_b.csv", "nu_i.csv"):
            rows = read_csv(tmp_path / name)
            assert list(rows[0]) == ["xi", "delta", "analytic", "mc_mean", "mc_se"]
            assert len(rows) == 8 * 3
            for row in rows:
                a, m, se = float(row["analytic"]), float(row["mc_mean"]), float(row["mc_se"])
                assert abs(a - m) <= 4 * se + 1e-9

    def test_analytic_monotone_in_duty_cycle(self, tmp_path, chains):
        chains(5000, 5)
        plan = ExperimentPlan(kind="traffic_validation", seed=2)
        run(plan, SimConfig(), tmp_path)
        nub = read_csv(tmp_path / "nu_b.csv")
        nui = read_csv(tmp_path / "nu_i.csv")
        for delta in ("0.1", "0.2", "0.3"):
            b = [float(r["analytic"]) for r in nub if r["delta"] == delta]
            i = [float(r["analytic"]) for r in nui if r["delta"] == delta]
            assert all(x < y for x, y in zip(b, b[1:]))
            assert all(x > y for x, y in zip(i, i[1:]))


    def test_analytic_column_is_the_estimator(self, tmp_path, monkeypatch, chains):
        chains(2000, 4)
        plan = ExperimentPlan(kind="traffic_validation", seed=3)
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

    def test_fixed_mod_never_relays_at_defaults(self, tmp_path, monkeypatch):
        # at the default traffic every IU's idle window (4.21 slots) lies below the 16 slots a 2-bit
        # transfer takes, so fixed_mod hops to an IU only by reflection; full relays (a recorded finding)
        cfg = SimConfig()
        floor = linkbudget.transfer_slots(cfg.total_bits, cfg.fixed_rate_bits)
        assert experiments._profiles_for(cfg).nu_idle.max() < floor == 16
        routed = {"full": [], "fixed_mod": []}  # the ledgers of each variant
        real = experiments.run_one_route

        def recorded(cfg, rng, policy=router.RoutePolicy(), *args, **kwargs):
            ledger = real(cfg, rng, policy, *args, **kwargs)
            for name in routed:
                if policy == router.BASELINE_POLICIES[name]:
                    routed[name].append(ledger)
            return ledger

        monkeypatch.setattr(experiments, "run_one_route", recorded)
        run(ExperimentPlan(kind="comparison", seed=11, replications=3), cfg, tmp_path)

        def relayed(name):  # direct hops into an IU
            return [hop for ledger in routed[name] for hop in ledger.hops
                    if len(hop.via) == 1 and hop.via[0] != topology.DEST_ID]

        assert len(routed["fixed_mod"]) == 21 and relayed("full") and not relayed("fixed_mod")


class TestMobilityExperiment:
    def test_zero_vmax_matches_static_exactly(self, tmp_path):
        plan = ExperimentPlan(kind="mobility", seed=6, replications=12, vmax_grid=(0.0, 10.0))
        run(plan, SimConfig(), tmp_path)
        detail = read_csv(tmp_path / "mobility_detail.csv")
        v0 = [r for r in detail if r["variant"] == "v0"]
        cfg = replace(SimConfig(), coverage_m=50.0,
                                         source_xy=experiments.SWEEP_SOURCE,
                                         dest_xy=experiments.SWEEP_DEST)
        from risroute.metrics import compute_route_metrics
        for rep, row in enumerate(v0):
            led = run_one_route(cfg, Replication(cfg, experiments._stream(6, "grid", rep, "r50-m400")))
            if led.success:
                assert float(row["D_T"]) == compute_route_metrics(led, cfg)["D_T"]
            else:
                assert float(row["D_T"]) == 0.0

    def test_every_speed_starts_from_the_replications_streams(self, tmp_path, monkeypatch):
        """Every speed routes on the replication's one topology, from the route stream's state just
        after drawing it; every moving speed walks from the walk stream's first state."""
        routes, walks = [], []  # (topology, route stream state) as each Router starts; walk states likewise
        real_router, real_field = router.Router.__init__, MobilityField.__init__

        def router_init(self, topo, law, cfg, rng, *args, **kwargs):
            routes.append((topo, rng.bit_generator.state))
            real_router(self, topo, law, cfg, rng, *args, **kwargs)

        def field_init(self, initial_xy, arena, v_max, rng):
            walks.append(rng.bit_generator.state)
            real_field(self, initial_xy, arena, v_max, rng)

        monkeypatch.setattr(router.Router, "__init__", router_init)
        monkeypatch.setattr(MobilityField, "__init__", field_init)
        # the static speed between the moving ones: it neither moves the walk nor leaves a state behind
        run(ExperimentPlan(kind="mobility", seed=6, replications=2, vmax_grid=(5.0, 0.0, 10.0)), SimConfig(), tmp_path)
        monkeypatch.undo()
        cfg = replace(SimConfig(), coverage_m=50.0, source_xy=experiments.SWEEP_SOURCE, dest_xy=experiments.SWEEP_DEST)
        assert len(routes) == 6 and len(walks) == 4
        for rep in range(2):
            rng = experiments._stream(6, "grid", rep, "r50-m400")
            topo = topology.generate_topology(cfg, rng)
            walk = experiments._stream(6, "walk", rep, "r50-m400").bit_generator.state
            shared = routes[3 * rep][0]
            assert shared.xy.tobytes() == topo.xy.tobytes()
            assert routes[3 * rep:3 * rep + 3] == [(shared, rng.bit_generator.state)] * 3
            assert walks[2 * rep:2 * rep + 2] == [walk] * 2
        assert routes[0] != routes[3] and walks[0] != walks[2]

    def test_ledgers_say_whether_their_ius_moved(self, tmp_path, monkeypatch):
        seen = []  # (v_max, ledger.mobile) of every route
        real = experiments.run_one_route

        def recorded(*args, v_max=0.0, **kwargs):
            ledger = real(*args, v_max=v_max, **kwargs)
            seen.append((v_max, ledger.mobile))
            return ledger

        monkeypatch.setattr(experiments, "run_one_route", recorded)
        run(ExperimentPlan(kind="mobility", seed=6, replications=3, vmax_grid=(0.0, 10.0)), SimConfig(), tmp_path)
        assert sorted(seen) == [(0.0, False)] * 3 + [(10.0, True)] * 3


    def test_each_speeds_rows_do_not_depend_on_the_other_speeds(self, tmp_path):
        """A speed's detail rows equal those of a plan that holds that speed alone, and those of a
        reordered grid: no route depends on which speeds share its replication, nor on their order."""

        def rows(vmax_grid, name):
            run(ExperimentPlan(kind="mobility", seed=8, replications=4, vmax_grid=vmax_grid), SimConfig(),
                tmp_path / name)
            by_speed = {}
            for row in read_csv(tmp_path / name / "mobility_detail.csv"):
                by_speed.setdefault(row["variant"], []).append(row)
            return by_speed

        speeds = (0.0, 5.0, 10.0, 15.0, 20.0)
        grid = rows(speeds, "grid")
        assert list(grid) == [f"v{v:g}" for v in speeds] and all(len(r) == 4 for r in grid.values())
        for v in speeds:
            assert rows((v,), f"v{v:g}") == {f"v{v:g}": grid[f"v{v:g}"]}
        assert rows((20.0, 0.0, 5.0), "reordered") == {name: grid[name] for name in ("v20", "v0", "v5")}

    def test_a_replication_draws_one_topology_and_at_most_two_streams(self, tmp_path, monkeypatch):
        draws, streams = [], []
        real_topology, real_stream = topology.generate_topology, experiments._stream
        monkeypatch.setattr(topology, "generate_topology", lambda cfg, rng: draws.append(1) or real_topology(cfg, rng))

        def stream(seed, family, rep, scenario=""):
            streams.append((family, rep))
            return real_stream(seed, family, rep, scenario)

        monkeypatch.setattr(experiments, "_stream", stream)
        run(ExperimentPlan(kind="mobility", seed=6, replications=3), SimConfig(), tmp_path / "moving")
        assert len(draws) == 3
        assert sorted(streams) == [(family, rep) for family in ("grid", "walk") for rep in range(3)]
        draws.clear()
        streams.clear()
        run(ExperimentPlan(kind="mobility", seed=6, replications=3, vmax_grid=(0.0,)), SimConfig(), tmp_path / "static")
        assert len(draws) == 3 and streams == [("grid", rep) for rep in range(3)]  # no cell moves: no walk


class TestRunOneRoute:
    def test_variant_dispatch(self):
        cfg = replace(SimConfig(iu_count=80), source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        led = run_one_route(cfg, Replication(cfg, derive_rng(9, 0)), router.BASELINE_POLICIES["full"])
        assert led.psi == 6 and led == run_one_route(cfg, Replication(cfg, derive_rng(9, 0)))
        assert led == run_one_route(cfg, derive_rng(9, 0))  # a bare generator: a replication of its own

    def test_a_replication_without_a_walk_routes_static_ius_only(self):
        cfg = replace(SimConfig(iu_count=80), source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        with pytest.raises(ValueError, match="without a walk stream"):
            run_one_route(cfg, Replication(cfg, derive_rng(9, 0)), v_max=5.0)


class TestPerConfigConstants:
    """The chain law, the RIS grid and the mode table are computed once per config
    and shared read-only; each route keeps only its own chain states."""

    def test_shared_arrays_are_read_only(self):
        cfg = SimConfig(iu_count=30)
        law = experiments._profiles_for(cfg)
        assert experiments._profiles_for(replace(cfg, coverage_m=90.0)) is law  # not a traffic key
        for name, array in law._asdict().items():
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable, name
        grid = topology.ris_grid_positions(400.0, 30.0)
        assert topology.ris_grid_positions(400.0, 30.0) is grid and not grid.flags.writeable
        with pytest.raises(ValueError):
            law.nu_idle[0] = 0.0
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0
        assert linkbudget.build_mode_table(1e-6, "eqtext") is linkbudget.build_mode_table(1e-6, "eqtext")

    def test_per_iu_lists_key_the_law(self):
        cfg = SimConfig(iu_count=3, lambda_off_ms=(1.0, 2.0, 3.0))
        law = experiments._profiles_for(cfg)
        assert experiments._profiles_for(SimConfig(iu_count=3, lambda_off_ms=(1.0, 2.0, 3.0))) is law
        other = experiments._profiles_for(replace(cfg, lambda_off_ms=(1.0, 2.0, 4.0)))
        p01 = traffic.switch_probability(np.array([1.0, 2.0, 3.0]) * 1e-3, cfg.slot_s)
        p10 = traffic.switch_probability(np.full(3, cfg.mu_on_ms * 1e-3), cfg.slot_s)
        assert law.pi.tolist() == (p01 / (p01 + p10)).tolist()
        assert law.pi[:2].tolist() == other.pi[:2].tolist() and law.pi[2] != other.pi[2]

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
        cell = experiments.Cell("c", "full", router.RoutePolicy(), {})
        (rows,) = experiments._run_cells(cfg, (cell,), seed=3, replications=3)
        assert len(rows) == 3 and len(calls) == per_law


class TestSharedReplication:
    """Comparison replications route their variants together (``experiments.Replication``). The
    oracle routes each cell's replication alone on its own stream, ``run_one_route(cfg,
    Replication(cfg, _stream(seed, "grid", rep, point)), policy)``, as every comparison did before:
    each ledger must equal the oracle's, stage reached included, and the detail CSV must keep its
    bytes."""

    def check(self, plan, cfg, out, monkeypatch):
        """Run ``plan`` and compare it with the oracle; returns, per stage a pair of policies first
        differs at, how often a later variant reused the earlier one's ledger (fired) and how often
        the earlier route reached that stage (declined)."""
        calls = []  # (replication, policy, ledger) of every comparison route, in routing order
        real = experiments.run_one_route

        def recorded(cfg, rep, policy=router.RoutePolicy(), v_max=0.0):
            ledger = real(cfg, rep, policy, v_max)
            calls.append((rep, policy, ledger))
            return ledger

        monkeypatch.setattr(experiments, "run_one_route", recorded)
        run(plan, cfg, out)
        monkeypatch.setattr(experiments, "run_one_route", real)

        groups = experiments._grid_cells(plan)
        n = len(plan.variants)  # one group per coverage, its variants in plan order
        assert [len(group) for group in groups] == [n] * len(plan.resolved_coverage_grid())
        assert all(cell.policy == router.BASELINE_POLICIES[v] and cell.point == {"coverage_m": c}
                   for group, c in zip(groups, plan.resolved_coverage_grid()) for cell, v in zip(group, plan.variants))
        cells = [cell for group in groups for cell in group]
        pinned = replace(cfg, source_xy=experiments.SWEEP_SOURCE, dest_xy=experiments.SWEEP_DEST)
        configs = [replace(pinned, **cell.point) for cell in cells]

        def alone(point, policy, rep):  # the cell's replication, drawn and routed on its own
            stream = experiments._stream(plan.seed, "grid", rep, f"r{point.coverage_m:g}-m{point.iu_count}")
            return run_one_route(point, Replication(point, stream), policy)

        oracle = {(i, rep): alone(point, cell.policy, rep)
                  for i, (cell, point) in enumerate(zip(cells, configs)) for rep in range(plan.replications)}
        # cells i*n to i*n + n - 1 share coverage i and route together, rep by rep
        routing_order = [(ci * n + v, rep) for ci in range(len(groups))
                         for rep in range(plan.replications) for v in range(n)]
        assert [ledger for _, _, ledger in calls] == [oracle[key] for key in routing_order]
        rows = [experiments._detail_row(point, cell, plan.seed, oracle[i, rep])
                for i, (cell, point) in enumerate(zip(cells, configs)) for rep in range(plan.replications)]
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
        rep = Replication(cfg, derive_rng(1, 0, 0))
        ledgers = [run_one_route(cfg, rep, policy) for policy in policies]
        assert len(draws) == 1 and len(rep.routed) == 3 and rep.topo._scans
        assert all(ledger.hop_count for ledger in ledgers)
        for policy, ledger in zip(policies, ledgers):
            assert ledger == run_one_route(cfg, Replication(cfg, derive_rng(1, 0, 0)), policy)

    def test_moving_routes_share_the_topology_but_never_a_ledger(self, monkeypatch):
        """The routes of a replication do not depend on the order they route in: in any order, a
        moving route routes on the replication's one topology and equals the route alone; it takes no
        static route's ledger and leaves none for one."""
        draws = []
        real = topology.generate_topology
        monkeypatch.setattr(topology, "generate_topology", lambda cfg, rng: draws.append(1) or real(cfg, rng))
        cfg = SimConfig(coverage_m=50.0, iu_count=400, source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))

        def drawn():
            return Replication(cfg, derive_rng(1, 0), derive_rng(1, 1))

        alone = {v: run_one_route(cfg, drawn(), v_max=v) for v in (0.0, 5.0, 20.0)}
        assert alone[5.0].mobile and alone[5.0].hops != alone[0.0].hops != alone[20.0].hops
        for order in ((0.0, 5.0, 20.0), (5.0, 0.0, 20.0), (20.0, 5.0, 0.0)):
            draws.clear()
            rep = drawn()
            ledgers = {v: run_one_route(cfg, rep, v_max=v) for v in order}
            assert len(draws) == 1 and ledgers == alone
            assert rep.routed == [(router.RoutePolicy(), ledgers[0.0])]  # the moving routes left none
            again = {v: run_one_route(cfg, rep, v_max=v) for v in (0.0, 5.0)}
            assert again[0.0] is ledgers[0.0] and again[5.0] == ledgers[5.0] and again[5.0] is not ledgers[5.0]
