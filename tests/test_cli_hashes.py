import importlib.util
import json
import re
from pathlib import Path

import pytest

from risroute import delaymodel, experiments, router, topology
from risroute.cli import build_parser
from risroute.config import load_config
from risroute.linkbudget import transfer_slots

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_hashes.py"
spec = importlib.util.spec_from_file_location("cli_hashes", TOOL)
cli_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_hashes)


def test_every_command_parses():
    for seed, args in cli_hashes.COMMANDS:
        build_parser().parse_args([*args, "--seed", str(seed)])


def test_every_command_tuple_runs_once_under_its_own_label():
    # a gate line defined in a *_COMMANDS tuple but left out of RUNS would never print
    tuples = [value for name, value in vars(cli_hashes).items() if name.endswith("COMMANDS")]
    assert sorted(map(id, tuples)) == sorted(id(commands) for _, _, commands in cli_hashes.RUNS)
    labels = [label for label, _, _ in cli_hashes.RUNS]
    assert len(set(labels)) == len(labels)


def test_config_runs_cover_per_iu_means_fixed_endpoints_and_equal_slot_modes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cli_hashes.CONFIG))
    cfg = load_config(path)
    assert len(cfg.lambda_off_ms) == cfg.iu_count and len(set(cfg.lambda_off_ms)) > 1
    assert cfg.source_xy is not None and cfg.dest_xy is not None
    assert [transfer_slots(cfg.total_bits, b) for b in (4, 5, 6, 7)] == [4, 4, 3, 3]
    assert sorted(args[0] for _, args in cli_hashes.CONFIG_COMMANDS) == ["compare", "mobility", "route"]
    for seed, args in cli_hashes.CONFIG_COMMANDS:
        build_parser().parse_args([*args, "--seed", str(seed), "--config", str(path)])


def test_channel_config_sets_keys_no_other_run_sets(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(cli_hashes.CHANNEL_CONFIG))
    cfg = load_config(path)
    assert (cfg.threshold_rule, cfg.ris_spacing_m, cfg.fixed_rate_bits, cfg.rician_k_db) == ("eqtext", 45.0, 4, 3.0)
    assert not set(cli_hashes.CHANNEL_CONFIG) & (set(cli_hashes.CONFIG) | set(cli_hashes.ARRIVAL_CONFIG))
    assert sorted(args[0] for _, args in cli_hashes.CHANNEL_COMMANDS) == ["compare", "route", "sweep-density"]
    for seed, args in cli_hashes.CHANNEL_COMMANDS:
        build_parser().parse_args([*args, "--seed", str(seed), "--config", str(path)])


def run_lines(commands, config, tmp_path):
    """Run each of ``commands`` in-process under ``config``, as the tool's lines run them."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    cfg = load_config(path)
    for seed, args in commands:
        parsed = build_parser().parse_args([*args, "--seed", str(seed), "--config", str(path)])
        plan = experiments.ExperimentPlan(kind=parsed.kind, seed=parsed.seed, replications=parsed.replications)
        experiments.run(plan, cfg, tmp_path / "out")


def test_arrival_config_runs_meet_waypoint_arrivals(tmp_path, monkeypatch):
    arrivals = []
    walk = experiments.MobilityField.positions_at

    def counted(field, t):  # an arrival always draws its IU a new waypoint
        before = field.waypoints.copy()
        xy = walk(field, t)
        arrivals.append(int((field.waypoints != before).any(axis=1).sum()))
        return xy

    monkeypatch.setattr(experiments.MobilityField, "positions_at", counted)
    run_lines(cli_hashes.ARRIVAL_COMMANDS, cli_hashes.ARRIVAL_CONFIG, tmp_path)
    assert sum(arrivals) >= 1


def test_spacing_config_runs_scan_surfaces_with_and_without_an_index(tmp_path, monkeypatch):
    indexed = {}  # radius -> whether the surface ranges scanned at it had a cell index
    scan = topology.Topology.scan

    def recorded(topo, ids, center, r):
        found = scan(topo, ids, center, r)
        if ids == range(topo.first_ris_id, len(topo.xy)):
            indexed.setdefault(r, set()).add(isinstance(topo._tables[ids, r], topology.CellIndex))
        return found

    monkeypatch.setattr(topology.Topology, "scan", recorded)
    run_lines(cli_hashes.SPACING_COMMANDS, cli_hashes.SPACING_CONFIG, tmp_path)
    assert indexed == {30.0: {True}, 45.0: {False}, 60.0: {False}}


def test_handoff_config_takes_double_hops_on_the_single_stages_h_in(tmp_path, monkeypatch):
    handed = []  # per double hop: whether the single stage before it drew its first surface's h_in
    tables = []  # the reflector stage's h_in table, as the single stage fills it
    single, fallback = router.Router._single_stage, router.Router.ris_fallback

    def recorded_single(self, origin, candidates, incoming):
        tables.append(incoming)
        return single(self, origin, candidates, incoming)

    def recorded_fallback(self, origin, ledger):
        tables.clear()
        outcome = fallback(self, origin, ledger)
        if not isinstance(outcome, router.FailureReason) and len(outcome.surfaces) == 2:
            handed.append(bool(tables) and outcome.surfaces[0] in tables[0])
        return outcome

    monkeypatch.setattr(router.Router, "_single_stage", recorded_single)
    monkeypatch.setattr(router.Router, "ris_fallback", recorded_fallback)
    run_lines(cli_hashes.HANDOFF_COMMANDS, cli_hashes.HANDOFF_CONFIG, tmp_path)
    assert sum(handed) >= 1


def routed_ledgers(commands, config, tmp_path, monkeypatch):
    """The ledger of every route ``run_lines`` routes, in routing order."""
    ledgers = []
    real = experiments.run_one_route

    def recorded(*args, **kwargs):
        ledgers.append(real(*args, **kwargs))
        return ledgers[-1]

    monkeypatch.setattr(experiments, "run_one_route", recorded)
    run_lines(commands, config, tmp_path)
    return ledgers


def test_delay_config_ends_a_route_in_delay_exceeded(tmp_path, monkeypatch):
    ledgers = routed_ledgers(cli_hashes.DELAY_COMMANDS, cli_hashes.DELAY_CONFIG, tmp_path, monkeypatch)
    assert router.FailureReason.DELAY_EXCEEDED in [ledger.failure_reason for ledger in ledgers]


def test_decision_config_ends_routes_at_the_decision_slot(tmp_path, monkeypatch):
    # a transfer that would overrun the budget ends the route before the clock moves, so only the
    # reflector decision slot leaves a delay_exceeded route's clock past the budget; it ends the route
    # before the reflector stage is entered
    ledgers = routed_ledgers(cli_hashes.DECISION_COMMANDS, cli_hashes.DECISION_CONFIG, tmp_path, monkeypatch)
    past = [ledger.mobile for ledger in ledgers if ledger.failure_reason is router.FailureReason.DELAY_EXCEEDED
            and ledger.total_slots * ledger.slot_s > ledger.total_delay_s and ledger.stage_reached == "relay"]
    assert set(past) == {False, True}  # static and moving routes alike


@pytest.mark.parametrize("kind", ["sweep-density", "compare"])
def test_channel_config_runs_end_routes_with_nothing_in_sight(kind, tmp_path, monkeypatch):
    # on the 45 m reflector grid some transmitters have neither an IU nor a surface in sight
    commands = [command for command in cli_hashes.CHANNEL_COMMANDS if command[1][0] == kind]
    ledgers = routed_ledgers(commands, cli_hashes.CHANNEL_CONFIG, tmp_path, monkeypatch)
    assert router.FailureReason.NO_IU_NO_RIS in [ledger.failure_reason for ledger in ledgers]


def test_arrival_config_ends_routes_in_outage(tmp_path, monkeypatch):
    # a walking IU endpoint leaves the last transmitter's coverage before its transfer ends
    ledgers = routed_ledgers(cli_hashes.ARRIVAL_COMMANDS, cli_hashes.ARRIVAL_CONFIG, tmp_path, monkeypatch)
    assert {ledger.mobile for ledger in ledgers if ledger.failure_reason is router.FailureReason.OUTAGE} == {True}


def test_a_default_sweep_line_pins_overshooting_relays(tmp_path, monkeypatch):
    # a relay at or past the nominal hop span gets the route's remaining budget, through pin_next
    overshoots, pins = [], []  # per advance: psi_next >= Psi; per pin: (its limit, the budget left)
    routing = []  # the router whose clock last moved
    advance, pin_next, tick = delaymodel.DelayBudget.advance, delaymodel.DelayBudget.pin_next, router.Router._tick

    def recorded_advance(budget, wait_s, psi_next, remaining_s):
        overshoots.append(psi_next >= budget.psi)
        return advance(budget, wait_s, psi_next, remaining_s)

    def recorded_pin(budget, wait_s, limit):
        pins.append((limit, routing[-1]._remaining_s()))
        return pin_next(budget, wait_s, limit)

    def recorded_tick(r, slots):
        routing.append(r)
        return tick(r, slots)

    monkeypatch.setattr(delaymodel.DelayBudget, "advance", recorded_advance)
    monkeypatch.setattr(delaymodel.DelayBudget, "pin_next", recorded_pin)
    monkeypatch.setattr(router.Router, "_tick", recorded_tick)
    line = (5, ["sweep-density", "--replications", "2", "--threads", "1"])
    assert line in cli_hashes.COMMANDS
    run_lines([line], {}, tmp_path)
    assert 0 < len(pins) == sum(overshoots)
    assert all(limit == left for limit, left in pins)


def test_hashes_each_csv_by_name():
    out = cli_hashes.csv_hashes(cli_hashes.ROOT, 5, ["route", "--replications", "2"])
    assert [name for name, _ in out] == ["route_0001.csv", "route_0002.csv"]
    assert all(re.fullmatch("[0-9a-f]{12}", digest) for _, digest in out)
    with_config = cli_hashes.csv_hashes(cli_hashes.ROOT, 5, ["route", "--replications", "2"], cli_hashes.CONFIG)
    assert [name for name, _ in with_config] == ["route_0001.csv", "route_0002.csv"]
    assert with_config != out


def test_refuses_a_checkout_without_sources(tmp_path, capsys):
    assert cli_hashes.main(["--root", str(tmp_path)]) == 1
    assert "no risroute sources" in capsys.readouterr().err
