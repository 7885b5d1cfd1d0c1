import builtins
import importlib.util
import json
import math
import operator
import re
from functools import reduce
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


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's builtin ``sum``, ported from its C source. From an int start, ints add exactly
    until the first other item is added by ``+``; from a float total on, floats add with Neumaier's
    compensation, which joins the total once at the end, and ints add plainly; any other item
    leaves the compensation behind and adds by ``+``, as does every item after it."""
    if isinstance(start, (str, bytes, bytearray)):
        raise TypeError("sum() can't sum strings, bytes or bytearrays")
    items, result = iter(iterable), start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                result = total + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_is_not_the_left_to_right_sum():
    tenths = [0.1] * 10
    assert compensated_sum(tenths) == 1.0 and reduce(operator.add, tenths, 0) == 0.9999999999999999
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0 and compensated_sum([]) == 0
    assert compensated_sum([1, 2, True]) == 4 and type(compensated_sum([1, 0.5])) is float
    assert compensated_sum([[1], [2]], []) == [1, 2]


def test_route_csvs_keep_their_bytes_under_the_compensated_sum(tmp_path, monkeypatch):
    # builtin sum compensates float sums from CPython 3.12 on (requires-python is 3.10): the
    # ``route --config`` line's ledger CSVs, whose summary rows total each route's harvest and
    # whose budgets total its waits, must not depend on which sum runs
    route_line = [(seed, args) for seed, args in cli_hashes.CONFIG_COMMANDS if args[0] == "route"]
    native, compensated = tmp_path / "native", tmp_path / "compensated"
    for side in (native, compensated):
        side.mkdir()
    run_lines(route_line, cli_hashes.CONFIG, native)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    run_lines(route_line, cli_hashes.CONFIG, compensated)
    native, compensated = (sorted((side / "out").glob("route_*.csv")) for side in (native, compensated))
    assert [p.name for p in native] == [p.name for p in compensated] == [f"route_{i:04d}.csv" for i in (1, 2, 3, 4)]
    assert [p.read_bytes() for p in compensated] == [p.read_bytes() for p in native]


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
        if not isinstance(outcome, router.FailureReason) and outcome.kind is router.HopKind.DOUBLE_RIS:
            handed.append(bool(tables) and outcome.via[0] in tables[0])
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


def test_the_default_compare_line_ends_single_only_routes_after_the_single_stage(tmp_path, monkeypatch):
    # a policy without the double stage ends a route its single stage leaves without a hop there; a
    # policy with it never does
    ended = set()  # the policies of the routes that end in the single stage's dead end
    real = experiments.run_one_route

    def recorded(cfg, rep, policy, **kwargs):
        ledger = real(cfg, rep, policy, **kwargs)
        if ledger.failure_reason is router.FailureReason.DEAD_END_AFTER_SINGLE_RIS:
            ended.add(policy)
        return ledger

    monkeypatch.setattr(experiments, "run_one_route", recorded)
    line = (5, ["compare", "--replications", "2"])
    assert line in cli_hashes.COMMANDS
    run_lines([line], {}, tmp_path)
    assert ended == {router.BASELINE_POLICIES["single_ris"]}


def test_a_threads_2_line_must_show_its_serial_lines_hashes(monkeypatch, capsys):
    # the seed-5 grid commands run serially and at --threads 2; the seed-9 --threads 2 line has no
    # serial line to match
    def stub(pooled_digest):
        def csv_hashes(root, seed, args, config=None):
            return [("a.csv", "0" * 12), ("b.csv", pooled_digest if args[-2:] == ["--threads", "2"] else "0" * 12)]
        return csv_hashes

    commands = [args for _, _, commands in cli_hashes.RUNS for _, args in commands]
    assert sum(args[-2:] == ["--threads", "2"] for args in commands) == 5
    monkeypatch.setattr(cli_hashes, "csv_hashes", stub("0" * 12))
    assert cli_hashes.main([]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2 * len(commands) and err == ""
    monkeypatch.setattr(cli_hashes, "csv_hashes", stub("1" * 12))
    assert cli_hashes.main([]) == 1
    moved, err = capsys.readouterr()
    assert [line.split()[:-1] for line in moved.splitlines()] == [line.split()[:-1] for line in out.splitlines()]
    assert moved.count("1" * 12) == 5
    assert err.count("does not show its serial line's hashes") == 4
    assert "\n  5 compare --replications 2 --threads 2 " in err and "\n  5 compare --replications 2  " in err
    assert " 9 sweep-coverage" not in err


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
