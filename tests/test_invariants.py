"""``invariants.check_ledger``: a hand-made ledger that keeps every invariant passes, and breaking any
one of them is reported. Every ledger a ``Router`` returns in the tests is checked too (conftest)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import build_topology, line_config

from risroute import experiments, invariants
from risroute.config import SimConfig
from risroute.router import FailureReason, HopChoice, RouteLedger

# S, D, U1..U3 on the line y = 200, R1..R3 at y = 210; r = 60 m (the config's default)
TOPO = build_topology([(50.0, 200.0), (100.0, 200.0), (150.0, 200.0)],
                      ris_xy=[(130.0, 210.0), (170.0, 210.0), (185.0, 210.0)], src=(0.0, 200.0), dst=(200.0, 200.0))
S, D, U1, U2, U3, R1, R2, R3 = range(8)
CFG = line_config()


def valid_ledger() -> RouteLedger:
    """S → U1, a wait, → U2, → R1 → U3, → R2+R3 → D, plus the reflector decision slot."""
    hops = [
        HopChoice((U1,), 4, 4.0, 1e-9, 150.0),
        HopChoice((), 3, 0.0, 0.0, 150.0),
        HopChoice((U2,), 2, 8.0, 1e-9, 100.0),
        HopChoice((R1, U3), 1, 17.5, 1e-9, 50.0),
        HopChoice((R2, R3, D), 2, 12.25, 0.0, 0.0),
    ]
    return RouteLedger(hops=hops, total_slots=13, total_delay_s=CFG.total_delay_s, slot_s=CFG.slot_s,
                       psi=4, stage_reached="double", topo=TOPO)


def with_hop(ledger, i, **changes):
    hops = list(ledger.hops)
    hops[i] = replace(hops[i], **changes)
    return replace(ledger, hops=hops)


def test_a_ledger_keeping_every_invariant_passes():
    ledger = valid_ledger()
    assert math.dist(TOPO.xy[S], TOPO.xy[D]) == 200.0
    assert invariants.check_ledger(ledger, CFG) == []
    assert invariants.check_ledger(replace(ledger, mobile=True), CFG) == []


BROKEN = {
    "no progress": (lambda led: with_hop(led, 2, remaining_m=150.0), "hop 2: remaining distance 150.0 m is not below"),
    "first hop from |S-D|": (lambda led: with_hop(led, 0, remaining_m=200.0), "hop 0: remaining distance"),
    "wait moves": (lambda led: with_hop(led, 1, remaining_m=149.0), "hop 1: a wait moves the remaining distance"),
    "slots below the hops'": (lambda led: replace(led, total_slots=11), "total_slots 11 is below the 12 slots"),
    "success short of D": (lambda led: replace(led, hops=led.hops[:-1]), "does not end at D"),
    "success over budget": (lambda led: replace(led, total_slots=501), "501 slots overrun its delay budget"),
    "direct rate not whole": (lambda led: with_hop(led, 0, rate=4.5), "hop 0: direct rate 4.5 is not a bit count"),
    "direct rate 0": (lambda led: with_hop(led, 0, rate=0.0), "hop 0: direct rate 0.0 is not a bit count"),
    "direct rate 9": (lambda led: with_hop(led, 2, rate=9.0), "hop 2: direct rate 9.0 is not a bit count"),
    "direct rate NaN": (lambda led: with_hop(led, 2, rate=math.nan), "hop 2: direct rate nan is not a bit count"),
    "reflected rate 0": (lambda led: with_hop(led, 3, rate=0.0), "hop 3: reflected rate 0.0 is not positive"),
    "reflected rate NaN": (lambda led: with_hop(led, 4, rate=math.nan), "hop 4: reflected rate nan is not positive"),
    # hop 2 spends (P + P_proc) T_s over its 2 slots; a harvest of exactly that leaves no net energy
    "harvest reaches spend": (lambda led: with_hop(led, 2, harvested_j=(CFG.tx_power_w + CFG.proc_power_w)
                                                   * CFG.slot_s * 2), "hop 2: harvests"),
    "via long for its kind": (lambda led: with_hop(led, 4, via=(R1, R2, R3, D)), "hop 4: names 4 nodes, more than"),
    "surface not a RIS": (lambda led: with_hop(led, 3, via=(U2, U3)), "hop 3: surfaces (3,) are not all RIS ids"),
    "ends at a RIS": (lambda led: with_hop(led, 2, via=(R1,)), "hop 2: ends at (5,), neither D nor an IU"),
    "ends at S": (lambda led: with_hop(led, 2, via=(S,)), "hop 2: ends at (0,), neither D nor an IU"),
    # U2 sits 100 m from S, R3 85.6 m from U2
    "endpoint beyond r": (lambda led: with_hop(led, 0, via=(U2,)), "U2 lies 100.0 m from S, beyond r = 60.0 m"),
    "surface beyond r": (lambda led: with_hop(led, 3, via=(R3, U3)), "m from U2, beyond r = 60.0 m"),
}


@pytest.mark.parametrize("name", list(BROKEN))
def test_each_broken_invariant_is_reported(name):
    mutate, message = BROKEN[name]
    problems = invariants.check_ledger(mutate(valid_ledger()), CFG)
    assert any(message in p for p in problems), problems


def test_mobile_routes_skip_what_moving_ius_change():
    # an endpoint that moved during its transfer may lie past r of its place in the topology's table,
    # and the hop after it may record more remaining distance; a hop after a wait is still checked
    # against the distance the wait records
    moved = with_hop(with_hop(valid_ledger(), 0, via=(U2,)), 3, remaining_m=120.0)
    assert invariants.check_ledger(replace(moved, mobile=True), CFG) == []
    assert len(invariants.check_ledger(moved, CFG)) == 2
    after_wait = with_hop(valid_ledger(), 2, remaining_m=150.0)
    assert invariants.check_ledger(replace(after_wait, mobile=True), CFG) != []


def test_scan_radius_is_measured_like_the_scan():
    # U1 is np.hypot's 24.72162818262582 m from S, and math.hypot's one ulp more: at r = np.hypot's
    # distance the scan reaches U1, and so does the check
    topo = build_topology([(103.85, 224.42)], src=(100.0, 200.0), dst=(300.0, 200.0))
    rel = topo.xy[U1] - topo.xy[S]
    r = float(np.hypot(rel[0], rel[1]))
    assert math.hypot(*rel.tolist()) > r
    hop = HopChoice((U1,), 4, 4.0, 0.0, math.dist((103.85, 224.42), (300.0, 200.0)))
    ledger = RouteLedger(hops=[hop], total_slots=4, failure_reason=FailureReason.DELAY_EXCEEDED, topo=topo)
    cfg = SimConfig(coverage_m=r)
    assert invariants.check_ledger(ledger, cfg) == []
    assert invariants.check_ledger(ledger, replace(cfg, coverage_m=math.nextafter(r, 0.0))) != []


def test_the_trajectory_kind_refuses_a_broken_ledger(tmp_path, monkeypatch):
    monkeypatch.setattr(invariants, "check_ledger", lambda ledger, cfg: ["hop 0: a made-up problem"])
    with pytest.raises(RuntimeError, match="route 1 breaks its ledger's invariants: hop 0: a made-up problem"):
        experiments.run(experiments.ExperimentPlan(kind="trajectory", replications=1), SimConfig(), tmp_path)
    assert not list(tmp_path.glob("*.csv"))
