"""``invariants.check_ledger``: a hand-made ledger that keeps every invariant passes, and breaking any
one of them is reported. Every ledger a ``Router`` returns in the tests is checked too (conftest)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import build_topology, line_config

from risroute import channel, experiments, invariants, linkbudget
from risroute.config import SimConfig
from risroute.router import FailureReason, HopChoice, RouteLedger

# S, D, U1..U3 on the line y = 200, R1..R3 at y = 210; r = 60 m (the config's default)
TOPO = build_topology([(50.0, 200.0), (100.0, 200.0), (150.0, 200.0)],
                      ris_xy=[(130.0, 210.0), (170.0, 210.0), (185.0, 210.0)], src=(0.0, 200.0), dst=(200.0, 200.0))
S, D, U1, U2, U3, R1, R2, R3 = range(8)
CFG = line_config()


def priced_hop(via, rate, snr, remaining_m, cfg=CFG) -> HopChoice:
    """The hop over ``via`` at ``rate`` and linear SNR ``snr``, with the slots its rate needs and the
    harvest its SNR gives over them (none at D)."""
    slots = linkbudget.transfer_slots(cfg.total_bits, rate)
    harvested = 0.0 if via[-1] == D else linkbudget.harvested_energy_for_transfer(cfg, snr * cfg.noise_w, slots)
    return HopChoice(via, slots, rate, harvested, remaining_m, snr)


def short_packet_rate(snr, cfg=CFG):
    return channel.finite_blocklength_rate(snr, cfg.blocklength, cfg.epsilon)


def valid_ledger() -> RouteLedger:
    """S → U1, a wait, → U2, → R1 → U3, → R2+R3 → D, plus the reflector decision slot. The direct hops'
    20 dB reaches 256-QAM; the reflected hops carry their SNR's short-packet rate."""
    hops = [
        priced_hop((U1,), 4.0, 100.0, 150.0),  # 4 slots
        HopChoice((), 3, 0.0, 0.0, 150.0),
        priced_hop((U2,), 8.0, 100.0, 100.0),  # 2 slots
        priced_hop((R1, U3), short_packet_rate(1e6), 1e6, 50.0),  # 19.8 bits/use, 1 slot
        priced_hop((R2, R3, D), short_packet_rate(1e4), 1e4, 0.0),  # 13.1 bits/use, 2 slots
    ]
    return RouteLedger(hops=hops, total_slots=13, total_delay_s=CFG.total_delay_s, slot_s=CFG.slot_s,
                       psi=4, stage_reached="double", topo=TOPO)


def with_hop(ledger, i, **changes):
    hops = list(ledger.hops)
    hops[i] = hops[i]._replace(**changes)
    return replace(ledger, hops=hops)


def test_a_ledger_keeping_every_invariant_passes():
    ledger = valid_ledger()
    assert math.dist(TOPO.xy[S], TOPO.xy[D]) == 200.0
    assert invariants.check_ledger(ledger, CFG) == []
    assert invariants.check_ledger(replace(ledger, mobile=True), CFG) == []
    # the Shannon policy's reflected rate at the same SNR needs the same slot
    assert invariants.check_ledger(with_hop(ledger, 3, rate=channel.shannon_rate(1e6)), CFG) == []


VALID = valid_ledger()
SPENT_2 = (CFG.tx_power_w + CFG.proc_power_w) * CFG.slot_s * 2  # what hop 2 spends over its 2 slots
OFF_HARVEST = math.nextafter(VALID.hops[0].harvested_j, 1.0)

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
    "harvest reaches spend": (lambda led: with_hop(led, 2, harvested_j=SPENT_2),
                              f"hop 2: harvests {SPENT_2!r} J, not below the {SPENT_2!r} J it spends"),
    "SNR negative": (lambda led: with_hop(led, 0, snr=-1.0), "hop 0: SNR -1.0 is not a nonnegative number"),
    "SNR NaN": (lambda led: with_hop(led, 3, snr=math.nan), "hop 3: SNR nan is not a nonnegative number"),
    # 17 dB reaches 32-QAM (16.85 dB) but not 64-QAM (17.64 dB)
    "direct rate above its SNR's mode": (lambda led: with_hop(led, 2, snr=10 ** 1.7),
                                         "hop 2: direct rate 8.0 is above the 5 bits its SNR reaches"),
    "reflected rate not its SNR's": (lambda led: with_hop(led, 3, snr=1e5),
                                     f"hop 3: reflected rate {VALID.hops[3].rate!r} is not a rate its SNR gives"),
    "slots not the rate's": (lambda led: with_hop(led, 2, slots_used=3),
                             "hop 2: uses 3 slots, not the 2 its rate needs"),
    "IU harvest off its SNR": (lambda led: with_hop(led, 0, harvested_j=OFF_HARVEST),
                               f"hop 0: harvests {OFF_HARVEST!r} J, not the {VALID.hops[0].harvested_j!r} J its SNR"),
    "D harvests": (lambda led: with_hop(led, 4, harvested_j=1e-12), "hop 4: harvests 1e-12 J, not the 0.0 J its SNR"),
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


def test_a_short_packet_rate_above_capacity_is_reported():
    # SimConfig refuses epsilon above 1/2, where Qinv(epsilon) < 0 and the short-packet rate exceeds the
    # Shannon rate; a config let past that check prices a reflected hop above capacity
    cfg = line_config()
    object.__setattr__(cfg, "epsilon", 0.75)
    rate, capacity = short_packet_rate(1e6, cfg), channel.shannon_rate(1e6)
    assert rate > capacity
    problems = invariants.check_ledger(with_hop(valid_ledger(), 3, rate=rate), cfg)
    assert f"hop 3: reflected rate {rate!r} is above the Shannon rate {capacity!r} of its SNR" in problems


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
    cfg = SimConfig(coverage_m=r)
    hop = priced_hop((U1,), 4.0, 100.0, math.dist((103.85, 224.42), (300.0, 200.0)), cfg)
    ledger = RouteLedger(hops=[hop], total_slots=hop.slots_used, failure_reason=FailureReason.DELAY_EXCEEDED,
                         topo=topo)
    assert invariants.check_ledger(ledger, cfg) == []
    assert invariants.check_ledger(ledger, replace(cfg, coverage_m=math.nextafter(r, 0.0))) != []


def test_the_trajectory_kind_refuses_a_broken_ledger(tmp_path, monkeypatch):
    monkeypatch.setattr(invariants, "check_ledger", lambda ledger, cfg: ["hop 0: a made-up problem"])
    with pytest.raises(RuntimeError, match="route 1 breaks its ledger's invariants: hop 0: a made-up problem"):
        experiments.run(experiments.ExperimentPlan(kind="trajectory", replications=1), SimConfig(), tmp_path)
    assert not list(tmp_path.glob("*.csv"))
