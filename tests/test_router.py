import contextlib
import copy
import math
from collections import Counter
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import build_topology, idle_law, line_config, rng_for, route, traffic_law

from risroute import channel, linkbudget, router, topology, traffic
from risroute.config import SimConfig
from risroute.linkbudget import build_mode_table
from risroute.router import (
    BASELINE_POLICIES,
    CandidateLink,
    FailureReason,
    HopChoice,
    HopKind,
    STAGES,
    RouteLedger,
    Router,
    _decibels,
    availability_set,
    select_entry,
    slot_table,
)
from risroute.experiments import MobilityField, _profiles_for
from risroute.topology import DEST_ID, FIRST_IU_ID, SOURCE_ID, Topology, generate_topology


LINE_ENDS = {"source_xy": (20.0, 200.0), "dest_xy": (380.0, 200.0)}


def make_link(node_id, snr_db, remaining, nu):
    return CandidateLink(node_id=node_id, snr_db=snr_db, snr_linear=10 ** (snr_db / 10),
                         remaining_m=remaining, nu_idle_slots=nu)


def link_at(node_id, snr, remaining, nu):
    """The link to ``node_id`` at linear SNR ``snr``, as the router measures it."""
    return CandidateLink(node_id, _decibels(snr), snr, remaining, nu)


def entry_for(link, tau, rate, surfaces=()):
    """The hop over ``surfaces`` to the node of ``link`` at ``tau`` slots and ``rate``, harvest still 0."""
    return HopChoice((*surfaces, link.node_id), tau, float(rate), 0.0, link.remaining_m, link.snr_linear)


class TestAvailabilitySet:
    thresholds = build_mode_table(1e-6)
    bits = 24  # per transfer
    table = slot_table(thresholds, bits, None)  # every mode
    pinned = slot_table(thresholds, bits, 2)  # QPSK only

    def test_fitting_transfer_included(self):
        # 24 bits at 8 bits/symbol -> 3 slots <= nu=4.21
        links = [make_link(2, 25.0, 300.0, 4.21)]
        aset = availability_set(links, self.table)
        assert any((e.slots_used, e.rate) == (3, 8) for e in aset)
        assert all((e.via, e.snr, e.remaining_m) == ((2,), links[0].snr_linear, 300.0) for e in aset)

    def test_oversized_transfer_excluded(self):
        # best is 6 bits/symbol at 18 dB -> 4 slots > nu=3.9; lower rates worse
        links = [make_link(2, 18.0, 300.0, 3.9)]
        aset = availability_set(links, self.table)
        assert aset == []

    def test_no_idle_no_entries(self):
        assert availability_set([], self.table) == []

    def test_one_entry_per_link(self):
        # rates 1..8 are all usable at 25 dB (slots 24, 12, 8, 6, 5, 4, 4, 3): only 256-QAM is listed;
        # at 18.5 dB rates 6 and 7 both need 4 slots and the lower one is listed
        links = [make_link(2, 25.0, 300.0, 1e9), make_link(3, 18.5, 200.0, 1e9), make_link(4, 0.0, 100.0, 1e9)]
        aset = availability_set(links, self.table)
        assert aset == [entry_for(links[0], 3, 8), entry_for(links[1], 4, 6)]

    def test_non_adaptive_keeps_only_pinned_mode(self):
        links = [make_link(2, 25.0, 300.0, 1e9)]
        aset = availability_set(links, self.pinned)
        assert len(aset) == 1
        assert (aset[0].rate, aset[0].slots_used) == (2, 12)

    def test_non_adaptive_needs_channel_support(self):
        links = [make_link(2, 10.0, 300.0, 1e9)]  # only BPSK feasible
        aset = availability_set(links, self.pinned)
        assert aset == []

    def test_slot_count_once_per_constellation(self, monkeypatch):
        real, calls = linkbudget.transfer_slots, []
        monkeypatch.setattr(linkbudget, "transfer_slots", lambda n, rate: calls.append(rate) or real(n, rate))
        slot_table.cache_clear()
        links = [make_link(2 + i, 25.0, 300.0, 1e9) for i in range(200)]
        for _ in range(3):  # as three routers of one policy would
            assert len(availability_set(links, slot_table(self.thresholds, self.bits, None))) == 200
        assert sorted(calls) == list(range(1, linkbudget.MAX_RATE + 1))


def usable_modes(thresholds_db, snr_db, fixed_rate_bits):
    """Bit counts of the modes a direct link at ``snr_db`` may carry, ascending: every
    transmitting mode up to the channel's best one, or only a pinned ``fixed_rate_bits``
    that the channel supports. The per-link enumeration ``availability_set`` made."""
    best = linkbudget.mode_bits(thresholds_db, snr_db)
    return [bits for bits in range(1, best + 1) if fixed_rate_bits in (None, bits)]


def availability_set_by_enumeration(links, thresholds_db, total_bits, fixed_rate_bits=None):
    """Every (link, usable mode) pair whose transfer fits, link by link in ascending rate: the
    set ``availability_set`` picks each link's one entry from."""
    tau_of = {bits: linkbudget.transfer_slots(total_bits, bits) for bits in range(1, linkbudget.MAX_RATE + 1)}
    return [
        entry_for(link, tau_of[bits], bits)
        for link in links
        for bits in usable_modes(thresholds_db, link.snr_db, fixed_rate_bits)
        if tau_of[bits] <= link.nu_idle_slots
    ]


class TestAvailabilitySetOracle:
    """``availability_set`` gives each link the entry ``select_entry`` takes among that
    link's enumerated entries, so a hop picked from it is the hop picked from the enumeration."""

    @staticmethod
    def edges(values):
        """Each value and the floats 1 ulp either side of it."""
        return sorted({w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))})

    def draw_case(self, data):
        """(links, thresholds, total_bits, fixed_rate_bits) at ulp edges of the thresholds and
        slot counts, with NaN and -inf SNRs and a pinned mode or none."""
        thresholds = build_mode_table(1e-6, data.draw(st.sampled_from(["table3", "eqtext"])))
        total_bits = data.draw(st.integers(1, 64))
        taus = [linkbudget.transfer_slots(total_bits, bits) for bits in range(1, linkbudget.MAX_RATE + 1)]
        snr_db = st.one_of(
            st.sampled_from(self.edges(thresholds) + [-math.inf, math.nan]),
            st.floats(-20.0, 60.0),
        )
        nu = st.one_of(st.sampled_from(self.edges(taus) + [math.inf]), st.floats(0.0, 100.0))
        links = [make_link(2 + i, data.draw(snr_db), 100.0, data.draw(nu)) for i in range(data.draw(st.integers(0, 6)))]
        fixed = data.draw(st.one_of(st.none(), st.integers(1, linkbudget.MAX_RATE)))
        return links, thresholds, total_bits, fixed

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_each_link_gets_its_selected_entry(self, data):
        links, thresholds, total_bits, fixed = self.draw_case(data)
        got = availability_set(links, slot_table(thresholds, total_bits, fixed))
        want = []
        for link in links:
            own = availability_set_by_enumeration([link], thresholds, total_bits, fixed)
            if own:
                want.append(select_entry(own))
        assert got == want

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_same_hop_as_over_the_enumeration(self, data):
        links, thresholds, total_bits, fixed = self.draw_case(data)
        got = availability_set(links, slot_table(thresholds, total_bits, fixed))
        want = availability_set_by_enumeration(links, thresholds, total_bits, fixed)
        assert bool(got) == bool(want)
        if want:
            a, b = select_entry(got), select_entry(want)
            assert a == b


class TestFloorSnr:
    """``SlotTable.floor_db`` is the SNR a link needs for an entry at the floor slot count, the input of
    ``Router._relay_stage``'s stop rule: a link exactly there with an idle window of ``floor`` slots gets
    an ``availability_set`` entry needing ``floor`` slots, and one ulp below it gets no such entry, with
    that window or any other."""

    @pytest.mark.parametrize("rule", ["table3", "eqtext"])
    def test_a_link_at_the_floor_snr_reaches_the_floor(self, rule):
        thresholds = build_mode_table(1e-6, rule)
        for total_bits in (1, 14, 16, 24, 50, 200):
            for fixed in (None, *range(1, linkbudget.MAX_RATE + 1)):
                table = slot_table(thresholds, total_bits, fixed)
                at = make_link(2, table.floor_db, 100.0, table.floor)
                below = math.nextafter(table.floor_db, -math.inf)
                assert [e.slots_used for e in availability_set([at], table)] == [table.floor], (total_bits, fixed)
                for nu in (table.floor, math.inf):
                    entries = availability_set([at._replace(snr_db=below, nu_idle_slots=nu)], table)
                    assert all(e.slots_used > table.floor for e in entries), (total_bits, fixed, nu)


def test_mode_tables_against_the_usable_modes():
    """At every reach, ``SlotTable.cheapest`` (a relay's mode) is the least (slots, bits) and
    ``SlotTable.fastest`` (the destination's) the most bits among the modes ``usable_modes`` lists for
    a link at that reach; both None when it lists none."""
    for rule in ("table3", "eqtext"):
        thresholds = build_mode_table(1e-6, rule)
        for total_bits in (16, 24, 32):
            for fixed in (None, *range(1, linkbudget.MAX_RATE + 1)):
                table = slot_table(thresholds, total_bits, fixed)
                for reach in range(linkbudget.MAX_RATE + 1):
                    snr_db = thresholds[reach - 1] if reach else -math.inf
                    assert linkbudget.mode_bits(thresholds, snr_db) == reach
                    modes = [(linkbudget.transfer_slots(total_bits, bits), bits)
                             for bits in usable_modes(thresholds, snr_db, fixed)]
                    case = (rule, total_bits, fixed, reach)
                    assert table.cheapest[reach] == min(modes, default=None), case
                    assert table.fastest[reach] == max(modes, key=lambda m: m[1], default=None), case


def test_routes_build_no_candidate_link(monkeypatch):
    """Every hop kind is committed from a ``HopChoice``: a route under any policy builds no
    ``CandidateLink``, which only ``availability_set`` reads."""
    monkeypatch.setattr(router, "CandidateLink", None)
    cfg = SimConfig(coverage_m=60.0, iu_count=100, **LINE_ENDS)
    kinds = Counter()
    for seed in range(12):
        topo = generate_topology(cfg, np.random.default_rng((4310, seed)))
        for k, policy in enumerate(BASELINE_POLICIES.values()):
            ledger = Router(topo, _profiles_for(cfg), cfg, np.random.default_rng((4311, seed, k)), policy).run()
            kinds.update(hop.kind for hop in ledger.hops)
            kinds["reached"] += ledger.success
    assert min(kinds[kind] for kind in (*HopKind, "reached")) > 0, kinds


class TestSelectIu:
    """``select_entry`` picking among relay (IU) entries, and the destination over any of them."""

    def entries(self, taus_remainings):
        return [entry_for(make_link(2 + i, 25.0, rem, 100.0), tau, 8)
                for i, (tau, rem) in enumerate(taus_remainings)]

    def test_argmin_slots(self):
        aset = self.entries([(5, 100.0), (3, 300.0), (7, 50.0)])
        assert select_entry(aset).slots_used == 3

    def test_tie_break_least_remaining(self):
        aset = self.entries([(3, 250.0), (3, 200.0)])
        assert select_entry(aset).remaining_m == 200.0

    def test_tie_break_lower_id(self):
        aset = self.entries([(3, 200.0), (3, 200.0)])
        assert select_entry(aset).via == (2,)

    def test_singleton(self):
        aset = self.entries([(4, 100.0)])
        assert select_entry(aset).slots_used == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_entry([])

    def test_destination_beats_faster_iu(self):
        dest = entry_for(make_link(DEST_ID, 12.0, 0.0, math.inf), 6, 4)
        aset = self.entries([(2, 50.0)]) + [dest]
        assert select_entry(aset) is dest

    def test_equal_slot_modes_lowest_rate_wins(self):
        # 24 bits at 18.5 dB: rates 6 and 7 both need 4 slots, rate 8 is unusable
        aset = availability_set_by_enumeration([make_link(2, 18.5, 300.0, 1e9)], build_mode_table(1e-6), 24)
        chosen = select_entry(aset)
        assert (chosen.slots_used, chosen.rate) == (4, 6)


class TestDirectRouting:
    def test_dense_idle_line_uses_zero_reflectors(self):
        xs = [(50.0 * k, 200.0) for k in range(1, 8)]  # 50..350
        topo = build_topology(xs)
        cfg = line_config()
        led = route(topo, idle_law(len(xs), cfg), cfg, rng_for(100))
        assert led.success
        assert led.ris_count == 0
        assert all(h.kind is HopKind.DIRECT_IU for h in led.hops)
        assert led.trace().startswith("S → ") and led.trace().endswith(" → D")

    def test_no_iu_no_ris_failure(self):
        topo = build_topology([])
        cfg = line_config()
        led = route(topo, idle_law(0, cfg), cfg, rng_for(102))
        assert led.failure_reason is FailureReason.NO_IU_NO_RIS

    def test_direct_termination_at_destination(self):
        topo = build_topology([], src=(350.0, 200.0))
        cfg = line_config()
        led = route(topo, idle_law(0, cfg), cfg, rng_for(103))
        assert led.success
        assert led.hop_count == 1
        assert led.hops[0].via == (DEST_ID,)
        assert led.trace() == "S → D"

    def test_fixed_modulation_needs_more_slots(self):
        topo = build_topology([], src=(360.0, 200.0))
        cfg = line_config(packets=4)  # 32 bits
        full = route(topo, idle_law(0, cfg), cfg, rng_for(104), variant="full")
        fixed = route(topo, idle_law(0, cfg), cfg, rng_for(104), variant="fixed_mod")
        assert full.success and fixed.success
        assert full.hops[0].slots_used == 4  # 256-QAM
        assert fixed.hops[0].slots_used == 16  # pinned QPSK
        assert fixed.hops[0].rate == 2.0
        # the pinned mode is the config's
        cfg16 = line_config(packets=4, fixed_rate_bits=4)
        pinned16 = route(topo, idle_law(0, cfg16), cfg16, rng_for(104), variant="fixed_mod")
        assert (pinned16.hops[0].slots_used, pinned16.hops[0].rate) == (8, 4.0)

    def test_equal_slot_modes_destination_fastest_relay_lowest(self, monkeypatch):
        # 16 bits: b = 6 and b = 7 both need 3 slots, and every direct link reaches b = 7 but not b = 8
        cfg = line_config()
        thresholds = build_mode_table(cfg.target_ber, cfg.threshold_rule)
        monkeypatch.setattr(channel, "direct_snr", lambda *args: 10 ** ((thresholds[6] + thresholds[7]) / 20))
        topo = build_topology([(350.0, 200.0)], src=(300.0, 200.0))  # D, 100 m off, is out of S's sight
        led = route(topo, idle_law(1, cfg), cfg, rng_for(104))
        assert [(h.via, h.slots_used, h.rate) for h in led.hops] == [((2,), 3, 6.0), ((DEST_ID,), 3, 7.0)]


class TestReflectorFallback:
    def setup_single(self):
        # no relay reachable from S; R1 alone has qualifying idle users
        ius = [(90.0, 200.0), (100.0, 200.0), (150.0, 200.0), (200.0, 200.0),
               (250.0, 200.0), (300.0, 200.0), (350.0, 200.0)]
        riss = [(50.0, 200.0), (30.0, 240.0), (30.0, 160.0)]
        return build_topology(ius, riss)

    def test_single_reflection_chooses_lrd_endpoint(self):
        topo = self.setup_single()
        cfg = line_config()
        led = route(topo, idle_law(7, cfg), cfg, rng_for(105))
        assert led.success
        first = led.hops[0]
        assert first.kind is HopKind.SINGLE_RIS
        # equal slot counts: least remaining distance wins -> the 100 m IU
        assert first.via == (topo.first_ris_id, 3)
        assert led.trace().startswith("S → R1 → U2 → ")
        assert first.rate > 0

    def test_double_reflection_bridges_gap(self):
        ius = [(150.0, 200.0), (200.0, 200.0), (250.0, 200.0), (300.0, 200.0), (350.0, 200.0)]
        riss = [(50.0, 200.0), (100.0, 200.0)]
        topo = build_topology(ius, riss)
        cfg = line_config()
        led = route(topo, idle_law(5, cfg), cfg, rng_for(106))
        assert led.success
        first = led.hops[0]
        assert first.kind is HopKind.DOUBLE_RIS
        assert first.via == (topo.first_ris_id, topo.first_ris_id + 1, 2)
        assert led.trace().startswith("S → R1+R2 → U1")

    def test_single_only_fails_on_double_gap(self):
        ius = [(150.0, 200.0), (200.0, 200.0), (250.0, 200.0), (300.0, 200.0), (350.0, 200.0)]
        riss = [(50.0, 200.0), (100.0, 200.0)]
        topo = build_topology(ius, riss)
        cfg = line_config()
        led = route(topo, idle_law(5, cfg), cfg, rng_for(107), variant="single_ris")
        assert not led.success
        assert led.failure_reason is FailureReason.DEAD_END_AFTER_SINGLE_RIS  # the double stage never ran
        full = route(topo, idle_law(5, cfg), cfg, rng_for(107), variant="full")
        assert full.success

    def test_double_only_fails_without_adjacent_reflector(self):
        ius = [(100.0, 200.0), (150.0, 200.0), (200.0, 200.0), (250.0, 200.0),
               (300.0, 200.0), (350.0, 200.0)]
        riss = [(50.0, 200.0)]
        topo = build_topology(ius, riss)
        cfg = line_config()
        led = route(topo, idle_law(6, cfg), cfg, rng_for(108), variant="double_ris")
        assert not led.success
        assert led.failure_reason is FailureReason.DEAD_END_AFTER_DOUBLE_RIS
        full = route(topo, idle_law(6, cfg), cfg, rng_for(108), variant="full")
        assert full.success
        assert full.hops[0].kind is HopKind.SINGLE_RIS

    def test_variants_identical_on_relay_only_topology(self):
        xs = [(50.0 * k, 200.0) for k in range(1, 8)]
        topo = build_topology(xs)
        cfg = line_config(packets=1)  # 8 bits: QPSK transfer fits the idle window
        traces = set()
        for variant in ("full", "shannon", "single_ris", "double_ris", "fixed_mod"):
            led = route(topo, idle_law(7, cfg), cfg, rng_for(109), variant=variant)
            assert led.success
            traces.add(led.trace())
        assert len(traces) == 1


DRAWS = {"sample_fading": "gains", "sample_amplitudes": "amplitudes"}  # the channel's draws, by what they give


def recorded_draws(monkeypatch) -> list:
    """Record (what, shape, value) of every channel draw from now on, ``what`` as in ``DRAWS``."""
    draws = []

    def recorder(name):
        real = getattr(channel, name)
        return lambda n, k, rng: draws.append((DRAWS[name], n, real(n, k, rng))) or draws[-1][2]

    for name in DRAWS:
        monkeypatch.setattr(channel, name, recorder(name))
    return draws


def shapes(draws) -> list:
    return [(what, shape) for what, shape, _ in draws]


class TestDoubleStageDeadEnd:
    """The double stage ends before drawing anything when no endpoint behind the
    second surface could make forward progress."""

    origin = (200.0, 200.0)  # 200 m from D at (400, 200)
    riss = [(205.0, 255.0), (225.0, 310.0)]  # the first surface, then the one adjacent to it
    # behind the second surface; math.hypot puts it exactly 200 m from D (no progress),
    # np.hypot, the scan's distance, 1 ulp closer
    on_boundary = (268.3790697883004, 350.58529387097167)
    # behind the second surface; math.hypot puts it 1 ulp inside 200 m (progress), np.hypot does not
    inside_boundary = (268.81556516388173, 350.96570490256465)

    def router(self, iu):
        topo = build_topology([iu], self.riss)
        policy = BASELINE_POLICIES["double_ris"]
        cfg = line_config()
        r = Router(topo, idle_law(1, cfg), cfg, rng_for(120), policy=policy)
        assert r._scan(self.riss[1]) == (2,)  # the IU is in the second surface's half-disc
        return r

    def test_boundary_distances(self):
        dest = (400.0, 200.0)
        assert math.dist(self.on_boundary, dest) == math.dist(self.origin, dest) == 200.0
        assert math.dist(self.inside_boundary, dest) < 200.0

    def test_no_forward_endpoint_draws_nothing(self, monkeypatch):
        r = self.router(self.on_boundary)
        draws = recorded_draws(monkeypatch)
        before = r.rng.bit_generator.state
        assert r.ris_fallback(self.origin, RouteLedger()) is FailureReason.DEAD_END_AFTER_DOUBLE_RIS
        assert draws == []
        assert r.rng.bit_generator.state == before

    def test_busy_forward_endpoint_draws_no_h_mid(self, monkeypatch):
        r = self.router(self.inside_boundary)
        r.field.state[:] = traffic.BUSY  # observed at slot 0, so read without a draw
        draws = recorded_draws(monkeypatch)
        before = r.rng.bit_generator.state
        assert r.ris_fallback(self.origin, RouteLedger()) is FailureReason.DEAD_END_AFTER_DOUBLE_RIS
        assert draws == []
        assert r.rng.bit_generator.state == before

    def test_idle_forward_endpoint_draws_h_in_h_mid_then_h_out(self, monkeypatch):
        r = self.router(self.inside_boundary)
        r.field.state[:] = traffic.IDLE
        draws = recorded_draws(monkeypatch)
        r.ris_fallback(self.origin, RouteLedger())
        assert shapes(draws) == [("amplitudes", 250), ("gains", (250, 250)), ("amplitudes", 250)]


class TestSingleStageDraws:
    """A surface draws its ``h_in`` only once one of its endpoints is evaluated, and the double stage
    reuses the first surface's; every ``h_in`` and ``h_out`` is drawn as amplitudes."""

    def router(self, iu_state, ius=((180.0, 200.0),), riss=((150.0, 200.0),), policy="single_ris", **cfg):
        # S at (100, 200) sees no relay; R1 at (150, 200) sees U1 at (180, 200), 80 m closer to D
        topo = build_topology(list(ius), list(riss), src=(100.0, 200.0))
        cfg = line_config(**cfg)
        r = Router(topo, idle_law(len(ius), cfg), cfg, rng_for(122), policy=BASELINE_POLICIES[policy])
        r.field.state[:] = iu_state  # observed at slot 0, so read without a draw
        return r

    def test_no_idle_forward_endpoint_draws_no_h_in(self, monkeypatch):
        r = self.router(traffic.BUSY)
        draws = recorded_draws(monkeypatch)
        before = r.rng.bit_generator.state
        assert r.ris_fallback(r._point(SOURCE_ID), RouteLedger()) is FailureReason.DEAD_END_AFTER_SINGLE_RIS
        assert draws == []
        assert r.rng.bit_generator.state == before

    def test_idle_forward_endpoint_draws_h_in_then_h_out(self, monkeypatch):
        r = self.router(traffic.IDLE)
        draws = recorded_draws(monkeypatch)
        entry = r.ris_fallback(r._point(SOURCE_ID), RouteLedger())
        assert entry.via == (r.topo.first_ris_id, 2)
        assert shapes(draws) == [("amplitudes", 250), ("amplitudes", 250)]

    def test_a_later_surface_draws_amplitudes_only(self, monkeypatch):
        # R1 at (150, 200) sees nothing; R2 at (130, 150), scanned second, sees U1 at (170, 120)
        r = self.router(traffic.IDLE, riss=((150.0, 200.0), (130.0, 150.0)), ius=((170.0, 120.0),))
        assert r._scan(r._point(SOURCE_ID), r.topo.ris_ids) == (3, 4) and r._scan((150.0, 200.0)) == ()
        draws = recorded_draws(monkeypatch)
        entry = r.ris_fallback(r._point(SOURCE_ID), RouteLedger())
        assert entry.via == (4, 2)
        assert shapes(draws) == [("amplitudes", 250), ("amplitudes", 250)]

    def test_double_stage_reuses_the_first_surfaces_h_in(self, monkeypatch):
        # at +100 dBm noise no rate is positive: the single stage evaluates U1 behind R1 and fails, and
        # the double stage runs from R1 over R2 at (200, 200), out of S's sight, to U2 at (240, 200)
        r = self.router(traffic.IDLE, ius=((180.0, 200.0), (240.0, 200.0)),
                        riss=((150.0, 200.0), (200.0, 200.0)), policy="full", noise_dbm=100.0)
        assert r._scan(r._point(SOURCE_ID), r.topo.ris_ids) == (4,) and r._scan((200.0, 200.0)) == (3,)
        draws, aligned = recorded_draws(monkeypatch), []
        real_align = channel.alternating_double_phases
        monkeypatch.setattr(channel, "alternating_double_phases",
                            lambda h_in, h_mid, h_out: aligned.append(h_in) or real_align(h_in, h_mid, h_out))
        assert r.ris_fallback(r._point(SOURCE_ID), RouteLedger()) is FailureReason.DEAD_END_AFTER_DOUBLE_RIS
        assert shapes(draws) == [("amplitudes", 250), ("amplitudes", 250), ("gains", (250, 250)), ("amplitudes", 250)]
        assert aligned == [draws[0][2]] and aligned[0] is draws[0][2]


class TestDeferral:
    def test_wait_then_transmit(self):
        # lone busy relay with a short ON mean: wait, rescan, use it
        ius = [(50.0, 200.0)] + [(50.0 * k, 200.0) for k in range(2, 8)]
        topo = build_topology(ius)
        cfg = line_config()
        lam, mu = np.full(7, 1e6), np.full(7, 4e-3)
        lam[0], mu[0] = 4e-3, 0.6e-3
        r = Router(topo, traffic_law(lam, mu, cfg), cfg, rng_for(110))
        r.field.state[:] = 0
        r.field.state[0] = 1  # force the gatekeeper busy
        led = r.run()
        assert led.hops[0].kind is HopKind.WAIT
        eta = math.ceil(traffic.idle_wait_estimate(0.6e-3, cfg.slot_s, cfg.p_th))
        assert led.hops[0].slots_used == eta
        assert led.hops[1].kind is HopKind.DIRECT_IU
        assert led.hops[1].via == (2,)
        assert led.success

    def test_no_second_wait_at_same_position(self):
        # deferral happens at most once per position: never two consecutive
        # WAIT entries in any ledger
        cfg = SimConfig(delta=0.1, iu_count=60, **LINE_ENDS)
        for seed in range(6):
            rng = rng_for(111, seed)
            topo = generate_topology(cfg, rng)
            led = route(topo, traffic_law(np.full(60, 4e-3), np.full(60, 4e-3), cfg), cfg, rng)
            kinds = [h.kind for h in led.hops]
            assert not any(a is HopKind.WAIT and b is HopKind.WAIT for a, b in zip(kinds, kinds[1:]))


class TestSafetyInvariants:
    def ledgers(self):
        cfg = SimConfig(delta=0.3, iu_count=150, coverage_m=45.0, **LINE_ENDS)
        out = []
        for seed in range(25):
            rng = rng_for(112, seed)
            topo = generate_topology(cfg, rng)
            out.append((cfg, route(topo, traffic_law(np.full(150, 4e-3), np.full(150, 4e-3), cfg), cfg, rng)))
        return out

    def test_monotone_progress_and_delay_safety(self):
        saw_success = 0
        for cfg, led in self.ledgers():
            rem = [h.remaining_m for h in led.hops if h.kind is not HopKind.WAIT]
            assert all(a > b for a, b in zip(rem, rem[1:]))
            if led.success:
                saw_success += 1
                assert led.total_slots * cfg.slot_s <= cfg.total_delay_s + 1e-12
                assert rem[-1] == 0.0
        assert saw_success >= 15

    def test_no_triple_reflections(self):
        for _, led in self.ledgers():
            for h in led.hops:
                assert len(h.via) <= 3
                if h.kind is HopKind.DOUBLE_RIS:
                    assert len(h.via) == 3

    def test_byte_determinism(self):
        cfg = SimConfig(delta=0.3, iu_count=150, coverage_m=45.0, **LINE_ENDS)
        rows = []
        for _ in range(2):
            rng = rng_for(113)
            topo = generate_topology(cfg, rng)
            rows.append(route(topo, traffic_law(np.full(150, 4e-3), np.full(150, 4e-3), cfg), cfg, rng).to_rows())
        assert rows[0] == rows[1]


class TestMobilityOutage:
    def test_counterpart_leaving_coverage_aborts(self):
        topo = build_topology([(59.5, 200.0)], dst=(400.0, 200.0))
        cfg = line_config()
        found = False
        for seed in range(12):
            r = Router(topo, idle_law(1, cfg), cfg, rng_for(114, seed),
                       mobility=MobilityField(np.array([[59.5, 200.0]]), 400.0,
                                              20000.0, rng_for(115, seed)))
            led = r.run()
            if led.failure_reason is FailureReason.OUTAGE:
                found = True
                break
        assert found

    def test_zero_speed_field_is_static(self):
        topo = build_topology([(50.0, 200.0), (100.0, 200.0), (150.0, 200.0),
                               (200.0, 200.0), (250.0, 200.0), (300.0, 200.0), (350.0, 200.0)])
        cfg = line_config()
        static = route(topo, idle_law(7, cfg), cfg, rng_for(116))
        mob = MobilityField(topo.iu_xy, 400.0, 0.0, rng_for(117))
        moving = route(topo, idle_law(7, cfg), cfg, rng_for(116), mobility=mob)
        assert static.to_rows() == moving.to_rows()


class TestMobileOrigin:
    """A mobile route transmits from where the packet is: the IU holding it walks on through a
    deferral and the reflector decision slot, and each stage scans from its current row."""

    def test_every_stage_starts_at_the_holders_row(self, monkeypatch):
        cfg = SimConfig(coverage_m=30.0, iu_count=400, **LINE_ENDS)
        relay, fallback, commit = Router._relay_stage, Router.ris_fallback, Router._commit
        holder, stages = [SOURCE_ID], []

        def at_holder(stage):
            def checked(router, origin, *ledger):
                assert origin == router._point(holder[0]), (stage, holder[0])
                stages.append(stage)
                return (relay if stage == "relay" else fallback)(router, origin, *ledger)
            return checked

        def tracked_commit(router, origin, entry, ledger):
            endpoint = commit(router, origin, entry, ledger)
            if not isinstance(endpoint, FailureReason):
                holder[0] = entry.via[-1]
            return endpoint

        monkeypatch.setattr(Router, "_relay_stage", at_holder("relay"))
        monkeypatch.setattr(Router, "ris_fallback", at_holder("fallback"))
        monkeypatch.setattr(Router, "_commit", tracked_commit)
        waits = 0
        for seed in range(6):
            topo = generate_topology(cfg, rng_for(180, seed))
            walk = MobilityField(topo.iu_xy, cfg.arena_m, 20.0, rng_for(181, seed))
            holder[0] = SOURCE_ID
            ledger = Router(topo, _profiles_for(cfg), cfg, rng_for(182, seed), mobility=walk).run()
            waits += sum(hop.kind is HopKind.WAIT for hop in ledger.hops)
        assert waits > 0 and "fallback" in stages  # the walk went on through both kinds of wait


class TestNodeTable:
    def test_static_router_reads_the_topology_table(self):
        topo = build_topology([(50.0, 200.0)], [(30.0, 200.0)])
        r = Router(topo, idle_law(1, line_config()), line_config(), rng_for(119))
        assert r.xy is topo.xy

    def test_walk_moves_only_the_routers_iu_rows(self):
        topo = build_topology([(50.0, 200.0), (120.0, 210.0)], [(30.0, 200.0)])
        walk = MobilityField(topo.iu_xy, 400.0, 20.0, rng_for(121))
        r = Router(topo, idle_law(2, line_config()), line_config(), rng_for(119), mobility=walk)
        before = topo.xy.copy()
        r._tick(500)
        assert np.array_equal(topo.xy, before)  # the topology never moves
        assert np.array_equal(r.xy[2:4], walk.xy) and not np.array_equal(r.xy[2:4], before[2:4])
        assert np.array_equal(r.xy[[0, 1, 4]], before[[0, 1, 4]])  # S, D and the RIS stay


class TestLedgerOutput:
    def sample(self):
        # U1..U9 are ids 2..10, R1..R4 ids 11..14
        topo = build_topology([(40.0 * k, 100.0) for k in range(1, 10)], [(40.0 * k, 300.0) for k in range(1, 5)])
        led = RouteLedger(total_delay_s=0.05, slot_s=1e-4, psi=7, topo=topo)
        led.hops = [
            HopChoice((11, 4), 3, 11.2, 1e-9, 300.0),
            HopChoice((), 14, 0.0, 0.0, 300.0),
            HopChoice((13, 14, 6), 3, 9.8, 1e-9, 200.0),
            HopChoice((8,), 4, 8.0, 2e-9, 100.0),
            HopChoice((10,), 4, 8.0, 2e-9, 50.0),
            HopChoice((1,), 4, 8.0, 0.0, 0.0),
        ]
        led.total_slots = 32
        return led

    def test_trace_notation(self):
        assert self.sample().trace() == "S → R1 → U3 → R3+R4 → U5 → U7 → U9 → D"

    def test_counts(self):
        led = self.sample()
        assert led.ris_count == 3  # one single + one double
        assert led.hop_count == 5

    def test_rows_schema(self):
        rows = self.sample().to_rows()
        # a hop's kind is read off the nodes it names, a route's outcome off its failure reason
        assert [row["kind"] for row in rows[:-1]] == ["single_ris", "wait", "double_ris"] + ["direct_iu"] * 3
        assert rows[-1]["index"] == "summary"
        assert rows[-1]["kind"] == "success"
        assert rows[-1]["slots"] == 32
        assert [row["ids"] for row in rows] == ["R1+U3", "", "R3+R4+U5", "U7", "U9", "D",
                                                "S → R1 → U3 → R3+R4 → U5 → U7 → U9 → D"]
        for row in rows:
            assert set(row) == {"index", "kind", "ids", "slots", "rate",
                                "harvested_J", "remaining_distance_m"}
        failed = self.sample()
        failed.failure_reason = FailureReason.OUTAGE
        assert not failed.success and failed.to_rows()[-1]["kind"] == "fail:outage"


class TestCommitProgress:
    """The hop commit takes one entry shape for every hop kind; it refuses a hop
    that ends no closer to D, also under ``python -O``, and reports an overrun."""

    def check(self):
        topo = build_topology([(50.0, 200.0)], [(30.0, 200.0), (40.0, 200.0)])  # U1 is id 2, R1 3, R2 4
        r = Router(topo, idle_law(1, line_config()), line_config(), rng_for(118))
        origin = (100.0, 200.0)  # 300 m from D
        stuck = make_link(2, 25.0, 300.0, 1e9)
        closer = make_link(2, 25.0, 350.0, 1e9)
        overrun = r.cfg.total_delay_s / r.cfg.slot_s + 1
        for surfaces, kind in (((), HopKind.DIRECT_IU), ((3,), HopKind.SINGLE_RIS), ((3, 4), HopKind.DOUBLE_RIS)):
            led = RouteLedger()
            with pytest.raises(ValueError, match="no closer"):
                r._commit(origin, entry_for(stuck, 3, 8.0, surfaces), led)
            assert led.hops == [] and r.clock == 0
            far = (10.0, 200.0)
            reason = r._commit(far, entry_for(closer, int(overrun), 8.0, surfaces), led)
            assert reason is FailureReason.DELAY_EXCEEDED
            assert led.hops == [] and r.clock == 0
            # the same hop from farther out commits: clock, ledger and endpoint
            end = r._commit(far, entry_for(closer, 3, 8.0, surfaces), led)
            assert end == (50.0, 200.0) and r.clock == 3
            hop = led.hops[-1]
            assert (hop.kind, hop.via) == (kind, (*surfaces, 2))
            assert (hop.slots_used, hop.rate) == (3, 8.0)
            assert hop.harvested_j > 0.0
            r.clock = 0

    def test_non_progressing_link_raises(self):
        self.check()

    def test_raises_with_asserts_stripped(self):
        tests = str(Path(__file__).resolve().parent)
        code = (f"import sys; sys.path.insert(0, {tests!r}); import test_router; "
                "test_router.TestCommitProgress().check()")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


MAX_GAIN = 1e6  # a fading amplitude far beyond any draw: an endpoint reached through it qualifies


class ExhaustiveRouter(Router):
    """The router whose relay and single-reflection stages evaluate every candidate: the oracle the
    stopping stages must match. Its relay stage draws as the router's does, builds a link to every idle
    IU that makes forward progress and picks the hop by ``select_entry`` over their
    ``availability_set``. Its single stage draws
    nothing: it reads ``draws``, a lazy stage's ``h_in`` by surface id and ``h_out`` by (surface id,
    endpoint id), and reaches a surface or endpoint missing there at ``MAX_GAIN`` (``skipped``
    counts those reads), leaving its ``incoming`` table as it was. Every scan of its table is fresh,
    so a memoized scan is checked too."""

    draws: dict = {}
    skipped = 0

    def _scan(self, center, ids=None):
        ids = self.topo.relay_ids if ids is None else ids
        return tuple(topology.half_circle_scan(self.xy, ids, center, self.dest, self.cfg.coverage_m))

    def _relay_stage(self, origin):
        found, cfg, dest = self._scan(origin), self.cfg, self.dest
        if DEST_ID in found:
            amp = channel.sample_amplitudes(1, cfg.rician_k_db, self.rng).tolist()[0]
            link = link_at(DEST_ID, channel.direct_snr(cfg, amp, math.dist(origin, dest)), 0.0, math.inf)
            if mode := self.slots.fastest[linkbudget.mode_bits(self.slots.thresholds_db, link.snr_db)]:
                return entry_for(link, *mode), []
        idle, busy = self._split_idle_busy(found)
        links = []
        if len(idle):
            amplitudes = channel.sample_amplitudes(len(idle), cfg.rician_k_db, self.rng).tolist()
            nus = self.field.law.nu_idle[idle - FIRST_IU_ID].tolist()
            for node_id, pos, amp, nu in zip(idle.tolist(), self.xy[idle].tolist(), amplitudes, nus):
                if (remaining := math.dist(pos, dest)) < math.dist(origin, dest):
                    links.append(link_at(node_id, channel.direct_snr(cfg, amp, math.dist(origin, pos)), remaining, nu))
        aset = availability_set(links, self.slots)
        return (select_entry(aset), []) if aset else (None, busy.tolist())

    def _gains(self, key):
        if key in self.draws:
            return self.draws[key]
        self.skipped += 1
        return np.full(self.cfg.ris_elements, MAX_GAIN)

    def _single_stage(self, origin, candidates, incoming):
        best = None  # ((progress, ris_id), entry)
        for ris_id in candidates:
            ris_pos = self._point(ris_id)
            found = self._scan(ris_pos)
            entries = []
            idle = {DEST_ID, *self._split_idle_busy(found)[0].tolist()}
            for endpoint in (e for e in self._forward(found, origin) if e[0] in idle):
                gamma = channel.optimal_single_reflection_snr(
                    self.cfg, self._gains(ris_id), self._gains((ris_id, endpoint[0])),
                    math.dist(origin, ris_pos), math.dist(ris_pos, endpoint[1]))
                if (entry := self._reflected_entry(endpoint, gamma, (ris_id,))) is not None:
                    entries.append(entry)
            if entries:
                key = (min(e.remaining_m for e in entries), ris_id)
                if best is None or key < best[0]:
                    best = (key, select_entry(entries))
        return None if best is None else best[1]


@contextlib.contextmanager
def recorded_snrs():
    """A list of the (amplitude, distance, SNR) of every ``channel.direct_snr`` call within the block."""
    real, calls = channel.direct_snr, []

    def wrapper(cfg, h, d):
        calls.append((h, d, real(cfg, h, d)))
        return calls[-1][2]

    channel.direct_snr = wrapper
    try:
        yield calls
    finally:
        channel.direct_snr = real


def evaluated_links(router, origin, calls):
    """The links a relay stage of ``router`` evaluated from ``origin``, rebuilt from its ``recorded_snrs``:
    each call's node is the one in sight of ``origin`` at the call's distance."""
    by_distance = {}
    for i in router._scan(origin):
        by_distance.setdefault(math.dist(origin, router._point(i)), []).append(i)
    links = []
    for _, d, snr in calls:
        (node_id,) = by_distance[d]
        nu = math.inf if node_id == DEST_ID else float(router.field.law.nu_idle[node_id - FIRST_IU_ID])
        links.append(link_at(node_id, snr, math.dist(router._point(node_id), router.dest), nu))
    return links


def check_one_pass(router, links, got):
    """A relay stage's entry ``got`` is the destination's at its fastest mode when that is usable, else
    ``select_entry`` over the ``availability_set`` of the IU links among ``links``, the links it
    evaluated, and None exactly when that set is empty; it evaluated only links to IUs whose idle
    window holds the floor, the destination's first. Returns the IU links evaluated."""
    table = router.slots
    relays = [link for link in links if link.node_id != DEST_ID]
    assert all(link.nu_idle_slots >= table.floor for link in relays)
    if len(relays) < len(links):
        assert len(relays) == len(links) - 1 and links[0].node_id == DEST_ID
        mode = table.fastest[linkbudget.mode_bits(table.thresholds_db, links[0].snr_db)]
        if mode:
            assert got == entry_for(links[0], *mode) and not relays
            return relays
    aset = availability_set(relays, table)
    assert (got is None) == (not aset)
    assert got == (select_entry(aset) if aset else None)
    return relays


def same_field(a, b) -> bool:
    return np.array_equal(a.state, b.state) and np.array_equal(a.updated_at, b.updated_at)


class StageOracle:
    """Checks every relay and single-reflection stage ``router`` runs against an ``ExhaustiveRouter``
    set to the router's state.

    A relay stage must give the oracle's entry, draws and traffic observations, and pick its entry as
    ``check_one_pass`` says from the links it evaluated, never one to an IU whose idle window is below
    the floor (the oracle evaluates every forward link). A single stage must
    observe once, before any draw: every IU in sight of a candidate surface, first seen first. It is
    evaluated by the oracle over the lazy stage's draws and over the traffic field as the stage left
    it (so the oracle's observations read the same states and draw nothing), with ``MAX_GAIN`` for
    every surface and endpoint the lazy stage skipped. Both must pick the same hop, and the oracle
    must leave its generator untouched. Every draw of the lazy stage must be read and is an amplitude
    draw, and the stage's ``incoming`` table, empty before it, holds each ``h_in`` it drew, by surface,
    and nothing else: the double stage reads the first surface's there. Replaying its
    observation and draws, in order, from where the stage began must leave the generator and the
    field where the stage left them: nothing else advanced them.
    """

    def __init__(self, router):
        self.router = router
        self.oracle = ExhaustiveRouter(router.topo, router.field.law, router.cfg, rng_for(0), policy=router.policy)
        self.oracle.xy = router.xy  # a walk moves both
        self.relay_stages = self.single_stages = 0
        self.links = np.zeros(2, dtype=int)  # direct links evaluated: by the router, by the oracle
        self.iu_links = 0  # links to IUs the router's relay stages evaluated
        self.relay, self.single = router._relay_stage, router._single_stage
        router._relay_stage, router._single_stage = self.relay_stage, self.single_stage

    def sync(self, field, rng):
        self.oracle.clock = self.router.clock
        self.oracle.field, self.oracle.rng = copy.deepcopy(field), copy.deepcopy(rng)

    def relay_stage(self, origin):
        r = self.router
        self.sync(r.field, r.rng)
        with recorded_snrs() as oracle_calls:
            want = self.oracle._relay_stage(origin)
        with recorded_snrs() as calls:
            got = self.relay(origin)
        assert got == want
        self.iu_links += len(check_one_pass(r, evaluated_links(r, origin, calls), got[0]))
        assert r.rng.bit_generator.state == self.oracle.rng.bit_generator.state
        assert same_field(r.field, self.oracle.field)
        self.relay_stages += 1
        self.links += (len(calls), len(oracle_calls))
        return got

    def single_stage(self, origin, candidates, incoming):
        r = self.router
        assert not incoming
        field_before, rng_before = copy.deepcopy(r.field), copy.deepcopy(r.rng)
        events, draws = [], {}  # events: (function name, arguments but the generator, result)
        real = {name: getattr(channel, name) for name in DRAWS}
        real_observe, real_surface = r.field.states_at, r._single_surface

        def recorder(name):
            def draw(n, k, rng):
                events.append((name, (n, k), real[name](n, k, rng)))
                return events[-1][2]
            return draw

        def observe(slot, indices, rng):
            events.append(("states_at", (slot, np.array(indices)), None))
            return real_observe(slot, indices, rng)

        def surface(origin, ris_id, endpoints, incoming):
            entry_at = real_surface(origin, ris_id, endpoints, incoming)

            def recorded(i):
                before = len(events)
                entry = entry_at(i)
                made = [value for name, _, value in events[before:] if name != "states_at"]
                if made:  # a first evaluation: the surface's h_in unless drawn already, then the endpoint's h_out
                    *h_in, draws[ris_id, endpoints[i][0]] = made
                    if h_in:
                        (draws[ris_id],) = h_in
                return entry

            return recorded

        for name in DRAWS:
            setattr(channel, name, recorder(name))
        r.field.states_at, r._single_surface = observe, surface
        try:
            got = self.single(origin, candidates, incoming)
        finally:
            for name, draw in real.items():
                setattr(channel, name, draw)
            del r.field.states_at, r._single_surface
        in_sight = [i for ris_id in candidates for i in self.oracle._scan(self.oracle._point(ris_id))]
        assert [name for name, _, _ in events].count("states_at") == 1 and events[0][0] == "states_at"
        assert events[0][1][1].tolist() == list(dict.fromkeys(i - FIRST_IU_ID for i in in_sight if i != DEST_ID))
        self.sync(r.field, rng_before)
        self.oracle.draws = draws
        assert got == self.oracle._single_stage(origin, candidates, {})
        assert self.oracle.rng.bit_generator.state == rng_before.bit_generator.state
        made = [value for name, _, value in events if name != "states_at"]
        assert sorted(map(id, made)) == sorted(map(id, draws.values()))  # every draw is read
        assert {d.dtype.kind for d in draws.values()} <= {"f"}
        assert incoming.keys() == {k for k in draws if isinstance(k, int)}
        assert all(h_in is draws[ris_id] for ris_id, h_in in incoming.items())
        for name, args, value in events:
            if name == "states_at":
                field_before.states_at(*args, rng_before)
            else:
                assert np.array_equal(getattr(channel, name)(*args, rng_before), value)
        assert rng_before.bit_generator.state == r.rng.bit_generator.state
        assert same_field(field_before, r.field)
        self.single_stages += 1
        return got


class TestStopRulesMatchExhaustiveStages:
    """The relay and single-reflection stages stop evaluating once no later candidate can win, and
    pick the hop of the stages that evaluate everything (``StageOracle``)."""

    GRID = {30.0: 100, 60.0: 400, 90.0: 900}  # coverage radius -> IUs, the benchmark's grid points

    @staticmethod
    def checked_runs(cfg, topos, policy, mobile=False):
        """Route once on each topology under ``StageOracle``: (relay stages, single stages, oracle
        reads at ``MAX_GAIN``), summed."""
        counts = np.zeros(3, dtype=int)
        for seed, topo in enumerate(topos):
            walk = MobilityField(topo.iu_xy, cfg.arena_m, 20.0, rng_for(141, seed)) if mobile else None
            r = Router(topo, _profiles_for(cfg), cfg, rng_for(140, seed), policy=policy, mobility=walk)
            check = StageOracle(r)
            r.run()
            counts += (check.relay_stages, check.single_stages, check.oracle.skipped)
        return counts

    @pytest.mark.parametrize("coverage", sorted(GRID))
    @pytest.mark.parametrize("variant", sorted(BASELINE_POLICIES))
    def test_same_stages_on_seeded_topologies(self, coverage, variant):
        cfg = SimConfig(coverage_m=coverage, iu_count=self.GRID[coverage], **LINE_ENDS)
        topos = [generate_topology(cfg, rng_for(139, coverage, seed)) for seed in range(4)]
        relay, single, skipped = self.checked_runs(cfg, topos, BASELINE_POLICIES[variant])
        assert relay >= len(topos)
        if coverage == 30.0 and variant != "double_ris":  # sparse: most positions reach the single stage
            assert single >= 4 and skipped >= 1

    def test_same_stages_with_moving_ius(self):
        cfg = SimConfig(coverage_m=50.0, iu_count=400, **LINE_ENDS)
        topos = [generate_topology(cfg, rng_for(142, seed)) for seed in range(4)]
        relay, _, _ = self.checked_runs(cfg, topos, BASELINE_POLICIES["full"], mobile=True)
        assert relay >= 8

    def direct_evaluations(self, variant):
        """Direct links the relay stages of three dense routes evaluate (their ``channel.direct_snr``
        calls), by the router and by the oracle, and the router's links to IUs among them."""
        cfg = SimConfig(coverage_m=90.0, iu_count=900, **LINE_ENDS)
        links, iu_links = np.zeros(2, dtype=int), 0
        for seed in range(3):
            topo = generate_topology(cfg, rng_for(143, seed))
            r = Router(topo, _profiles_for(cfg), cfg, rng_for(144, seed), policy=BASELINE_POLICIES[variant])
            check = StageOracle(r)
            r.run()
            links += check.links
            iu_links += check.iu_links
        return *links.tolist(), iu_links

    def test_dense_relay_stage_evaluates_fewer_links(self):
        lazy, exhaustive, iu_links = self.direct_evaluations("full")
        assert lazy * 2 < exhaustive and 0 < iu_links <= lazy

    def test_fixed_mod_never_reaches_the_floor(self):
        # the pinned QPSK needs 16 slots, more than any default idle window, so no relay
        # qualifies: the relay stages evaluate no IU link (only the destination's, when in
        # sight), while the oracle evaluates every forward link
        cfg = SimConfig()
        table = slot_table(build_mode_table(cfg.target_ber, cfg.threshold_rule), cfg.total_bits, cfg.fixed_rate_bits)
        assert table.floor == 16 > _profiles_for(cfg).nu_idle.max()
        lazy, exhaustive, iu_links = self.direct_evaluations("fixed_mod")
        assert iu_links == 0 and exhaustive > lazy


class TestOnePassAgainstAvailabilitySet:
    """On every relay stage of 200 routes a table, the one pass's entry is ``select_entry`` over the
    ``availability_set`` of the links it evaluated (``check_one_pass``). The sparse table at 90 m has
    stages whose every evaluated link fails the availability constraint."""

    TABLES = {"dense-relay": (90.0, 900), "default": (60.0, 400), "sparse-wide": (90.0, 100)}

    @pytest.mark.parametrize("variant", ["full", "fixed_mod"])
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_every_relay_stage(self, table, variant):
        coverage, iu_count = self.TABLES[table]
        cfg = SimConfig(coverage_m=coverage, iu_count=iu_count)
        seen = Counter()
        for seed in range(200):
            topo = generate_topology(cfg, rng_for(145, coverage, seed))
            r = Router(topo, _profiles_for(cfg), cfg, rng_for(146, seed), policy=BASELINE_POLICIES[variant])
            stage = r._relay_stage

            def checked(origin):
                with recorded_snrs() as calls:
                    entry, busy = stage(origin)
                relays = check_one_pass(r, evaluated_links(r, origin, calls), entry)
                seen["rejected links"] += len(relays) - len(availability_set(relays, r.slots))
                seen["destination" if entry and entry.via[-1] == DEST_ID else "relay" if entry
                     else "none after relay links" if relays else "none"] += 1
                return entry, busy

            r._relay_stage = checked
            r.run()
        assert seen["destination"] >= 50, seen
        if variant == "full":
            assert seen["relay"] >= 200 and seen["rejected links"] >= 50, seen
            assert seen["none after relay links"] >= (50 if table == "sparse-wide" else 0), seen
        else:  # no relay reaches the pinned mode's floor (TestStopRulesMatchExhaustiveStages)
            assert seen["relay"] == seen["none after relay links"] == 0 and seen["none"] >= 100, seen


def relay_pick(iu_xy, seed=150):
    """The relay stage's entry from S at (330, 200), D at (400, 200), 70 m away and out of sight,
    by ``Router`` and by ``ExhaustiveRouter`` over the same draws."""
    cfg = line_config()
    topo = build_topology(iu_xy, src=(330.0, 200.0))
    picks = []
    for cls in (Router, ExhaustiveRouter):
        r = cls(topo, idle_law(len(iu_xy), cfg), cfg, rng_for(seed))
        picks.append((r._relay_stage(r._point(SOURCE_ID)), r.rng.bit_generator.state))
    return picks


class TestRelayScanOrderAgainstDistance:
    """IUs 40 m from D whose ``math.dist`` order reverses their ``np.hypot`` (scan) order: ``np.hypot``
    puts each exactly at 40 m, so the scan lists them by id, while ``math.dist`` puts them 1 ulp
    either side of 40 m or on it. Every one reaches the floor (256-QAM, 2 slots)."""

    dest = (400.0, 200.0)
    on = (360.01047491165775, 200.91535960630026)  # math.dist: exactly 40 m
    above = (361.50217790675873, 189.14100860682058)  # math.dist: 1 ulp above 40 m
    below = (360.6095895877299, 206.95669228534092)  # math.dist: 1 ulp below 40 m

    def test_the_two_distances_disagree(self):
        for point, dist in ((self.on, 40.0), (self.above, math.nextafter(40.0, 50.0)),
                            (self.below, math.nextafter(40.0, 0.0))):
            assert math.dist(point, self.dest) == dist
            assert np.hypot(point[0] - self.dest[0], point[1] - self.dest[1]) == 40.0
        r = Router(build_topology([self.above, self.below, self.on], src=(330.0, 200.0)),
                   idle_law(3, line_config()), line_config(), rng_for(150))
        assert r._scan(r._point(SOURCE_ID)) == (2, 3, 4)  # equal np.hypot distances, by id

    def test_nearer_later_relay_wins(self):
        # scan order: 1 ulp above, then 1 ulp below; the second is the hop
        (got, state), want = relay_pick([self.above, self.below])
        assert (got, state) == want
        assert got[0].via == (3,) and got[0].slots_used == 2

    def test_stop_looks_past_a_link_just_beyond_the_floor_entry(self):
        # the first floor entry is at 40 m, the next link 1 ulp beyond it and the last 1 ulp
        # inside it: only the margin keeps the scan going to the last, the hop
        (got, state), want = relay_pick([self.on, self.above, self.below])
        assert (got, state) == want
        assert got[0].via == (4,) and got[0].slots_used == 2


class TestSingleStageAgainstExhaustive:
    """Constructed reflector stages: the stopping stage picks the exhaustive stage's surface and
    entry (``StageOracle``)."""

    @staticmethod
    def pick(topo, cfg, n_ius, seed=151):
        r = Router(topo, idle_law(n_ius, cfg), cfg, rng_for(seed))
        origin = r._point(SOURCE_ID)
        assert r._relay_stage(origin)[0] is None
        check = StageOracle(r)
        outcome = r.ris_fallback(origin, RouteLedger())
        assert check.single_stages == 1
        return outcome

    @pytest.mark.parametrize("near_first", [True, False], ids=["ids-in-lrd-order", "ids-out-of-lrd-order"])
    def test_one_endpoint_seen_from_two_surfaces(self, near_first):
        # U1 lies behind both surfaces, so both keys share its remaining distance: the lower id wins,
        # whether the scan reaches it first (ids in LRD order) or second
        near, far = (150.0, 210.0), (130.0, 180.0)
        topo = build_topology([(180.0, 195.0)], [near, far] if near_first else [far, near], src=(100.0, 200.0))
        r = Router(topo, idle_law(1, line_config()), line_config(), rng_for(151))
        scan = r._scan(r._point(SOURCE_ID), r.topo.ris_ids)
        assert [r.xy[i].tolist() for i in scan] == [list(near), list(far)]
        assert all(2 in r._scan(tuple(r.xy[i].tolist())) for i in scan)
        entry = self.pick(topo, line_config(), 1)
        assert entry.via == (topo.first_ris_id, 2)

    def test_destination_behind_a_later_surface(self):
        # at -40 dBm noise the destination is in sight of both surfaces but only the one scanned
        # second, nearer the source, reaches it at a positive rate; the first reaches U1
        cfg = line_config(noise_dbm=-40.0)
        topo = build_topology([(390.0, 215.0)], [(380.0, 225.0), (342.0, 200.0)], src=(330.0, 200.0))
        entry = self.pick(topo, cfg, 1)
        assert entry.via == (topo.first_ris_id + 1, DEST_ID)
        r = Router(topo, idle_law(1, cfg), cfg, rng_for(151))
        first = r._scan(r._point(SOURCE_ID), r.topo.ris_ids)[0]
        assert first == topo.first_ris_id and DEST_ID in r._scan(r._point(first))

    def test_surface_key_looks_past_an_endpoint_just_beyond_its_nearest(self):
        # R1, scanned first, sees the three IUs 40 m from D of TestRelayScanOrderAgainstDistance in
        # the order on, 1 ulp above, 1 ulp below; R2 sees only the last. Both keys are 1 ulp below
        # 40 m, and R1 holds the lower id, but only the margin lets R1's evaluation reach that IU
        ius = TestRelayScanOrderAgainstDistance
        topo = build_topology([ius.on, ius.above, ius.below], [(320.0, 195.0), (340.0, 262.0)], src=(300.0, 230.0))
        r = Router(topo, idle_law(3, line_config()), line_config(), rng_for(151))
        assert r._scan(r._point(SOURCE_ID), r.topo.ris_ids) == (5, 6)
        assert r._scan((320.0, 195.0)) == (2, 3, 4) and r._scan((340.0, 262.0)) == (4,)
        entry = self.pick(topo, line_config(), 3)
        assert entry.via[:-1] == (5,) and entry.remaining_m == math.nextafter(40.0, 0.0)


HOP_STAGE = {HopKind.DIRECT_IU: "relay", HopKind.SINGLE_RIS: "reflector", HopKind.DOUBLE_RIS: "double"}


class TestStageReached:
    """``RouteLedger.stage_reached`` is the deepest stage a route reached: no shallower than any of
    its hops, exactly the deepest hop's on success, the reflector stage or deeper when no surface
    was in sight, and the double stage on a dead end after it."""

    def test_agrees_with_hops_and_failure(self):
        seen = set()
        for coverage, m in ((30.0, 100), (30.0, 400), (60.0, 400)):
            cfg = SimConfig(coverage_m=coverage, iu_count=m, **LINE_ENDS)
            for seed in range(4):
                topo = generate_topology(cfg, rng_for(160, coverage, m, seed))
                for variant in sorted(BASELINE_POLICIES):
                    ledger = route(topo, _profiles_for(cfg), cfg, rng_for(161, seed), variant=variant)
                    stage = STAGES.index(ledger.stage_reached)
                    deepest = max((STAGES.index(HOP_STAGE[h.kind]) for h in ledger.transmission_hops), default=0)
                    assert stage >= deepest
                    if ledger.success:
                        assert stage == deepest
                    elif ledger.failure_reason is FailureReason.NO_IU_NO_RIS:
                        assert stage >= 1
                    elif ledger.failure_reason in (FailureReason.DEAD_END_AFTER_SINGLE_RIS,
                                                   FailureReason.DEAD_END_AFTER_DOUBLE_RIS):
                        assert stage == 2
                        # a dead end is the single stage's exactly when the policy runs no double stage
                        single_end = ledger.failure_reason is FailureReason.DEAD_END_AFTER_SINGLE_RIS
                        assert single_end == (not BASELINE_POLICIES[variant].double)
                    seen.add((ledger.stage_reached, ledger.success))
        assert {stage for stage, _ in seen} == set(STAGES) and {ok for _, ok in seen} == {True, False}

    def test_first_difference_between_policies(self):
        p = BASELINE_POLICIES
        expected = {
            ("full", "full"): None,
            ("full", "fixed_mod"): "relay",
            ("shannon", "fixed_mod"): "relay",
            ("full", "shannon"): "reflector",
            ("full", "double_ris"): "reflector",
            ("single_ris", "double_ris"): "reflector",
            ("shannon", "single_ris"): "reflector",
            ("full", "single_ris"): "double",
        }
        for (a, b), stage in expected.items():
            assert p[a].first_difference(p[b]) == stage == p[b].first_difference(p[a])


class TestScanMemo:
    """A router reads its surface scans, and a static one its IU scans too, from the topology's memo
    (``Topology.scan``), keyed by radius too; a mobile one reads its IU scans there until its first
    tick, and scans its moving IUs afresh after it."""

    @staticmethod
    def counted_route(monkeypatch, cfg, topo, walk=None, seed=0):
        """(ledger, ``_scan`` calls, ``half_circle_scan`` calls) of one route."""
        real_scan, real_half = Router._scan, topology.half_circle_scan
        calls = [0, 0]

        def scan(self, *args):
            calls[0] += 1
            return real_scan(self, *args)

        def half(*args):
            calls[1] += 1
            return real_half(*args)

        monkeypatch.setattr(Router, "_scan", scan)
        monkeypatch.setattr(topology, "half_circle_scan", half)
        ledger = Router(topo, _profiles_for(cfg), cfg, rng_for(170, seed), mobility=walk).run()
        monkeypatch.undo()
        return ledger, *calls

    @staticmethod
    def check_memo(topo):
        """Every memo entry is a tuple equal to a fresh scan of the topology's table."""
        dest = tuple(topo.xy[DEST_ID].tolist())
        for (ids, center, r), found in topo._scans.items():
            assert isinstance(found, tuple)  # a caller cannot change what later scans read
            assert found == tuple(topology.half_circle_scan(topo.xy, ids, center, dest, r))

    def test_hits_equal_fresh_scans(self, monkeypatch):
        cfg = SimConfig(coverage_m=30.0, iu_count=400, **LINE_ENDS)
        hits = 0
        for seed in range(3):
            topo = generate_topology(cfg, rng_for(171, seed))
            _, scans, computed = self.counted_route(monkeypatch, cfg, topo, seed=seed)
            assert computed == len(topo._scans) and scans >= computed
            hits += scans - computed
            self.check_memo(topo)
        assert hits >= 1

    def test_moving_ius_read_the_memo_only_before_the_first_tick(self, monkeypatch):
        """A mobile route reads an IU scan from the memo only at clock 0, while its IU rows are the
        topology's: the memo's IU entries are the centres scanned then, every entry equals a fresh scan
        of the topology's table, and every IU scan after the first tick is computed afresh from the
        router's moving table."""
        real_scan, real_half = Router._scan, topology.half_circle_scan
        moved_scans = 0
        for coverage, iu_count in ((30.0, 100), (50.0, 400)):
            cfg = SimConfig(coverage_m=coverage, iu_count=iu_count, **LINE_ENDS)
            for seed in range(3):
                topo = generate_topology(cfg, rng_for(172, seed))
                walk = MobilityField(topo.iu_xy, cfg.arena_m, 20.0, rng_for(173, seed))
                r = Router(topo, _profiles_for(cfg), cfg, rng_for(170, seed), mobility=walk)
                first = set()  # IU scan centres at clock 0
                moved = [0, 0]  # IU scans after the first tick: asked of the router, computed on its table

                def scan(self, center, ids=None):
                    if ids is None and self.clock:
                        moved[0] += 1
                    elif ids is None:
                        first.add(center)
                    return real_scan(self, center, ids)

                def half(xy, ids, *args):
                    moved[1] += xy is r.xy
                    return real_half(xy, ids, *args)

                monkeypatch.setattr(Router, "_scan", scan)
                monkeypatch.setattr(topology, "half_circle_scan", half)
                r.run()
                monkeypatch.undo()
                assert first and moved[0] == moved[1]
                assert {center for ids, center, _ in topo._scans if ids == topo.relay_ids} == first
                assert all(ids in (topo.relay_ids, topo.ris_ids) and radius == coverage for ids, _, radius in topo._scans)
                self.check_memo(topo)
                moved_scans += moved[0]
        assert moved_scans >= 1

    def test_radii_keep_separate_entries(self, monkeypatch):
        """One topology routed at two radii keeps each radius's scans apart: each route equals the
        route on a fresh copy of the topology, and a second route at a radius scans nothing anew."""
        narrow = SimConfig(coverage_m=30.0, iu_count=400, **LINE_ENDS)
        wide = replace(narrow, coverage_m=60.0)
        for seed in range(3):
            topo = generate_topology(narrow, rng_for(175, seed))
            for cfg in (narrow, wide):
                fresh = Topology(topo.xy[SOURCE_ID], topo.xy[DEST_ID], topo.iu_xy, topo.xy[topo.first_ris_id:],
                                 cfg.arena_m)
                ledger, _, computed = self.counted_route(monkeypatch, cfg, topo, seed=seed)
                assert ledger == self.counted_route(monkeypatch, cfg, fresh, seed=seed)[0] and computed > 0
                assert self.counted_route(monkeypatch, cfg, topo, seed=seed)[0::2] == (ledger, 0)
            radii = {r for _, _, r in topo._scans}
            assert radii == {30.0, 60.0}
            self.check_memo(topo)
