import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import build_topology, idle_law, line_config, rng_for, traffic_law

from risroute import channel, linkbudget, traffic
from risroute.config import SimConfig
from risroute.linkbudget import build_mode_table
from risroute.router import (
    BASELINE_POLICIES,
    CandidateLink,
    Entry,
    FailureReason,
    HopChoice,
    HopKind,
    RouteLedger,
    Router,
    availability_set,
    route,
    select_entry,
)
from risroute.experiments import MobilityField
from risroute.topology import DEST_ID, generate_topology


LINE_ENDS = {"source_xy": (20.0, 200.0), "dest_xy": (380.0, 200.0)}


def make_link(node_id, snr_db, remaining, nu):
    return CandidateLink(node_id=node_id, snr_db=snr_db, snr_linear=10 ** (snr_db / 10),
                         remaining_m=remaining, nu_idle_slots=nu)


class TestAvailabilitySet:
    table = build_mode_table(1e-6)
    bits = 24  # per transfer

    def test_fitting_transfer_included(self):
        # 24 bits at 8 bits/symbol -> 3 slots <= nu=4.21
        links = [make_link(2, 25.0, 300.0, 4.21)]
        aset = availability_set(links, self.table, self.bits)
        assert any((e.tau, e.rate, e.constellation) == (3, 8, 256) for e in aset)
        assert all(e.link is links[0] for e in aset)

    def test_oversized_transfer_excluded(self):
        # best is 6 bits/symbol at 18 dB -> 4 slots > nu=3.9; lower rates worse
        links = [make_link(2, 18.0, 300.0, 3.9)]
        aset = availability_set(links, self.table, self.bits)
        assert aset == []

    def test_no_idle_no_entries(self):
        assert availability_set([], self.table, self.bits) == []

    def test_one_entry_per_link(self):
        # rates 1..8 are all usable at 25 dB (slots 24, 12, 8, 6, 5, 4, 4, 3): only 256-QAM is listed;
        # at 18.5 dB rates 6 and 7 both need 4 slots and the lower one is listed
        links = [make_link(2, 25.0, 300.0, 1e9), make_link(3, 18.5, 200.0, 1e9), make_link(4, 0.0, 100.0, 1e9)]
        aset = availability_set(links, self.table, self.bits)
        assert [(e.link, e.tau, e.rate, e.constellation) for e in aset] == \
               [(links[0], 3, 8, 256), (links[1], 4, 6, 64)]

    def test_non_adaptive_keeps_only_pinned_mode(self):
        links = [make_link(2, 25.0, 300.0, 1e9)]
        aset = availability_set(links, self.table, self.bits, fixed_rate_bits=2)
        assert len(aset) == 1
        assert (aset[0].rate, aset[0].constellation, aset[0].tau) == (2, 4, 12)

    def test_non_adaptive_needs_channel_support(self):
        links = [make_link(2, 10.0, 300.0, 1e9)]  # only BPSK feasible
        aset = availability_set(links, self.table, self.bits, fixed_rate_bits=2)
        assert aset == []

    def test_slot_count_once_per_constellation(self, monkeypatch):
        real, calls = linkbudget.transfer_slots, []
        monkeypatch.setattr(linkbudget, "transfer_slots", lambda n, rate: calls.append(rate) or real(n, rate))
        links = [make_link(2 + i, 25.0, 300.0, 1e9) for i in range(200)]
        aset = availability_set(links, self.table, self.bits)
        assert len(aset) == 200
        assert len(calls) <= 8


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
        Entry(link, tau_of[bits], bits, 2**bits)
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
        got = availability_set(links, thresholds, total_bits, fixed)
        want = []
        for link in links:
            own = availability_set_by_enumeration([link], thresholds, total_bits, fixed)
            if own:
                want.append(select_entry(own))
        assert len(got) == len(want)
        assert all(a.link is b.link and a[1:] == b[1:] for a, b in zip(got, want))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_same_hop_as_over_the_enumeration(self, data):
        links, thresholds, total_bits, fixed = self.draw_case(data)
        got = availability_set(links, thresholds, total_bits, fixed)
        want = availability_set_by_enumeration(links, thresholds, total_bits, fixed)
        assert bool(got) == bool(want)
        if want:
            a, b = select_entry(got), select_entry(want)
            assert a.link is b.link and (a.tau, a.rate, a.constellation) == (b.tau, b.rate, b.constellation)


class TestSelectIu:
    """``select_entry`` picking among relay (IU) entries, and the destination over any of them."""

    def entries(self, taus_remainings):
        return [Entry(make_link(2 + i, 25.0, rem, 100.0), tau, 8, 256)
                for i, (tau, rem) in enumerate(taus_remainings)]

    def test_argmin_slots(self):
        aset = self.entries([(5, 100.0), (3, 300.0), (7, 50.0)])
        assert select_entry(aset).tau == 3

    def test_tie_break_least_remaining(self):
        aset = self.entries([(3, 250.0), (3, 200.0)])
        assert select_entry(aset).link.remaining_m == 200.0

    def test_tie_break_lower_id(self):
        aset = self.entries([(3, 200.0), (3, 200.0)])
        assert select_entry(aset).link.node_id == 2

    def test_singleton(self):
        aset = self.entries([(4, 100.0)])
        assert select_entry(aset).tau == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_entry([])

    def test_destination_beats_faster_iu(self):
        dest = Entry(make_link(DEST_ID, 12.0, 0.0, math.inf), 6, 4.0, 0)
        aset = self.entries([(2, 50.0)]) + [dest]
        assert select_entry(aset) is dest

    def test_equal_slot_modes_lowest_rate_wins(self):
        # 24 bits at 18.5 dB: rates 6 and 7 both need 4 slots, rate 8 is unusable
        aset = availability_set_by_enumeration([make_link(2, 18.5, 300.0, 1e9)], build_mode_table(1e-6), 24)
        chosen = select_entry(aset)
        assert (chosen.tau, chosen.rate) == (4, 6)


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

    def test_budget_below_one_slot_fails_immediately(self):
        topo = build_topology([(50.0, 200.0)])
        cfg = line_config(total_delay_ms=0.05)  # half a slot
        led = route(topo, idle_law(1, cfg), cfg, rng_for(101))
        assert not led.success
        assert led.failure_reason is FailureReason.DELAY_EXCEEDED
        assert led.hops == []

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
        # the pinned constellation is the config's
        cfg16 = line_config(packets=4, fixed_rate_bits=4)
        pinned16 = route(topo, idle_law(0, cfg16), cfg16, rng_for(104), variant="fixed_mod")
        assert (pinned16.hops[0].slots_used, pinned16.hops[0].constellation) == (8, 16)


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
        assert first.rate > 0 and first.constellation == 0

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
        assert led.failure_reason is FailureReason.DEAD_END_AFTER_DOUBLE_RIS
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


def fading_shapes(monkeypatch) -> list:
    """Record the shape of every ``sample_fading`` call from now on."""
    real, shapes = channel.sample_fading, []
    monkeypatch.setattr(channel, "sample_fading", lambda n, k, rng: shapes.append(n) or real(n, k, rng))
    return shapes


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
        assert r._scan(self.riss[1]) == [2]  # the IU is in the second surface's half-disc
        return r

    def test_boundary_distances(self):
        dest = (400.0, 200.0)
        assert math.dist(self.on_boundary, dest) == math.dist(self.origin, dest) == 200.0
        assert math.dist(self.inside_boundary, dest) < 200.0

    def test_no_forward_endpoint_draws_nothing(self, monkeypatch):
        r = self.router(self.on_boundary)
        shapes = fading_shapes(monkeypatch)
        before = r.rng.bit_generator.state
        assert r.ris_fallback(self.origin) is FailureReason.DEAD_END_AFTER_DOUBLE_RIS
        assert [n for n in shapes if not isinstance(n, int)] == []
        assert r.rng.bit_generator.state == before

    def test_busy_forward_endpoint_still_draws_h_mid(self, monkeypatch):
        r = self.router(self.inside_boundary)
        r.field.state[:] = traffic.BUSY  # observed at slot 0, so read without a draw
        shapes = fading_shapes(monkeypatch)
        assert r.ris_fallback(self.origin) is FailureReason.DEAD_END_AFTER_DOUBLE_RIS
        assert [n for n in shapes if not isinstance(n, int)] == [(250, 250)]


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
                       mobility=MobilityField(np.array([[59.5, 200.0]]), (400.0, 400.0),
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
        mob = MobilityField(topo.iu_xy, (400.0, 400.0), 0.0, rng_for(117))
        moving = route(topo, idle_law(7, cfg), cfg, rng_for(116), mobility=mob)
        assert static.to_rows() == moving.to_rows()


class TestNodeTable:
    def test_static_router_reads_the_topology_table(self):
        topo = build_topology([(50.0, 200.0)], [(30.0, 200.0)])
        r = Router(topo, idle_law(1, line_config()), line_config(), rng_for(119))
        assert r.xy is topo.xy

    def test_walk_moves_only_the_routers_iu_rows(self):
        topo = build_topology([(50.0, 200.0), (120.0, 210.0)], [(30.0, 200.0)])
        walk = MobilityField(topo.iu_xy, (400.0, 400.0), 20.0, rng_for(121))
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
            HopChoice(HopKind.SINGLE_RIS, (11, 4), 3, 11.2, 0, 1e-9, 300.0),
            HopChoice(HopKind.WAIT, (), 14, 0.0, 0, 0.0, 300.0),
            HopChoice(HopKind.DOUBLE_RIS, (13, 14, 6), 3, 9.8, 0, 1e-9, 200.0),
            HopChoice(HopKind.DIRECT_IU, (8,), 4, 8.0, 256, 2e-9, 100.0),
            HopChoice(HopKind.DIRECT_IU, (10,), 4, 8.0, 256, 2e-9, 50.0),
            HopChoice(HopKind.DIRECT_IU, (1,), 4, 8.0, 256, 0.0, 0.0),
        ]
        led.success = True
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
        assert rows[0]["kind"] == "single_ris"
        assert rows[-1]["index"] == "summary"
        assert rows[-1]["kind"] == "success"
        assert rows[-1]["slots"] == 32
        assert [row["ids"] for row in rows] == ["R1+U3", "", "R3+R4+U5", "U7", "U9", "D",
                                                "S → R1 → U3 → R3+R4 → U5 → U7 → U9 → D"]
        for row in rows:
            assert set(row) == {"index", "kind", "ids", "slots", "rate",
                                "harvested_J", "remaining_distance_m"}


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
        for surfaces, kind, constellation in (((), HopKind.DIRECT_IU, 256), ((3,), HopKind.SINGLE_RIS, 0),
                                              ((3, 4), HopKind.DOUBLE_RIS, 0)):
            led = RouteLedger()
            with pytest.raises(ValueError, match="no closer"):
                r._commit(origin, surfaces, Entry(stuck, 3, 8.0, constellation), led)
            assert led.hops == [] and r.clock == 0
            far = (10.0, 200.0)
            reason = r._commit(far, surfaces, Entry(closer, int(overrun), 8.0, constellation), led)
            assert reason is FailureReason.DELAY_EXCEEDED
            assert led.hops == [] and r.clock == 0
            # the same hop from farther out commits: clock, ledger and endpoint
            end = r._commit(far, surfaces, Entry(closer, 3, 8.0, constellation), led)
            assert end == (50.0, 200.0) and r.clock == 3
            hop = led.hops[-1]
            assert (hop.kind, hop.via) == (kind, (*surfaces, 2))
            assert (hop.slots_used, hop.rate, hop.constellation) == (3, 8.0, constellation)
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
