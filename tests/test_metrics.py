import math
import random

import pytest
from conftest import build_topology, idle_law, line_config, rng_for

from risroute.config import SimConfig
from risroute.metrics import (
    NetNegativeEnergyError,
    compute_route_metrics,
    data_throughput,
    energy_efficiency,
)
from risroute.router import HopChoice, HopKind, RouteLedger, route


def ledger_from(hops, success=True):
    led = RouteLedger(total_delay_s=0.05, slot_s=1e-4, psi=7)
    led.hops = hops
    led.success = success
    led.total_slots = sum(h.slots_used for h in hops)
    return led


def direct_hop(constellation=256, rate=8.0, slots=4, harvested=0.0, remaining=0.0):
    return HopChoice(HopKind.DIRECT_IU, (2,), slots, rate, constellation, harvested, remaining)


def ris_hop(rate=3.29, slots=10, harvested=0.0, remaining=100.0):
    return HopChoice(HopKind.SINGLE_RIS, (9, 2), slots, rate, 0, harvested, remaining)


class TestThroughput:
    def test_single_direct_hop(self):
        led = ledger_from([direct_hop()])
        assert data_throughput(led, 1e-6) == pytest.approx((1 - 1e-6) * 256, rel=1e-12)
        assert data_throughput(led, 1e-6) == pytest.approx(255.999744, rel=1e-12)

    def test_single_reflected_hop(self):
        led = ledger_from([ris_hop(rate=3.29)])
        assert data_throughput(led, 1e-6) == pytest.approx(3.29, rel=1e-12)

    def test_two_identical_hops_halve(self):
        one = data_throughput(ledger_from([direct_hop()]), 1e-6)
        two = data_throughput(ledger_from([direct_hop(), direct_hop()]), 1e-6)
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_permutation_invariance(self):
        hops = [direct_hop(256, 8.0), ris_hop(5.5), direct_hop(16, 4.0), ris_hop(11.0)]
        base = data_throughput(ledger_from(list(hops)), 1e-6)
        rng = random.Random(5)
        for _ in range(10):
            shuffled = list(hops)
            rng.shuffle(shuffled)
            assert data_throughput(ledger_from(shuffled), 1e-6) == pytest.approx(base, rel=1e-12)

    def test_adding_hop_never_increases(self):
        hops = [direct_hop()]
        prev = data_throughput(ledger_from(list(hops)), 1e-6)
        for extra in (ris_hop(7.0), direct_hop(4, 2.0), ris_hop(2.0)):
            hops.append(extra)
            cur = data_throughput(ledger_from(list(hops)), 1e-6)
            assert cur <= prev + 1e-15
            prev = cur

    def test_wait_hops_do_not_contribute(self):
        wait = HopChoice(HopKind.WAIT, (), 14, 0.0, 0, 0.0, 300.0)
        with_wait = ledger_from([direct_hop(), wait, direct_hop()])
        without = ledger_from([direct_hop(), direct_hop()])
        assert data_throughput(with_wait, 1e-6) == data_throughput(without, 1e-6)

    def test_normalized_uses_bits_per_symbol(self):
        led = ledger_from([direct_hop(constellation=256, rate=8.0)])
        assert data_throughput(led, 1e-6, "bits") == pytest.approx((1 - 1e-6) * 8, rel=1e-12)

    def test_failed_ledger_rejected(self):
        led = ledger_from([direct_hop()], success=False)
        with pytest.raises(ValueError):
            data_throughput(led, 1e-6)

    def test_zero_rate_hop_raises(self):
        for bad in (ris_hop(rate=0.0), direct_hop(constellation=0, rate=0.0)):
            for term in ("size", "bits"):
                with pytest.raises(ValueError, match="hop with rate term 0"):
                    data_throughput(ledger_from([direct_hop(), bad]), 1e-6, term)


class TestEnergyEfficiency:
    # 32 bits per transfer, P = 1 W, P_proc = 0.01 W, T_s = 1e-4 s
    cfg = SimConfig(packets=4, bits_per_packet=8, tx_power_dbm=30.0, proc_power_dbm=10.0, slot_us=100.0)

    def test_zero_harvest_formula_collapse(self):
        led = ledger_from([direct_hop(slots=10)])
        got = energy_efficiency(led, self.cfg)
        assert got == pytest.approx(32 / (1.01 * 1e-4 * 10), rel=1e-12)

    def test_harvest_half_spend_doubles_efficiency(self):
        spend = 1.01 * 1e-4 * 10
        led0 = ledger_from([direct_hop(slots=10, harvested=0.0)])
        led1 = ledger_from([direct_hop(slots=10, harvested=spend / 2)])
        e0 = energy_efficiency(led0, self.cfg)
        e1 = energy_efficiency(led1, self.cfg)
        assert e1 == pytest.approx(2 * e0, rel=1e-12)

    def test_net_negative_energy_rejected(self):
        spend = 1.01 * 1e-4 * 10
        led = ledger_from([direct_hop(slots=10, harvested=2 * spend)])
        with pytest.raises(NetNegativeEnergyError):
            energy_efficiency(led, self.cfg)

    def test_full_ledger_bookkeeping_oracle(self):
        # run a real mixed route and audit the energy terms independently
        ius = [(90.0, 200.0), (100.0, 200.0), (150.0, 200.0), (200.0, 200.0),
               (250.0, 200.0), (300.0, 200.0), (350.0, 200.0)]
        riss = [(50.0, 200.0)]
        topo = build_topology(ius, riss)
        cfg = line_config()
        led = route(topo, idle_law(7, cfg), cfg, rng_for(200))
        assert led.success and led.ris_count >= 1
        got = energy_efficiency(led, cfg)
        tx_hops = [h for h in led.hops if h.kind is not HopKind.WAIT]
        audit_spend = sum((cfg.tx_power_w + cfg.proc_power_w) * h.slots_used * cfg.slot_s
                          for h in tx_hops)
        audit_harvest = sum(h.harvested_j for h in tx_hops)
        assert got == pytest.approx(cfg.packets * cfg.bits_per_packet / (audit_spend - audit_harvest), rel=1e-12)

    def test_failed_ledger_rejected(self):
        led = ledger_from([direct_hop()], success=False)
        with pytest.raises(ValueError):
            energy_efficiency(led, self.cfg)


class TestRouteMetricsBundle:
    def test_counts_and_variants(self):
        hops = [ris_hop(11.0, slots=3, harvested=1e-9), direct_hop(slots=4, remaining=0.0)]
        led = ledger_from(hops)
        m = compute_route_metrics(led, SimConfig())
        assert m.hop_count == 2
        assert m.ris_count == 1
        assert m.throughput == pytest.approx(
            1.0 / (1.0 / 11.0 + 1.0 / ((1 - 1e-6) * 256)), rel=1e-12)
        assert m.throughput_normalized == pytest.approx(
            1.0 / (1.0 / 11.0 + 1.0 / ((1 - 1e-6) * 8)), rel=1e-12)
        assert m.energy_efficiency > 0
