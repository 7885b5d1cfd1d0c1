import random

import pytest
from conftest import build_topology, idle_law, line_config, rng_for, route

from risroute.config import SimConfig
from risroute.metrics import NetNegativeEnergyError, compute_route_metrics
from risroute.router import HopChoice, HopKind, RouteLedger

CFG = SimConfig()  # P_b = 1e-6


def ledger_from(hops, success=True):
    led = RouteLedger(total_delay_s=0.05, slot_s=1e-4, psi=7)
    led.hops = hops
    led.success = success
    led.total_slots = sum(h.slots_used for h in hops)
    return led


def direct_hop(bits=8, slots=4, harvested=0.0, remaining=0.0):
    return HopChoice(HopKind.DIRECT_IU, (2,), slots, float(bits), harvested, remaining)


def ris_hop(rate=3.29, slots=10, harvested=0.0, remaining=100.0):
    return HopChoice(HopKind.SINGLE_RIS, (9, 2), slots, rate, harvested, remaining)


def metrics_of(hops, cfg=CFG):
    return compute_route_metrics(ledger_from(hops), cfg)


def throughput(hops):
    return metrics_of(hops)["D_T"]


def mixed_route():
    """A route through R1 to U2, then relays at 256-QAM and a last QPSK hop into D."""
    ius = [(90.0, 200.0), (100.0, 200.0), (150.0, 200.0), (200.0, 200.0),
           (250.0, 200.0), (300.0, 200.0), (350.0, 200.0)]
    topo = build_topology(ius, [(50.0, 200.0)])
    cfg = line_config()
    return route(topo, idle_law(7, cfg), cfg, rng_for(200)), cfg


class TestThroughput:
    def test_single_direct_hop(self):
        assert throughput([direct_hop()]) == pytest.approx((1 - 1e-6) * 256, rel=1e-12)
        assert throughput([direct_hop()]) == pytest.approx(255.999744, rel=1e-12)

    def test_single_reflected_hop(self):
        assert throughput([ris_hop(rate=3.29)]) == pytest.approx(3.29, rel=1e-12)

    def test_two_identical_hops_halve(self):
        one = throughput([direct_hop()])
        two = throughput([direct_hop(), direct_hop()])
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_permutation_invariance(self):
        hops = [direct_hop(8), ris_hop(5.5), direct_hop(4), ris_hop(11.0)]
        base = throughput(list(hops))
        rng = random.Random(5)
        for _ in range(10):
            shuffled = list(hops)
            rng.shuffle(shuffled)
            assert throughput(shuffled) == pytest.approx(base, rel=1e-12)

    def test_adding_hop_never_increases(self):
        hops = [direct_hop()]
        prev = throughput(list(hops))
        for extra in (ris_hop(7.0), direct_hop(2), ris_hop(2.0)):
            hops.append(extra)
            cur = throughput(list(hops))
            assert cur <= prev + 1e-15
            prev = cur

    def test_wait_hops_do_not_contribute(self):
        wait = HopChoice(HopKind.WAIT, (), 14, 0.0, 0.0, 300.0)
        assert metrics_of([direct_hop(), wait, direct_hop()]) == metrics_of([direct_hop(), direct_hop()])

    def test_normalized_uses_bits_per_symbol(self):
        assert metrics_of([direct_hop(8)])["D_T_normalized"] == pytest.approx((1 - 1e-6) * 8, rel=1e-12)

    def test_size_term_is_two_to_the_bit_count(self):
        # the verbatim column reads 2**b of the recorded b, the normalized one b itself
        for bits in range(1, 9):
            m = metrics_of([direct_hop(bits)])
            assert m["D_T"] == 1.0 / (1.0 / ((1 - 1e-6) * 2**bits))
            assert m["D_T_normalized"] == 1.0 / (1.0 / ((1 - 1e-6) * bits))

    def test_reflected_hop_counts_its_rate_in_both_columns(self):
        m = metrics_of([ris_hop(rate=11.0), direct_hop(8)])
        assert m["D_T"] == pytest.approx(1.0 / (1.0 / 11.0 + 1.0 / ((1 - 1e-6) * 256)), rel=1e-12)
        assert m["D_T_normalized"] == pytest.approx(1.0 / (1.0 / 11.0 + 1.0 / ((1 - 1e-6) * 8)), rel=1e-12)

    def test_failed_ledger_rejected(self):
        with pytest.raises(ValueError, match="successful routes only"):
            compute_route_metrics(ledger_from([direct_hop()], success=False), CFG)

    def test_zero_rate_hop_raises(self):
        for bad in (ris_hop(rate=0.0), direct_hop(bits=0)):
            with pytest.raises(ValueError, match="hop with rate 0"):
                metrics_of([direct_hop(), bad])


class TestEnergyEfficiency:
    # 32 bits per transfer, P = 1 W, P_proc = 0.01 W, T_s = 1e-4 s
    cfg = SimConfig(packets=4, bits_per_packet=8, tx_power_dbm=30.0, proc_power_dbm=10.0, slot_us=100.0)

    def efficiency(self, hops):
        return metrics_of(hops, self.cfg)["E_eff"]

    def test_zero_harvest_formula_collapse(self):
        assert self.efficiency([direct_hop(slots=10)]) == pytest.approx(32 / (1.01 * 1e-4 * 10), rel=1e-12)

    def test_harvest_half_spend_doubles_efficiency(self):
        spend = 1.01 * 1e-4 * 10
        e0 = self.efficiency([direct_hop(slots=10, harvested=0.0)])
        e1 = self.efficiency([direct_hop(slots=10, harvested=spend / 2)])
        assert e1 == pytest.approx(2 * e0, rel=1e-12)

    def test_net_negative_energy_rejected(self):
        spend = 1.01 * 1e-4 * 10
        with pytest.raises(NetNegativeEnergyError):
            self.efficiency([direct_hop(slots=10, harvested=2 * spend)])

    def test_full_ledger_bookkeeping_oracle(self):
        # run a real mixed route and audit the energy terms independently
        led, cfg = mixed_route()
        assert led.success and led.ris_count >= 1
        got = compute_route_metrics(led, cfg)["E_eff"]
        tx_hops = [h for h in led.hops if h.kind is not HopKind.WAIT]
        audit_spend = sum((cfg.tx_power_w + cfg.proc_power_w) * h.slots_used * cfg.slot_s
                          for h in tx_hops)
        audit_harvest = sum(h.harvested_j for h in tx_hops)
        assert got == pytest.approx(cfg.packets * cfg.bits_per_packet / (audit_spend - audit_harvest), rel=1e-12)


class TestColumns:
    def test_counts_and_columns(self):
        wait = HopChoice(HopKind.WAIT, (), 14, 0.0, 0.0, 200.0)
        double = HopChoice(HopKind.DOUBLE_RIS, (11, 12, 4), 4, 9.8, 3e-9, 100.0)
        m = metrics_of([ris_hop(11.0, slots=3, harvested=1e-9), wait, double, direct_hop(slots=4)])
        assert list(m) == ["D_T", "D_T_normalized", "E_eff", "ris_count", "hops"]
        assert (m["ris_count"], m["hops"]) == (3, 3)
        assert m["E_eff"] > 0

    def test_frozen_values(self):
        # frozen to the bit: a change in how or in what order the hops are summed shows here
        wait = HopChoice(HopKind.WAIT, (), 14, 0.0, 0.0, 200.0)
        double = HopChoice(HopKind.DOUBLE_RIS, (11, 12, 4), 4, 9.8, 3e-9, 100.0)
        hops = [ris_hop(3.29, slots=10, harvested=1e-9, remaining=300.0), direct_hop(5, 6, 2e-9, 200.0),
                wait, double, direct_hop(8, 4)]
        assert metrics_of(hops) == {"D_T": 2.266810540379838, "D_T_normalized": 1.3680030746419607,
                                    "E_eff": 13201.352808629064, "ris_count": 3, "hops": 4}
        led, cfg = mixed_route()  # its draws are stream version 2's
        assert led.trace() == "S → R1 → U2 → U3 → U4 → U5 → U6 → U7 → D"
        assert compute_route_metrics(led, cfg) == {"D_T": 2.8722743159986215, "D_T_normalized": 0.8308230245858351,
                                                   "E_eff": 7920.792079481597, "ris_count": 1, "hops": 7}
