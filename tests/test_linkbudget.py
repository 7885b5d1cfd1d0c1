import math

import numpy as np
import pytest

from risroute.linkbudget import (
    HarvesterParams,
    TransferDemand,
    UntransmittableError,
    build_mode_table,
    harvested_energy_for_transfer,
    harvested_power,
    transfer_slots,
    transfer_slots_at_rate,
)
from risroute.metrics import energy_efficiency
from risroute.router import HopChoice, HopKind, RouteLedger

# published thresholds for P_b = 1e-6, dB
TABLE3 = [9.8554, 12.8657, 14.6266, 15.8760, 16.8451, 17.6369, 18.3063, 18.8863]


def thresholds_db(table):
    """Lower SNR bound of each transmitting mode, BPSK first."""
    return [m.snr_lower_db for m in table.modes[1:]]


def spent_energy(demand, slots, tx_power, slot):
    """(P + P_proc) tau T_s of one unharvested hop, read back through the route efficiency."""
    ledger = RouteLedger(hops=[HopChoice(HopKind.DIRECT_IU, (1,), ("D",), slots, 8.0, 256, 0.0, 0.0)],
                         total_slots=slots, success=True)
    return demand.total_bits / energy_efficiency(ledger, demand, tx_power, slot)


class TestModeTable:
    def test_thresholds_match_published_table(self):
        table = build_mode_table(1e-6)
        assert len(thresholds_db(table)) == 8
        for got, want in zip(thresholds_db(table), TABLE3):
            assert abs(got - want) <= 1e-4

    def test_low_snr_means_no_transmission(self):
        table = build_mode_table(1e-6)
        assert table.select(9.0).rate == 0
        assert table.select(-1e9).rate == 0
        assert table.select(9.0).constellation == 1  # m_q = 1 encodes no transmission

    def test_mid_band_is_qpsk(self):
        table = build_mode_table(1e-6)
        mode = table.select(14.0)
        assert mode.constellation == 4 and mode.rate == 2

    def test_high_snr_saturates_at_256(self):
        table = build_mode_table(1e-6)
        mode = table.select(25.0)
        assert mode.constellation == 256 and mode.rate == 8

    def test_lower_bound_inclusive(self):
        table = build_mode_table(1e-6)
        qpsk_lower = thresholds_db(table)[1]
        assert table.select(qpsk_lower).constellation == 4
        assert table.select(12.8657).constellation == 4
        assert table.select(math.nextafter(qpsk_lower, -math.inf)).constellation == 2

    def test_monotone_rate_in_snr(self):
        table = build_mode_table(1e-6)
        rates = [table.select(s).rate for s in np.linspace(-5, 30, 500)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_intervals_tile_the_line(self):
        table = build_mode_table(1e-6)
        modes = list(table)
        assert modes[0].snr_lower_db == -math.inf
        assert math.isinf(modes[-1].snr_upper_db)
        for a, b in zip(modes, modes[1:]):
            assert a.snr_upper_db == b.snr_lower_db

    def test_eqtext_rule_uses_constellation_minus_one(self):
        table = build_mode_table(1e-6, rule="eqtext")
        # (m-1) rule: QPSK bound at 10 log10(9.6724 * 3)
        assert thresholds_db(table)[0] == pytest.approx(TABLE3[0], abs=1e-4)
        assert thresholds_db(table)[1] == pytest.approx(14.6266, abs=1e-4)
        assert thresholds_db(table)[1] > thresholds_db(build_mode_table(1e-6))[1]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_mode_table(0.0)
        with pytest.raises(ValueError):
            build_mode_table(1e-6, rule="bogus")


class TestTransferCost:
    demand = TransferDemand(packets=10, bits_per_packet=8, proc_power=0.0)

    def table_mode(self, bits):
        table = build_mode_table(1e-6)
        return next(m for m in table if m.rate == bits)

    def test_exact_division(self):
        assert transfer_slots(self.demand, self.table_mode(8)) == 10

    def test_ceiling(self):
        assert transfer_slots(self.demand, self.table_mode(3)) == 27

    def test_minimal_demand(self):
        tiny = TransferDemand(packets=1, bits_per_packet=1, proc_power=0.0)
        for bits in range(1, 9):
            assert transfer_slots(tiny, self.table_mode(bits)) == 1

    def test_zero_rate_rejected(self):
        table = build_mode_table(1e-6)
        with pytest.raises(UntransmittableError):
            transfer_slots(self.demand, table.select(-10.0))
        with pytest.raises(UntransmittableError):
            transfer_slots_at_rate(self.demand, 0.0)

    def test_nonincreasing_in_rate(self):
        slots = [transfer_slots(self.demand, self.table_mode(b)) for b in range(1, 9)]
        assert all(a >= b for a, b in zip(slots, slots[1:]))

    def energy(self, demand, bits, tx_power, slot):
        return spent_energy(demand, transfer_slots(demand, self.table_mode(bits)), tx_power, slot)

    def test_energy_simple_product(self):
        e = self.energy(self.demand, 8, tx_power=1.0, slot=1e-4)
        assert e == pytest.approx(1e-3, rel=1e-12)

    def test_energy_with_processing_power(self):
        demand = TransferDemand(packets=10, bits_per_packet=8, proc_power=0.01)
        e = self.energy(demand, 3, tx_power=1.0, slot=1e-4)
        assert e == pytest.approx(2.727e-3, rel=1e-12)

    def test_doubling_rate_halves_energy(self):
        e4 = self.energy(self.demand, 4, tx_power=1.0, slot=1e-4)
        e8 = self.energy(self.demand, 8, tx_power=1.0, slot=1e-4)
        assert e4 == pytest.approx(2 * e8, rel=1e-12)

    def test_energy_for_slots(self):
        demand = TransferDemand(packets=1, bits_per_packet=8, proc_power=0.01)
        assert spent_energy(demand, 27, 1.0, 1e-4) == pytest.approx(2.727e-3, rel=1e-12)


class TestHarvester:
    params = HarvesterParams(max_power=24e-3, slope=150.0, threshold=0.014)

    def test_zero_input_zero_output(self):
        assert harvested_power(self.params, 0.0) == 0.0

    def test_saturation(self):
        assert harvested_power(self.params, 10.0) == pytest.approx(24e-3, rel=1e-9)

    def test_frozen_value_at_threshold(self):
        # sigmoid denominator equals exactly 2 at x = b
        got = harvested_power(self.params, 0.014)
        assert got == pytest.approx(0.010530522860964217, rel=1e-12)
        assert got == pytest.approx(24e-3 * (1 - math.exp(-2.1)) / 2, rel=1e-12)

    def test_strictly_increasing_and_bounded(self):
        xs = np.linspace(0.0, 0.2, 2000)
        vals = [harvested_power(self.params, float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v < self.params.max_power for v in vals)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            harvested_power(self.params, -1e-9)

    def test_energy_zero_power(self):
        assert harvested_energy_for_transfer(self.params, 0.0, 10, 1e-4) == 0.0

    def test_energy_linear_in_slots(self):
        one = harvested_energy_for_transfer(self.params, 0.01, 5, 1e-4)
        two = harvested_energy_for_transfer(self.params, 0.01, 10, 1e-4)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_monotone_in_channel_gain(self):
        # the availability argmin picks the best channel; harvest must not
        # punish it: higher received power always harvests at least as much
        rng = np.random.default_rng(21)
        gains = np.sort(rng.uniform(0.0, 0.1, size=100))
        harv = [harvested_energy_for_transfer(self.params, g, 4, 1e-4) for g in gains]
        assert all(a <= b for a, b in zip(harv, harv[1:]))

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            harvested_energy_for_transfer(self.params, 0.01, 0, 1e-4)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            HarvesterParams(max_power=0.0, slope=1.0, threshold=1.0)
