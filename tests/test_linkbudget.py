import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risroute.config import SimConfig
from risroute.linkbudget import (
    MAX_RATE,
    build_mode_table,
    harvested_energy_for_transfer,
    harvested_power,
    mode_bits,
    transfer_slots,
)
from risroute.metrics import compute_route_metrics
from risroute.router import HopChoice, HopKind, RouteLedger

# published thresholds for P_b = 1e-6, dB
TABLE3 = [9.8554, 12.8657, 14.6266, 15.8760, 16.8451, 17.6369, 18.3063, 18.8863]


# -- the interval mode table the lookup replaced, kept as its oracle: modes with
# -- half-open [lower, upper) dB intervals tiling the line, found by bisection


@dataclass(frozen=True)
class TransmissionMode:
    constellation: int  # m_q; 1 encodes "no transmission"
    rate: int  # D_q = log2(m_q), bits per symbol
    snr_lower_db: float
    snr_upper_db: float


def oracle_modes(thresholds_db):
    """The no-transmission mode, then one mode per threshold, each up to the next."""
    modes = [TransmissionMode(1, 0, -math.inf, thresholds_db[0])]
    for bits in range(1, MAX_RATE + 1):
        upper = thresholds_db[bits] if bits < MAX_RATE else math.inf
        modes.append(TransmissionMode(2**bits, bits, thresholds_db[bits - 1], upper))
    return modes


def oracle_select(modes, snr_db):
    """The unique mode whose [lower, upper) interval contains snr_db."""
    lo, hi = 0, len(modes) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if snr_db >= modes[mid].snr_lower_db:
            lo = mid
        else:
            hi = mid - 1
    return modes[lo]


def spent_energy(cfg, slots):
    """(P + P_proc) tau T_s of one unharvested hop, read back through the route efficiency."""
    ledger = RouteLedger(hops=[HopChoice((1,), slots, 8.0, 0.0, 0.0)], total_slots=slots)
    return cfg.total_bits / compute_route_metrics(ledger, cfg)["E_eff"]


class TestModeTable:
    def test_thresholds_match_published_table(self):
        thresholds = build_mode_table(1e-6)
        assert len(thresholds) == 8
        for got, want in zip(thresholds, TABLE3):
            assert abs(got - want) <= 1e-4

    def test_low_snr_means_no_transmission(self):
        thresholds = build_mode_table(1e-6)
        assert mode_bits(thresholds, 9.0) == 0
        assert mode_bits(thresholds, -1e9) == 0
        assert mode_bits(thresholds, -math.inf) == 0
        assert mode_bits(thresholds, math.nan) == 0

    def test_mid_band_is_qpsk(self):
        assert mode_bits(build_mode_table(1e-6), 14.0) == 2  # 2**2 = 4-QAM

    def test_high_snr_saturates_at_256(self):
        thresholds = build_mode_table(1e-6)
        assert mode_bits(thresholds, 25.0) == 8  # 2**8 = 256-QAM
        assert mode_bits(thresholds, math.inf) == 8

    def test_lower_bound_inclusive(self):
        thresholds = build_mode_table(1e-6)
        qpsk_lower = thresholds[1]
        assert mode_bits(thresholds, qpsk_lower) == 2
        assert mode_bits(thresholds, 12.8657) == 2
        assert mode_bits(thresholds, math.nextafter(qpsk_lower, -math.inf)) == 1

    def test_monotone_rate_in_snr(self):
        thresholds = build_mode_table(1e-6)
        rates = [mode_bits(thresholds, s) for s in np.linspace(-5, 30, 500)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_intervals_tile_the_line(self):
        # strictly increasing thresholds: every SNR falls in exactly one mode's [lower, upper)
        for rule in ("table3", "eqtext"):
            thresholds = build_mode_table(1e-6, rule)
            assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
            for bits, lower in enumerate(thresholds, start=1):
                assert mode_bits(thresholds, lower) == bits

    def test_eqtext_rule_uses_constellation_minus_one(self):
        thresholds = build_mode_table(1e-6, rule="eqtext")
        # (m-1) rule: QPSK bound at 10 log10(9.6724 * 3)
        assert thresholds[0] == pytest.approx(TABLE3[0], abs=1e-4)
        assert thresholds[1] == pytest.approx(14.6266, abs=1e-4)
        assert thresholds[1] > build_mode_table(1e-6)[1]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_mode_table(0.0)
        with pytest.raises(ValueError):
            build_mode_table(1e-6, rule="bogus")


class TestModeLookupProperty:
    """``mode_bits`` against the interval table it replaced, on both rules and every boundary."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_interval_table(self, data):
        rule = data.draw(st.sampled_from(("table3", "eqtext")))
        target_ber = data.draw(st.floats(1e-12, 0.999))
        thresholds = build_mode_table(target_ber, rule)
        modes = oracle_modes(thresholds)
        boundary = [f(t) for t in thresholds
                    for f in (lambda t: t, lambda t: math.nextafter(t, -math.inf), lambda t: math.nextafter(t, math.inf))]
        snrs = boundary + [-math.inf, math.inf, math.nan] + data.draw(st.lists(st.floats(-50.0, 80.0), max_size=20))
        for snr in snrs:
            bits, mode = mode_bits(thresholds, snr), oracle_select(modes, snr)
            assert (bits, 2**bits) == (mode.rate, mode.constellation), (rule, target_ber, snr)


class TestTransferCost:
    # 80 bits per transfer; P = 1 W, T_s = 1e-4 s, and P_proc 1e-33 W, i.e. none
    cfg = SimConfig(packets=10, bits_per_packet=8, tx_power_dbm=30.0, proc_power_dbm=-300.0)

    def test_exact_division(self):
        assert transfer_slots(self.cfg.total_bits, 8) == 10

    def test_ceiling(self):
        assert transfer_slots(self.cfg.total_bits, 3) == 27

    def test_minimal_demand(self):
        for bits in range(1, 9):
            assert transfer_slots(1, bits) == 1

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            transfer_slots(self.cfg.total_bits, mode_bits(build_mode_table(1e-6), -10.0))
        with pytest.raises(ValueError):
            transfer_slots(self.cfg.total_bits, 0.0)
        with pytest.raises(ValueError):
            transfer_slots(self.cfg.total_bits, -1.5)

    def test_nonincreasing_in_rate(self):
        slots = [transfer_slots(self.cfg.total_bits, b) for b in range(1, 9)]
        assert all(a >= b for a, b in zip(slots, slots[1:]))

    def energy(self, cfg, bits):
        return spent_energy(cfg, transfer_slots(cfg.total_bits, bits))

    def test_energy_simple_product(self):
        assert self.energy(self.cfg, 8) == pytest.approx(1e-3, rel=1e-12)

    def test_energy_with_processing_power(self):
        cfg = SimConfig(packets=10, bits_per_packet=8, tx_power_dbm=30.0, proc_power_dbm=10.0)
        assert self.energy(cfg, 3) == pytest.approx(2.727e-3, rel=1e-12)

    def test_doubling_rate_halves_energy(self):
        assert self.energy(self.cfg, 4) == pytest.approx(2 * self.energy(self.cfg, 8), rel=1e-12)

    def test_energy_for_slots(self):
        cfg = SimConfig(packets=1, bits_per_packet=8, tx_power_dbm=30.0, proc_power_dbm=10.0)
        assert spent_energy(cfg, 27) == pytest.approx(2.727e-3, rel=1e-12)


class TestHarvester:
    cfg = SimConfig(mh_mw=24.0, eh_slope=150.0, eh_threshold_w=0.014, slot_us=100.0)

    def test_zero_input_zero_output(self):
        assert harvested_power(self.cfg, 0.0) == 0.0

    def test_saturation(self):
        assert harvested_power(self.cfg, 10.0) == pytest.approx(24e-3, rel=1e-9)

    def test_frozen_value_at_threshold(self):
        # sigmoid denominator equals exactly 2 at x = b
        got = harvested_power(self.cfg, 0.014)
        assert got == pytest.approx(0.010530522860964217, rel=1e-12)
        assert got == pytest.approx(24e-3 * (1 - math.exp(-2.1)) / 2, rel=1e-12)

    def test_strictly_increasing_and_bounded(self):
        xs = np.linspace(0.0, 0.2, 2000)
        vals = [harvested_power(self.cfg, float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v < self.cfg.mh_mw * 1e-3 for v in vals)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            harvested_power(self.cfg, -1e-9)

    def test_energy_zero_power(self):
        assert harvested_energy_for_transfer(self.cfg, 0.0, 10) == 0.0

    def test_energy_linear_in_slots(self):
        one = harvested_energy_for_transfer(self.cfg, 0.01, 5)
        two = harvested_energy_for_transfer(self.cfg, 0.01, 10)
        assert two == pytest.approx(2 * one, rel=1e-12)
        assert one == pytest.approx(harvested_power(self.cfg, 0.01) * 5 * 1e-4, rel=1e-12)

    def test_monotone_in_channel_gain(self):
        # the availability argmin picks the best channel; harvest must not
        # punish it: higher received power always harvests at least as much
        rng = np.random.default_rng(21)
        gains = np.sort(rng.uniform(0.0, 0.1, size=100))
        harv = [harvested_energy_for_transfer(self.cfg, g, 4) for g in gains]
        assert all(a <= b for a, b in zip(harv, harv[1:]))

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            harvested_energy_for_transfer(self.cfg, 0.01, 0)

    def test_positive_parameters_required(self):
        for key in ("mh_mw", "eh_slope", "eh_threshold_w"):
            with pytest.raises(ValueError, match=key):
                SimConfig(**{key: 0.0})
