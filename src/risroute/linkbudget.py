"""Adaptive M-QAM mode selection, transfer cost, and harvested energy.

The BER model P_b = c1 exp(-c2 g / (m^c3 - c4)) with (c1, c2, c3, c4) =
(2, 1.5, 1, 1) is inverted into SNR thresholds. Two threshold rules are
supported, because the evaluation text and its mode table disagree:

  * "table3": threshold proportional to bits/symbol log2(m) — reproduces
    the published mode table (BPSK at 9.8554 dB, ..., 256-QAM at
    18.8863 dB for P_b = 1e-6);
  * "eqtext": threshold proportional to (m - 1), the literal inversion
    of the BER model (9.6724 (m-1) at P_b = 1e-6).

The default is "table3" since all experiments cite the table.

Transfer of alpha packets of phi bits at D bits/symbol needs
tau = ceil(alpha phi / D) slots and E = (P + P_proc) tau T_s joules
(spent energy is summed over a route's hops in ``metrics``).
Harvested power follows the saturating nonlinearity
P_harv = M_h (1 - exp(-a x)) / (1 + exp(-a (x - b))), zero at x = 0 and
approaching M_h as the received power x grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SimConfig

BER_CONSTANTS = (2.0, 1.5, 1.0, 1.0)  # (c1, c2, c3, c4) of the BER model
MAX_RATE = 8  # bits/symbol of the largest constellation, 256-QAM


class UntransmittableError(Exception):
    """A zero-rate mode cannot carry a transfer."""


@dataclass(frozen=True)
class TransmissionMode:
    constellation: int  # m_q; 1 encodes "no transmission"
    rate: int  # D_q = log2(m_q), bits per symbol
    snr_lower_db: float
    snr_upper_db: float


class ModeTable:
    """Ordered transmission modes whose half-open dB intervals tile the line."""

    def __init__(self, modes: list[TransmissionMode]):
        if not modes or modes[0].rate != 0:
            raise ValueError("mode table must start with the no-transmission mode")
        for a, b in zip(modes, modes[1:]):
            if not (a.snr_upper_db == b.snr_lower_db and a.snr_lower_db < a.snr_upper_db):
                raise ValueError("mode intervals must be contiguous and increasing")
        if not math.isinf(modes[-1].snr_upper_db):
            raise ValueError("last mode must extend to +inf")
        self.modes = tuple(modes)
        self._lower_bounds = [m.snr_lower_db for m in modes]

    def __iter__(self):
        return iter(self.modes)

    def __len__(self):
        return len(self.modes)

    def select(self, snr_db: float) -> TransmissionMode:
        """The unique mode whose [lower, upper) interval contains snr_db."""
        lo, hi = 0, len(self.modes) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if snr_db >= self._lower_bounds[mid]:
                lo = mid
            else:
                hi = mid - 1
        return self.modes[lo]


def build_mode_table(target_ber: float, rule: str = "table3") -> ModeTable:
    """SNR-threshold table for M-QAM constellations 2..2^MAX_RATE."""
    if not 0.0 < target_ber < 1.0:
        raise ValueError("target_ber must lie in (0, 1)")
    if rule not in ("table3", "eqtext"):
        raise ValueError(f"unknown threshold rule {rule!r}")
    c1, c2, c3, c4 = BER_CONSTANTS
    multiplier = math.log(c1 / target_ber) / c2
    thresholds_db = []
    for bits in range(1, MAX_RATE + 1):
        m = 2**bits
        linear = multiplier * (bits if rule == "table3" else (m**c3 - c4))
        thresholds_db.append(10.0 * math.log10(linear))
    modes = [TransmissionMode(1, 0, -math.inf, thresholds_db[0])]
    for bits in range(1, MAX_RATE + 1):
        upper = thresholds_db[bits] if bits < MAX_RATE else math.inf
        modes.append(TransmissionMode(2**bits, bits, thresholds_db[bits - 1], upper))
    return ModeTable(modes)


@dataclass(frozen=True)
class TransferDemand:
    packets: int  # alpha_k
    bits_per_packet: int  # phi
    proc_power: float  # P_proc, watts

    def __post_init__(self):
        if self.packets < 1 or self.bits_per_packet < 1:
            raise ValueError("packets and bits_per_packet must be >= 1")

    @property
    def total_bits(self) -> int:
        return self.packets * self.bits_per_packet

    @classmethod
    def from_config(cls, cfg: SimConfig) -> "TransferDemand":
        return cls(packets=cfg.packets, bits_per_packet=cfg.bits_per_packet, proc_power=cfg.proc_power_w)


def transfer_slots_at_rate(demand: TransferDemand, rate: float) -> int:
    """ceil(alpha phi / rate) slots; rate is bits/symbol or bits/use."""
    if rate <= 0:
        raise UntransmittableError("zero-rate link cannot carry the transfer")
    return int(math.ceil(demand.total_bits / rate))


def transfer_slots(demand: TransferDemand, mode: TransmissionMode) -> int:
    if mode.rate == 0:
        raise UntransmittableError("no-transmission mode selected")
    return transfer_slots_at_rate(demand, mode.rate)


@dataclass(frozen=True)
class HarvesterParams:
    max_power: float  # M_h, watts
    slope: float  # a
    threshold: float  # b, watts

    def __post_init__(self):
        if self.max_power <= 0 or self.slope <= 0 or self.threshold <= 0:
            raise ValueError("harvester parameters must be positive")

    @classmethod
    def from_config(cls, cfg: SimConfig) -> "HarvesterParams":
        return cls(max_power=cfg.mh_mw * 1e-3, slope=cfg.eh_slope, threshold=cfg.eh_threshold_w)


def harvested_power(params: HarvesterParams, received_power: float) -> float:
    """Saturating harvest curve; exactly 0 at zero input, < M_h always."""
    if received_power < 0:
        raise ValueError("received power must be nonnegative")
    x = received_power
    return (
        params.max_power
        * (1.0 - math.exp(-params.slope * x))
        / (1.0 + math.exp(-params.slope * (x - params.threshold)))
    )


def harvested_energy_for_transfer(
    params: HarvesterParams, received_power: float, slots: int, slot: float
) -> float:
    """Harvest accumulated over the transfer, converted to joules via T_s."""
    if slots < 1:
        raise ValueError("slots must be >= 1")
    return harvested_power(params, received_power) * slots * slot
