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

A mode is its bit count b in 0..8: constellation m = 2**b, and b = 0
(no transmission) below the BPSK threshold. ``build_mode_table`` returns
the eight lower thresholds in dB, BPSK first, and ``mode_bits`` the b of
the fastest mode an SNR reaches, each threshold inclusive.

Transfer of alpha packets of phi bits at D bits/symbol needs
tau = ceil(alpha phi / D) slots and E = (P + P_proc) tau T_s joules
(spent energy is summed over a route's hops in ``metrics``).
Harvested power follows the saturating nonlinearity
P_harv = M_h (1 - exp(-a x)) / (1 + exp(-a (x - b))), zero at x = 0 and
approaching M_h as the received power x grows. Every constant here is
read from ``SimConfig``.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

from .config import SimConfig

BER_CONSTANTS = (2.0, 1.5, 1.0, 1.0)  # (c1, c2, c3, c4) of the BER model
MAX_RATE = 8  # bits/symbol of the largest constellation, 256-QAM


@lru_cache(maxsize=16)
def build_mode_table(target_ber: float, rule: str = "table3") -> tuple[float, ...]:
    """Lower SNR thresholds in dB of the M-QAM modes b = 1..MAX_RATE, BPSK first; computed once per key."""
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
    return tuple(thresholds_db)


def mode_bits(thresholds_db: tuple[float, ...], snr_db: float) -> int:
    """Bits per symbol of the fastest mode whose threshold ``snr_db`` reaches; 0 below BPSK's (and for NaN)."""
    return bisect.bisect_right(thresholds_db, snr_db) if snr_db >= thresholds_db[0] else 0


def transfer_slots(total_bits: int, rate: float) -> int:
    """ceil(alpha phi / rate) slots; rate is bits/symbol or bits/use."""
    if rate <= 0:
        raise ValueError("zero-rate link cannot carry the transfer")
    return int(math.ceil(total_bits / rate))


def harvested_power(cfg: SimConfig, received_power: float) -> float:
    """Saturating harvest curve; exactly 0 at zero input, < M_h always."""
    if received_power < 0:
        raise ValueError("received power must be nonnegative")
    x = received_power
    return (
        cfg.mh_mw * 1e-3
        * (1.0 - math.exp(-cfg.eh_slope * x))
        / (1.0 + math.exp(-cfg.eh_slope * (x - cfg.eh_threshold_w)))
    )


def harvested_energy_for_transfer(cfg: SimConfig, received_power: float, slots: int) -> float:
    """Harvest accumulated over the transfer, converted to joules via T_s."""
    if slots < 1:
        raise ValueError("slots must be >= 1")
    return harvested_power(cfg, received_power) * slots * cfg.slot_s
