"""Route-level data throughput and energy efficiency.

Throughput composes per-hop terms harmonically over the X+1 transmission
hops: a direct hop contributes 1/((1-P_b) m_q) and a reflected hop 1/R_i,

    D_T = 1 / sum_i [ (1-a_i)/((1-P_b) m_qi) + a_i/R_i ],

with a_i = 1 on reflected hops. The verbatim form uses the constellation
size m_q; the normalized variant replaces it with bits/symbol log2(m_q)
(see ``constellation_term``) — both are reported side by side in the
experiment CSVs since the two mix units differently.

Energy efficiency is delivered bits over net energy,

    E_eff = alpha phi / ( (P+P_proc) T_s sum tau_i  -  sum E_harv,j ),

the second sum being the energy harvested by the relays along the way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SimConfig
from .router import HopKind, RouteLedger


class NetNegativeEnergyError(ValueError):
    """Harvest exceeded spend; the efficiency ratio is undefined."""


@dataclass(frozen=True)
class RouteMetrics:
    throughput: float  # verbatim constellation-size composition
    throughput_normalized: float  # bits/symbol composition
    energy_efficiency: float  # bits per joule
    hop_count: int
    ris_count: int


def data_throughput(ledger: RouteLedger, target_ber: float, constellation_term: str = "size") -> float:
    """Harmonic throughput over the transmission hops of a successful route."""
    if not ledger.success:
        raise ValueError("throughput is defined for successful routes only")
    if constellation_term not in ("size", "bits"):
        raise ValueError(f"constellation_term must be 'size' or 'bits', got {constellation_term!r}")
    denom = 0.0
    for hop in ledger.transmission_hops:
        direct = hop.kind is HopKind.DIRECT_IU
        term = hop.constellation if direct and constellation_term == "size" else hop.rate
        if term <= 0:
            raise ValueError(f"{hop.kind.value} hop with rate term {term} in a successful route")
        denom += 1.0 / ((1.0 - target_ber) * term) if direct else 1.0 / term
    return 1.0 / denom


def energy_efficiency(ledger: RouteLedger, cfg: SimConfig) -> float:
    """Delivered bits per joule of net (spent minus harvested) energy."""
    if not ledger.success:
        raise ValueError("energy efficiency is defined for successful routes only")
    hops = ledger.transmission_hops
    spent = (cfg.tx_power_w + cfg.proc_power_w) * cfg.slot_s * sum(h.slots_used for h in hops)
    harvested = sum(h.harvested_j for h in hops)
    net = spent - harvested
    if net <= 0.0:
        raise NetNegativeEnergyError(
            f"harvested {harvested:.3e} J >= spent {spent:.3e} J on this route"
        )
    return cfg.total_bits / net


def compute_route_metrics(ledger: RouteLedger, cfg: SimConfig) -> RouteMetrics:
    """Both throughput variants plus efficiency, straight from a ledger."""
    return RouteMetrics(
        throughput=data_throughput(ledger, cfg.target_ber, "size"),
        throughput_normalized=data_throughput(ledger, cfg.target_ber, "bits"),
        energy_efficiency=energy_efficiency(ledger, cfg),
        hop_count=ledger.hop_count,
        ris_count=ledger.ris_count,
    )
