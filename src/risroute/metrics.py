"""Route-level data throughput and energy efficiency, as detail-CSV columns.

Throughput composes per-hop terms harmonically over the X+1 transmission
hops: a direct hop at mode b contributes 1/((1-P_b) m_q) with constellation
size m_q = 2**b, and a reflected hop 1/R_i,

    D_T = 1 / sum_i [ (1-a_i)/((1-P_b) m_qi) + a_i/R_i ],

with a_i = 1 on reflected hops. ``D_T`` is this verbatim form;
``D_T_normalized`` replaces m_q with the bits per symbol b. The two mix
units differently, so the experiment CSVs report both, and one pass over
the hops sums both denominators and the energy terms.

Energy efficiency is delivered bits over net energy,

    E_eff = alpha phi / ( (P+P_proc) T_s sum tau_i  -  sum E_harv,j ),

the second sum being the energy harvested by the relays along the way.
"""

from __future__ import annotations

from .config import SimConfig
from .router import HopKind, RouteLedger


def compute_route_metrics(ledger: RouteLedger, cfg: SimConfig) -> dict:
    """The columns ``D_T``, ``D_T_normalized``, ``E_eff``, ``ris_count`` and ``hops`` of a successful route."""
    if not ledger.success:
        raise ValueError("route metrics are defined for successful routes only")
    hops = ledger.transmission_hops
    size_denom = bits_denom = harvested = 0.0
    slots = 0
    for hop in hops:
        if hop.rate <= 0:
            raise ValueError(f"{hop.kind.value} hop with rate {hop.rate} in a successful route")
        direct = hop.kind is HopKind.DIRECT_IU
        scale = 1.0 - cfg.target_ber if direct else 1.0  # 1 - P_b on direct hops; 1.0 * x is x, bit for bit
        size_denom += 1.0 / (scale * (2.0**hop.rate if direct else hop.rate))
        bits_denom += 1.0 / (scale * hop.rate)
        slots += hop.slots_used
        harvested += hop.harvested_j
    net = (cfg.tx_power_w + cfg.proc_power_w) * cfg.slot_s * slots - harvested
    return {"D_T": 1.0 / size_denom, "D_T_normalized": 1.0 / bits_denom, "E_eff": cfg.total_bits / net,
            "ris_count": ledger.ris_count, "hops": len(hops)}
