"""Invariants every route ledger satisfies.

``check_ledger`` lists each broken invariant of one ledger against the
config it was routed on. The ledger names its topology (``topo``) and says
whether its IUs moved (``mobile``); a hop's kind and a route's success are
read off what it records (``router``), so they cannot disagree with it:

* remaining distance strictly decreases hop by hop from |S−D| (``math.dist``,
  as the router measures), and a wait keeps it;
* the route's slot total is at least the sum of its hops' slots (equal until
  the reflector decision slot becomes a ledger entry);
* a successful route ends at D and fits its delay budget;
* a direct hop carries a whole bit count b of ``linkbudget``'s modes, a
  reflected hop a positive rate;
* a hop's recorded SNR, the one it was priced at, is a nonnegative number,
  and its rate is one that SNR gives: a direct hop's b is at most the mode
  the SNR reaches (``linkbudget.mode_bits`` over the config's mode table),
  and a reflected hop's rate is exactly ``channel.finite_blocklength_rate``
  or ``channel.shannon_rate`` of it, and at most the Shannon rate;
* each hop uses the ``linkbudget.transfer_slots`` its rate needs; an IU
  endpoint harvests exactly ``linkbudget.harvested_energy_for_transfer`` of
  the power its SNR receives over those slots, and D harvests 0;
* a hop harvests less than it spends, (P + P_proc) T_s per slot used, so a
  route's net energy, the denominator of ``metrics``' E_eff, is positive;
* each hop crosses at most two surfaces, each a RIS, and ends at D or an IU;
* when the IUs stay still, each node a hop reaches lies within the coverage
  radius of the point it was scanned from (the hop's origin, then each
  surface), measured with ``np.hypot`` as ``topology.half_circle_scan``
  measures. Moving IUs leave the topology's table, so a mobile route skips
  this one.

When IUs move, a hop's remaining distance is taken where its endpoint was
at the scan, and the endpoint moves on during the transfer; so the distance
of the position the next hop starts from is known only at the source and
after a wait, which records it, and only there is a mobile hop checked.

The trajectory kind checks each ledger before it writes the ledger's CSV
(``experiments``); the grid kinds do not, as a check costs about a
twentieth of a dense-relay route (r = 90 m, 900 IUs; medians of 400 routes
on a 2-vCPU host: 42 us against 0.74 ms).
"""

from __future__ import annotations

import math

import numpy as np

from . import channel, linkbudget
from .config import SimConfig
from .linkbudget import MAX_RATE
from .router import HOP_KINDS, HopKind, RouteLedger, _decibels
from .topology import DEST_ID, SOURCE_ID


def check_ledger(ledger: RouteLedger, cfg: SimConfig) -> list[str]:
    """Each invariant ``ledger`` breaks, as a sentence naming the hop (module docstring)."""
    problems = []
    topo, mobile = ledger.topo, ledger.mobile
    thresholds_db = linkbudget.build_mode_table(cfg.target_ber, rule=cfg.threshold_rule)
    start = math.dist(topo.xy[SOURCE_ID].tolist(), topo.xy[DEST_ID].tolist())  # None once unknown (docstring)
    reached = []  # (node, anchor): each node a hop reaches and the point it was scanned from
    anchor = SOURCE_ID
    for i, hop in enumerate(ledger.hops):
        if len(hop.via) >= len(HOP_KINDS):
            problems.append(f"hop {i}: names {len(hop.via)} nodes, more than two surfaces and an endpoint")
            continue
        if hop.kind is HopKind.WAIT:
            if start is not None and hop.remaining_m != start:
                problems.append(f"hop {i}: a wait moves the remaining distance")
            start = hop.remaining_m
            continue
        if start is not None and not hop.remaining_m < start:
            problems.append(f"hop {i}: remaining distance {hop.remaining_m!r} m is not below {start!r} m")
        start = None if mobile else hop.remaining_m
        if hop.via[-1] not in topo.relay_ids:
            problems.append(f"hop {i}: ends at {hop.via[-1:]}, neither D nor an IU")
            continue
        *surfaces, endpoint = hop.via
        if not all(s in topo.ris_ids for s in surfaces):
            problems.append(f"hop {i}: surfaces {tuple(surfaces)} are not all RIS ids")
        before = len(problems)
        if not hop.snr >= 0.0:
            problems.append(f"hop {i}: SNR {hop.snr!r} is not a nonnegative number")
        elif hop.kind is HopKind.DIRECT_IU:
            if hop.rate not in range(1, MAX_RATE + 1):
                problems.append(f"hop {i}: direct rate {hop.rate!r} is not a bit count 1..{MAX_RATE}")
            elif hop.rate > (reach := linkbudget.mode_bits(thresholds_db, _decibels(hop.snr))):
                problems.append(f"hop {i}: direct rate {hop.rate!r} is above the {reach} bits its SNR reaches")
        elif not hop.rate > 0.0:
            problems.append(f"hop {i}: reflected rate {hop.rate!r} is not positive")
        elif hop.rate not in (rates := (channel.finite_blocklength_rate(hop.snr, cfg.blocklength, cfg.epsilon),
                                        channel.shannon_rate(hop.snr))):
            problems.append(f"hop {i}: reflected rate {hop.rate!r} is not a rate its SNR gives, {rates!r} "
                            "(short-packet, Shannon)")
        elif hop.rate > rates[1]:
            problems.append(f"hop {i}: reflected rate {hop.rate!r} is above the Shannon rate {rates[1]!r} of its SNR")
        if len(problems) == before:  # a rate and an SNR the two checks below can read
            if hop.slots_used != (slots := linkbudget.transfer_slots(cfg.total_bits, hop.rate)):
                problems.append(f"hop {i}: uses {hop.slots_used} slots, not the {slots} its rate needs")
            elif hop.harvested_j != (due := 0.0 if endpoint == DEST_ID else
                                     linkbudget.harvested_energy_for_transfer(cfg, hop.snr * cfg.noise_w, slots)):
                problems.append(f"hop {i}: harvests {hop.harvested_j!r} J, not the {due!r} J its SNR gives")
        if not hop.harvested_j < (spent := (cfg.tx_power_w + cfg.proc_power_w) * cfg.slot_s * hop.slots_used):
            problems.append(f"hop {i}: harvests {hop.harvested_j!r} J, not below the {spent!r} J it spends")
        reached += zip(hop.via, (anchor, *surfaces))
        anchor = endpoint
    used = sum(h.slots_used for h in ledger.hops)
    if ledger.total_slots < used:
        problems.append(f"total_slots {ledger.total_slots} is below the {used} slots the hops used")
    if ledger.success:
        if anchor != DEST_ID:
            problems.append("a successful route does not end at D")
        if ledger.total_slots * cfg.slot_s > cfg.total_delay_s:
            problems.append(f"a successful route's {ledger.total_slots} slots overrun its delay budget")
    if reached and not mobile:
        nodes, anchors = zip(*reached)
        rel = topo.xy[list(nodes)] - topo.xy[list(anchors)]
        for node, a, d in zip(nodes, anchors, np.hypot(rel[:, 0], rel[:, 1]).tolist()):
            if not d <= cfg.coverage_m:
                problems.append(f"{topo.label(node)} lies {d!r} m from {topo.label(a)}, "
                                f"beyond r = {cfg.coverage_m!r} m")
    return problems
