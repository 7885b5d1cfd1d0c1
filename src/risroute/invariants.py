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

from .config import SimConfig
from .linkbudget import MAX_RATE
from .router import HOP_KINDS, HopKind, RouteLedger
from .topology import DEST_ID, SOURCE_ID


def check_ledger(ledger: RouteLedger, cfg: SimConfig) -> list[str]:
    """Each invariant ``ledger`` breaks, as a sentence naming the hop (module docstring)."""
    problems = []
    topo, mobile = ledger.topo, ledger.mobile
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
        if not DEST_ID <= hop.via[-1] < topo.first_ris_id:
            problems.append(f"hop {i}: ends at {hop.via[-1:]}, neither D nor an IU")
            continue
        *surfaces, endpoint = hop.via
        if not all(topo.first_ris_id <= s < len(topo.xy) for s in surfaces):
            problems.append(f"hop {i}: surfaces {tuple(surfaces)} are not all RIS ids")
        if hop.kind is HopKind.DIRECT_IU:
            if hop.rate not in range(1, MAX_RATE + 1):
                problems.append(f"hop {i}: direct rate {hop.rate!r} is not a bit count 1..{MAX_RATE}")
        elif not hop.rate > 0.0:
            problems.append(f"hop {i}: reflected rate {hop.rate!r} is not positive")
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
