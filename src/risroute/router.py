"""Hop-by-hop route construction under a total delay budget.

Every hop is picked by one rule from the forward half-disc of the current
transmitter: the destination when it qualifies, otherwise the endpoint
that needs the fewest slots, ties broken by least remaining distance then
lower id. Endpoints are sought in three stages, each yielding commit-ready
entries ``(node_id, snr, remaining_m, tau, rate, surfaces)`` (``Entry``):

* the destination at its fastest usable mode, else idle relays, each
  yielding one entry: its mode needing the fewest slots (the lowest bit
  count b among equal-slot ones), kept only if the transfer fits the
  relay's estimated idle window (the availability constraint). With none,
  the transmitter defers once — waiting the minimum estimated turn-idle
  time of the busy relays in sight that would make forward progress,
  budget permitting — and rescans. One amplitude draw covers every idle
  relay in sight, in scan order, but a link is evaluated only for those
  strictly closer to the destination than the transmitter, the only ones a
  hop may take, and whose idle window holds the fewest slots any mode
  needs, the only ones that can pass the availability constraint. The
  stage picks its hop in the same pass: it keeps the best entry so far by
  ``select_entry``'s order, and builds an entry only for a relay that
  becomes the best (``availability_set`` followed by ``select_entry`` is
  its oracle);
* one reflector: the surface whose best qualifying endpoint makes the
  most forward progress;
* two reflectors: the surface nearest the destination extended to exactly
  one adjacent surface, after which the attempt stops.

A direct hop's rate is its mode's bit count b (constellation 2**b);
reflected hops carry the short-packet achievable rate instead (no rate
adaptation through a surface), and the relay
reached harvests energy from the received signal on every hop. One clock
counts the slots spent, and moving IUs (mobility runs) move with it.

Baseline policies restrict the reflector stage (single-only /
double-only), pin the constellation (no rate adaptation), or swap the
reflected rate for its infinite-blocklength limit.

Node positions are rows of the node table ``Router.xy`` (a node's id is its
row; see ``topology``): the topology's own table in static runs, a copy
whose IU rows follow the walk in mobile runs. A point is an ``(x, y)``
pair of floats read from a row (one ``xy[ids]`` read per scan), and every
distance compared or written is ``math.dist`` of two points. The scan's
``np.hypot`` distances are never reused: they differ from ``math.dist`` in
the last bit for some pairs, and a hop must make forward progress by the
same distance the ledger records.

Stopping early. Candidates come in scan order, least remaining distance
first, so the relay and single-reflection stages stop evaluating links once
no later candidate can win. Every traffic observation and draw still
happens, so each hop is the one the exhaustive stage picks over the same
draws (the oracles in ``tests/test_router.py``):

* relays: once a link's entry needs the floor, the fewest slots any allowed
  mode needs (``SlotTable.floor``), only a later link at most as far from
  the destination can beat it, so the pass ends at the first later link
  farther than that entry's remaining distance times ``STOP_MARGIN``. Up to
  there the running best is compared on the whole key (slots, remaining
  distance, id): a later link can be 1 ulp nearer than an earlier one
  (below);
* single reflection: each single stage observes once, before any draw: the
  IUs in sight of all its surfaces, in one call, first seen first. A
  surface's key is the least remaining distance of its qualifying
  endpoints, then its id. Its endpoints are evaluated in scan order only
  while one could still lower that key or beat the best key so far (a tie
  on remaining distance goes to the lower id, so an equal distance is still
  evaluated); the winning surface is then evaluated in full for
  ``select_entry``. An endpoint's ``h_out`` is drawn when it is first
  evaluated, and the surface's ``h_in`` just before the first of them, so a
  surface or endpoint that is never evaluated draws nothing.

The scan orders by ``np.hypot`` and the router keys on ``math.dist``; both
are faithfully rounded norms of the same coordinate differences, within
1 ulp (at most 2^-52 relative) of one value. So a node later in scan order
is at least the earlier one's ``math.dist`` times 1 - 2^-50 from the
destination, and once a link is farther than R (1 + 2^-48) every later one
is farther than R. The destination shortcut, the traffic observations and
the double-reflection stage stay eager.

Surfaces never move, so every surface scan, and every IU scan of a static
router, is read from the topology's memo (``topology.Topology.scan``; how it
computes a miss is ``topology``'s to say). A mobile router's IU rows are the
topology's until its first tick, so its IU scans at clock 0 read the memo
too, and the scans of a static route on the same topology serve them. After
that it scans its moving IUs afresh, on the numpy path: no memo, no table.

The ledger (``RouteLedger``) is the route's only record: a hop's kind is
read off the nodes it names (``HOP_KINDS``), a route's success off its
failure reason, and ``mobile`` says whether the IUs moved.

Stages reached. Each ledger records the deepest stage its route reached
(``STAGES``): the relay stage, the reflector stage (``ris_fallback``
entered) or the double stage (a reflector stage ended its single stage
without a hop, or skipped it, whether the policy then runs the double stage
or stops). Routes on one topology and stream under two policies consume the
same draws and pick the same hops until the first stage whose outcome the
policies can change (``RoutePolicy.first_difference``). So a route that
never reached that stage is, ledger and all, the route the other policy
takes: a comparison replication reuses it instead of routing again.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import channel, delaymodel, linkbudget, topology, traffic
from .config import SimConfig
from .topology import DEST_ID, FIRST_IU_ID, SOURCE_ID, Point, Topology

LEDGER_SCHEMA_VERSION = 1
STAGES = ("relay", "reflector", "double")  # in the order a route reaches them (module docstring)
STOP_MARGIN = 1.0 + 2.0**-48  # covers np.hypot scan order against math.dist keys (module docstring)
Endpoint = tuple[int, Point, float, float]  # a reflected hop's end: id, position, remaining distance, idle window


class HopKind(Enum):
    DIRECT_IU = "direct_iu"
    SINGLE_RIS = "single_ris"
    DOUBLE_RIS = "double_ris"
    WAIT = "wait"


HOP_KINDS = (HopKind.WAIT, HopKind.DIRECT_IU, HopKind.SINGLE_RIS, HopKind.DOUBLE_RIS)  # by nodes named


class FailureReason(Enum):
    NO_IU_NO_RIS = "no_iu_no_ris"
    DELAY_EXCEEDED = "delay_exceeded"
    DEAD_END_AFTER_DOUBLE_RIS = "dead_end_after_double_ris"
    OUTAGE = "outage"  # counterpart moved out of coverage mid-transfer


@dataclass(frozen=True)
class HopChoice:
    via: tuple[int, ...]  # node ids: (iu,) | (ris, endpoint) | (ris_i, ris_j, endpoint); () on waits
    slots_used: int
    rate: float  # bit count b (constellation 2**b) on direct hops, bits/use on reflected hops
    harvested_j: float
    remaining_m: float  # distance endpoint -> destination after the hop

    @property
    def kind(self) -> HopKind:
        return HOP_KINDS[len(self.via)]


@dataclass
class RouteLedger:
    hops: list[HopChoice] = field(default_factory=list)
    total_slots: int = 0
    failure_reason: FailureReason | None = None  # None once the route reached the destination
    total_delay_s: float = 0.0
    slot_s: float = 0.0
    psi: int = 0
    stage_reached: str = "relay"  # the deepest of STAGES the route reached
    mobile: bool = False  # the IUs moved during the route
    topo: Topology | None = field(default=None, compare=False, repr=False)  # names the hops' node ids

    @property
    def success(self) -> bool:
        return self.failure_reason is None

    @property
    def transmission_hops(self) -> list[HopChoice]:
        return [h for h in self.hops if h.kind is not HopKind.WAIT]

    @property
    def hop_count(self) -> int:
        return len(self.transmission_hops)

    @property
    def ris_count(self) -> int:
        """Reflectors engaged along the route (a double reflection uses two)."""
        return sum(len(h.via) - 1 for h in self.transmission_hops)

    def trace(self) -> str:
        """Route in hop notation, e.g. ``S → R1 → U3 → R3+R4 → U5 → D``."""
        parts = ["S"]
        for h in self.transmission_hops:
            *surfaces, endpoint = map(self.topo.label, h.via)
            if surfaces:
                parts.append("+".join(surfaces))
            parts.append(endpoint)
        return " → ".join(parts)

    def to_rows(self) -> list[dict]:
        """One dict per hop plus a summary row (schema v1)."""
        rows = []
        for i, h in enumerate(self.hops):
            rows.append(
                {
                    "index": i,
                    "kind": h.kind.value,
                    "ids": "+".join(map(self.topo.label, h.via)),
                    "slots": h.slots_used,
                    "rate": h.rate,
                    "harvested_J": h.harvested_j,
                    "remaining_distance_m": h.remaining_m,
                }
            )
        rows.append(
            {
                "index": "summary",
                "kind": "success" if self.success else f"fail:{self.failure_reason.value}",
                "ids": self.trace(),
                "slots": self.total_slots,
                "rate": "",
                "harvested_J": sum(h.harvested_j for h in self.hops),
                "remaining_distance_m": self.hops[-1].remaining_m if self.hops else "",
            }
        )
        return rows


@dataclass(frozen=True)
class RoutePolicy:
    ris_mode: str = "both"  # "both" | "single_only" | "double_only"
    adaptive: bool = True  # False pins the constellation to SimConfig.fixed_rate_bits
    shannon: bool = False

    def __post_init__(self):
        if self.ris_mode not in ("both", "single_only", "double_only"):
            raise ValueError(f"unknown ris_mode {self.ris_mode!r}")

    @property
    def runs_single(self) -> bool:
        return self.ris_mode != "double_only"

    @property
    def runs_double(self) -> bool:
        return self.ris_mode != "single_only"

    def first_difference(self, other: RoutePolicy) -> str | None:
        """The first of ``STAGES`` whose outcome can differ between this policy and ``other`` over the
        same draws, or None when none can: ``adaptive`` sets the relay stage's modes, ``shannon`` and
        whether the single stage runs shape the reflector stage, whether the double stage runs only
        the double stage."""
        if self.adaptive != other.adaptive:
            return "relay"
        if self.shannon != other.shannon or self.runs_single != other.runs_single:
            return "reflector"
        if self.runs_double != other.runs_double:
            return "double"
        return None


BASELINE_POLICIES = {
    "full": RoutePolicy(),
    "shannon": RoutePolicy(shannon=True),
    "single_ris": RoutePolicy(ris_mode="single_only"),
    "double_ris": RoutePolicy(ris_mode="double_only"),
    "fixed_mod": RoutePolicy(adaptive=False),
}


class CandidateLink(NamedTuple):
    """A direct link from the transmitter, the input of ``availability_set``."""

    node_id: int
    snr_db: float
    snr_linear: float
    remaining_m: float
    nu_idle_slots: float  # inf for the destination, which is never busy


def _decibels(snr: float) -> float:
    return 10.0 * math.log10(snr) if snr > 0 else -math.inf


class Entry(NamedTuple):
    """A commit-ready hop decision: its endpoint, the linear SNR there (what the endpoint harvests from),
    the endpoint's remaining distance, its slot count, how it is carried, and the surfaces it crosses."""

    node_id: int
    snr: float
    remaining_m: float
    tau: int
    rate: float  # bit count b on direct hops, bits/use on reflected hops
    surfaces: tuple[int, ...] = ()  # RIS ids crossed, in order; () on direct hops


class SlotTable(NamedTuple):
    """The direct modes a policy allows for one transfer size, by a link's reach: the bit count b of
    the fastest mode its SNR reaches (``linkbudget.mode_bits`` over ``thresholds_db``), 0 to
    ``MAX_RATE``. Its usable modes are the allowed ones up to b: every one, or a pinned one only if
    b reaches it. ``fastest[b]`` and ``cheapest[b]`` are the ``(slots, bits)`` it is taken at, or None
    when no mode is usable."""

    thresholds_db: tuple[float, ...]  # lower SNR thresholds of b = 1..MAX_RATE, BPSK first (the mode table)
    fastest: tuple[tuple[int, int] | None, ...]  # the destination's: the usable mode with the most bits
    cheapest: tuple[tuple[int, int] | None, ...]  # a relay's: the least (slots, bits) among usable modes
    floor: int  # the fewest slots any allowed mode needs
    floor_db: float  # the SNR a link needs to reach the floor: the threshold of cheapest[MAX_RATE]'s mode


@functools.lru_cache(maxsize=16)
def slot_table(thresholds_db: tuple[float, ...], total_bits: int, fixed_rate_bits: int | None) -> SlotTable:
    """The modes of mode table ``thresholds_db`` (``linkbudget.build_mode_table``) a policy allows for
    ``total_bits`` per transfer: every mode up to ``MAX_RATE``, or only a pinned ``fixed_rate_bits``;
    computed once per key, read-only."""
    allowed = range(1, linkbudget.MAX_RATE + 1) if fixed_rate_bits is None else (fixed_rate_bits,)
    modes = [(linkbudget.transfer_slots(total_bits, bits), bits) for bits in allowed]  # ascending bits
    usable = [[m for m in modes if m[1] <= reach] for reach in range(linkbudget.MAX_RATE + 1)]
    floor, floor_bits = min(modes)
    return SlotTable(thresholds_db, tuple(u[-1] if u else None for u in usable),
                     tuple(min(u, default=None) for u in usable), floor, thresholds_db[floor_bits - 1])


def availability_set(links: list[CandidateLink], table: SlotTable) -> list[Entry]:
    """At most one entry per relay, in link order: the link's node, linear SNR and
    remaining distance at its usable mode (``SlotTable``) needing the fewest
    slots, the lowest bit count among equal-slot ones, kept only if it passes
    the availability constraint tau_req <= nu_I.

    Slot counts never rise with the rate, so this is the only mode of the
    relay that ``select_entry`` could take, and if it overruns the idle
    window every mode does.

    The router does not call it: ``Router._relay_stage`` applies the same rule
    link by link in one pass, and ``select_entry`` over this set is that pass's
    oracle in the tests. It stays here because the benchmark's tracer wraps it
    by name.
    """
    cheapest, thresholds_db = table.cheapest, table.thresholds_db
    return [Entry(link.node_id, link.snr_linear, link.remaining_m, *mode) for link in links
            if (mode := cheapest[linkbudget.mode_bits(thresholds_db, link.snr_db)]) and mode[0] <= link.nu_idle_slots]


def select_entry(entries: list[Entry]) -> Entry:
    """The destination when it qualifies, else the argmin of the slot count;
    ties by least remaining distance, then id (then first listed). Raises
    ValueError on no entry."""
    return min(entries, key=lambda e: (e.node_id != DEST_ID, e.tau, e.remaining_m, e.node_id))


class Router:
    """Single-route state machine: one topology, one traffic field, one clock.

    ``law`` is the traffic chain law of the run's IUs in IU row order
    (``experiments._profiles_for`` returns the config's), shared read-only.
    """

    def __init__(
        self,
        topo: Topology,
        law: traffic.ChainLaw,
        cfg: SimConfig,
        rng: np.random.Generator,
        policy: RoutePolicy = RoutePolicy(),
        mobility=None,
    ):
        if len(law.pi) != len(topo.iu_xy):
            raise ValueError("need one traffic chain per IU")
        self.topo = topo
        self.cfg = cfg
        self.rng = rng
        self.policy = policy
        self.mobility = mobility
        self.slots = slot_table(linkbudget.build_mode_table(cfg.target_ber, rule=cfg.threshold_rule),
                                cfg.total_bits, None if policy.adaptive else cfg.fixed_rate_bits)
        self.field = traffic.TrafficField(law, rng)
        self.clock = 0  # slots elapsed
        self.xy = topo.xy if mobility is None else topo.xy.copy()  # node positions at the clock
        self.relay_ids = range(DEST_ID, topo.first_ris_id)  # the destination and the IUs
        self.ris_ids = range(topo.first_ris_id, len(topo.xy))
        self.dest = topo.dest

    # -- clock -------------------------------------------------------------------

    def _tick(self, slots: int) -> None:
        """Advance the clock by ``slots``, and the IU walk with it (mobile runs only)."""
        self.clock += slots
        if self.mobility is not None:
            ius = self.mobility.positions_at(self.clock * self.cfg.slot_s)
            self.xy[FIRST_IU_ID:self.topo.first_ris_id] = ius

    def _remaining_s(self) -> float:
        return self.cfg.total_delay_s - self.clock * self.cfg.slot_s

    # -- link evaluation -------------------------------------------------------

    def _point(self, node_id: int) -> Point:
        """Where ``node_id`` is at the clock."""
        return tuple(self.xy[node_id].tolist())

    def _scan(self, center: Point, ids: range | None = None) -> tuple[int, ...]:
        """Ids in ``ids`` (default: the destination and the IUs) in the half-disc of ``center`` facing
        the destination; from the topology's memo unless they are IUs that have moved (a mobile
        router's IU rows are the topology's, bit for bit, until the first tick)."""
        if ids is None and self.mobility is not None and self.clock:
            return tuple(topology.half_circle_scan(self.xy, self.relay_ids, center, self.dest, self.cfg.coverage_m))
        return self.topo.scan(self.relay_ids if ids is None else ids, center, self.cfg.coverage_m)

    def _reflected_rate(self, gamma: float) -> float:
        if self.policy.shannon:
            return channel.shannon_rate(gamma)
        return channel.finite_blocklength_rate(gamma, self.cfg.blocklength, self.cfg.epsilon)

    def _forward(self, node_ids: Sequence[int], origin: Point) -> list[Endpoint]:
        """The endpoint of each of ``node_ids`` strictly closer to the destination than ``origin``, in
        the given order: (id, position, remaining distance, idle window), the destination's window inf."""
        dest, nu_idle = self.dest, self.field.law.nu_idle
        origin_remaining = math.dist(origin, dest)
        rows = zip(node_ids, self.xy[list(node_ids)].tolist())
        return [(i, pos, r, math.inf if i == DEST_ID else float(nu_idle[i - FIRST_IU_ID]))
                for i, pos in rows if (r := math.dist(pos, dest)) < origin_remaining]

    def _split_idle_busy(self, found: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """The ids of the IUs in ``found`` (distinct ids) idle and busy at the clock, as arrays in the
        given order; one observation of each."""
        ids = np.array([i for i in found if i != DEST_ID], dtype=np.intp)
        idle = self.field.states_at(self.clock, ids - FIRST_IU_ID, self.rng) == traffic.IDLE
        return ids[idle], ids[~idle]

    # -- route steps -----------------------------------------------------------

    def _relay_stage(self, origin: Point) -> tuple[Entry | None, list[int]]:
        """One scan at the current epoch: (entry, []), or (None, the busy IU ids in sight).

        The destination, when in sight with a usable mode, is taken at its fastest mode before any IU
        traffic is observed. Otherwise the IUs in sight are observed once, one amplitude draw covers
        the idle ones, and one pass over them in scan order keeps the best key so far by
        ``select_entry``'s order, building an ``Entry`` only for a relay that takes the lead (module
        docstring; ``availability_set`` over ``CandidateLink``s is the pass's oracle). The
        ids stay one array up to the pass, and the busy ones are listed only when there is no entry:
        the deferral is their only reader.
        """
        found = self._scan(origin)
        cfg, dest, slots = self.cfg, self.dest, self.slots
        if found and found[0] == DEST_ID:  # at 0 m from itself, the destination leads any scan it is in
            amp = channel.sample_amplitudes(1, cfg.rician_k_db, self.rng).tolist()[0]
            snr = channel.direct_snr(cfg, amp, math.dist(origin, dest))
            if mode := slots.fastest[linkbudget.mode_bits(slots.thresholds_db, _decibels(snr))]:
                return Entry(DEST_ID, snr, 0.0, *mode), []
            found = found[1:]
        if not found:
            return None, []
        ids = np.fromiter(found, np.intp, len(found))
        rows = ids - FIRST_IU_ID
        idle = self.field.states_at(self.clock, rows, self.rng) == traffic.IDLE
        relays = ids[idle]
        best = key = None
        if len(relays):
            nus = self.field.law.nu_idle[rows[idle]].tolist()
            amplitudes = channel.sample_amplitudes(len(relays), cfg.rician_k_db, self.rng).tolist()
            limit, stop = math.dist(origin, dest), math.inf
            thresholds_db, cheapest, floor, floor_db = slots.thresholds_db, slots.cheapest, slots.floor, slots.floor_db
            for node_id, pos, amp, nu in zip(relays.tolist(), self.xy[relays].tolist(), amplitudes, nus):
                remaining = math.dist(pos, dest)
                if remaining > stop:
                    break
                if remaining < limit and nu >= floor:  # forward progress, and an idle window that can fit
                    snr = channel.direct_snr(cfg, amp, math.dist(origin, pos))
                    snr_db = _decibels(snr)
                    if stop == math.inf and snr_db >= floor_db:
                        stop = remaining * STOP_MARGIN
                    mode = cheapest[linkbudget.mode_bits(thresholds_db, snr_db)]
                    if mode and mode[0] <= nu and (key is None or (mode[0], remaining, node_id) < key):
                        key = (mode[0], remaining, node_id)
                        best = Entry(node_id, snr, remaining, *mode)
        return (None, ids[~idle].tolist()) if best is None else (best, [])

    def _reflected_entry(self, endpoint: Endpoint, gamma: float, surfaces: tuple[int, ...]) -> Entry | None:
        """The entry of ``endpoint`` reached over ``surfaces`` at SNR ``gamma``, or None when its rate is
        zero or its transfer overruns its idle window."""
        node_id, _, remaining, nu = endpoint
        rate = self._reflected_rate(gamma)
        if rate <= 0.0:
            return None
        tau = linkbudget.transfer_slots(self.cfg.total_bits, rate)
        return Entry(node_id, gamma, remaining, tau, rate, surfaces) if tau <= nu else None

    def _single_surface(self, origin: Point, ris_id: int, endpoints: list[Endpoint], incoming: dict):
        """A function giving the entry of the i-th of ``endpoints`` behind ``ris_id``, worked out on first
        call: that draws the surface's ``h_in`` amplitudes into ``incoming`` unless they are there, then
        the endpoint's ``h_out`` amplitudes."""
        n_elements, k_db = self.cfg.ris_elements, self.cfg.rician_k_db
        ris_pos = self._point(ris_id)
        d_in = math.dist(origin, ris_pos)
        entries: dict[int, Entry | None] = {}

        def entry_at(i: int) -> Entry | None:
            if i not in entries:
                if ris_id not in incoming:
                    incoming[ris_id] = channel.sample_amplitudes(n_elements, k_db, self.rng)
                h_out = channel.sample_amplitudes(n_elements, k_db, self.rng)
                d_out = math.dist(ris_pos, endpoints[i][1])
                gamma = channel.optimal_single_reflection_snr(self.cfg, incoming[ris_id], h_out, d_in, d_out)
                entries[i] = self._reflected_entry(endpoints[i], gamma, (ris_id,))
            return entries[i]

        return entry_at

    def _single_stage(self, origin: Point, candidates: Sequence[int], incoming: dict) -> Entry | None:
        """The entry of one reflector among ``candidates`` (``surfaces`` holds that reflector's id), or
        None when no surface has a qualifying endpoint. Each ``h_in`` drawn goes into ``incoming``, by surface.

        Every candidate's IUs are observed first, in one call, and the endpoints in sight listed once
        (``_forward``); each surface takes those of its own scan, in scan order. The surface with the
        least key (least remaining distance of a qualifying endpoint, id) wins; its endpoints are
        evaluated only while one could still lower its key or beat the best key so far (module
        docstring), then in full.
        """
        scans = [self._scan(self._point(ris_id)) for ris_id in candidates]
        seen = dict.fromkeys(i for found in scans for i in found)  # first seen first
        idle = self._split_idle_busy(seen)[0].tolist()
        ends = {e[0]: e for e in self._forward([DEST_ID, *idle] if DEST_ID in seen else idle, origin)}
        best = None  # ((remaining, ris_id), endpoints, entry_at)
        for ris_id, found in zip(candidates, scans):
            endpoints = [ends[i] for i in found if i in ends]
            entry_at = self._single_surface(origin, ris_id, endpoints, incoming)
            least = math.inf  # remaining distance of this surface's nearest qualifying endpoint so far
            bound = math.inf if best is None else best[0][0]
            for i, (_, _, remaining, _) in enumerate(endpoints):
                if remaining > min(least, bound) * STOP_MARGIN:
                    break
                if remaining < least and entry_at(i) is not None:
                    least = remaining
            if least < math.inf and (best is None or (least, ris_id) < best[0]):
                best = ((least, ris_id), endpoints, entry_at)
        if best is None:
            return None
        _, endpoints, entry_at = best
        return select_entry([e for i in range(len(endpoints)) if (e := entry_at(i)) is not None])

    def ris_fallback(self, origin: Point, ledger: RouteLedger) -> Entry | FailureReason:
        """Reflector stage; returns an entry or a FailureReason.

        The entry's ``surfaces`` holds the one or two RIS ids the signal
        crosses, in order; its endpoint is behind the last one, picked by
        ``select_entry`` like a relay.

        Single reflection: every visible surface is scored by the forward
        progress of its best qualifying endpoint. Double reflection: the
        surface nearest the destination extends to exactly one adjacent
        surface; no third. "single_only" skips the extension,
        "double_only" skips the single stage.

        The double stage is a dead end before any draw or traffic
        observation when the second surface's half-disc holds neither the
        destination nor an IU strictly closer to it than ``origin``
        (``_forward``), and before any draw when the observation finds every
        such IU busy. Otherwise it draws the first surface's ``h_in`` (unless
        the single stage left it in ``incoming``), ``h_mid``, then each
        endpoint's ``h_out`` in scan order, and evaluates every endpoint. Only
        ``h_mid`` is drawn as complex gains; the ends are amplitudes.

        Entering raises ``ledger.stage_reached`` to the reflector stage, and
        passing the single stage without a hop to the double stage.
        """
        n_elements, k_db = self.cfg.ris_elements, self.cfg.rician_k_db
        if ledger.stage_reached == "relay":
            ledger.stage_reached = "reflector"
        candidates = self._scan(origin, self.ris_ids)
        if not candidates:
            return FailureReason.NO_IU_NO_RIS
        incoming: dict[int, np.ndarray] = {}  # h_in by surface, drawn at most once in the stage
        if self.policy.runs_single and (entry := self._single_stage(origin, candidates, incoming)) is not None:
            return entry

        ledger.stage_reached = "double"
        if self.policy.runs_double:
            first = candidates[0]  # nearest the destination (LRD scan order)
            first_pos = self._point(first)
            adjacent = self._scan(first_pos, self.ris_ids)  # a scan never holds its centre, so not ``first``
            if not adjacent:
                return FailureReason.DEAD_END_AFTER_DOUBLE_RIS
            second = adjacent[0]
            second_pos = self._point(second)
            found = self._scan(second_pos)
            if not (forward := self._forward(found, origin)):
                return FailureReason.DEAD_END_AFTER_DOUBLE_RIS  # nothing h_mid could reach
            idle = {DEST_ID, *self._split_idle_busy(found)[0].tolist()}
            endpoints = [e for e in forward if e[0] in idle]
            if not endpoints:
                return FailureReason.DEAD_END_AFTER_DOUBLE_RIS  # every forward IU busy: nothing to draw for
            if (h_in := incoming.get(first)) is None:
                h_in = channel.sample_amplitudes(n_elements, k_db, self.rng)
            h_mid = channel.sample_fading((n_elements, n_elements), k_db, self.rng)
            d_in, d_mid = math.dist(origin, first_pos), math.dist(first_pos, second_pos)
            entries = []
            for endpoint in endpoints:
                h_out = channel.sample_amplitudes(n_elements, k_db, self.rng)
                phase_i, phase_j = channel.alternating_double_phases(h_in, h_mid, h_out)
                gamma = channel.double_reflection_sinr(self.cfg, h_in, phase_i, h_mid, phase_j, h_out,
                                                       d_in, d_mid, math.dist(second_pos, endpoint[1]))
                if (entry := self._reflected_entry(endpoint, gamma, (first, second))) is not None:
                    entries.append(entry)
            if entries:
                return select_entry(entries)
        return FailureReason.DEAD_END_AFTER_DOUBLE_RIS

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RouteLedger:
        """Route from the source until the destination is reached or a step fails.

        Each position takes the relay stage's entry, else (after at most one
        deferral) the reflector stage's, and commits it; a failure ends the
        route with its reason. The ledger's slot total is the clock at the end.
        """
        cfg = self.cfg
        psi = topology.min_hops(math.dist(self._point(SOURCE_ID), self.dest), cfg.coverage_m)
        ledger = RouteLedger(total_delay_s=cfg.total_delay_s, slot_s=cfg.slot_s, psi=psi,
                             mobile=self.mobility is not None, topo=self.topo)
        ledger.failure_reason = self._route(ledger)
        ledger.total_slots = self.clock
        return ledger

    def _route(self, ledger: RouteLedger) -> FailureReason | None:
        """The hop loop of ``run``; None once the destination is reached."""
        holder = SOURCE_ID  # the node holding the packet; a mobile IU walks on while it waits
        src = origin = self._point(holder)
        budget = delaymodel.DelayBudget.start(self.cfg.total_delay_s, ledger.psi)
        while True:
            wait_slots = 0
            entry, busy = self._relay_stage(origin)
            if entry is None:
                wait_slots = self._deferral(origin, busy, budget)
                if wait_slots > 0:
                    self._tick(wait_slots)
                    origin = self._point(holder)
                    remaining = math.dist(origin, self.dest)
                    ledger.hops.append(HopChoice((), wait_slots, 0.0, 0.0, remaining))
                    entry, _ = self._relay_stage(origin)
            if entry is None:
                self._tick(1)  # the reflector decision epoch costs one slot
                wait_slots += 1  # and joins the t'' tally
                origin = self._point(holder)
                if self._remaining_s() < 0:
                    return FailureReason.DELAY_EXCEEDED
                entry = self.ris_fallback(origin, ledger)
                if isinstance(entry, FailureReason):
                    return entry
            endpoint = self._commit(origin, entry, ledger)
            if isinstance(endpoint, FailureReason):
                return endpoint
            if entry.node_id == DEST_ID:
                return None
            # budget the next position, carrying this position's wait forward
            psi_next = topology.hops_consumed(src, endpoint, self.cfg.coverage_m)
            budget.advance(wait_slots * self.cfg.slot_s, psi_next, self._remaining_s())
            holder, origin = entry.node_id, endpoint

    # -- commit helpers ----------------------------------------------------------

    def _deferral(self, origin: Point, busy: list[int], budget: delaymodel.DelayBudget) -> int:
        """Slots to wait at this position for the busy IUs ``busy`` in sight that would make forward
        progress, honoring the wait caps; 0 = skip."""
        forward = [e[0] for e in self._forward(busy, origin)]
        if not forward:
            return 0
        eta = traffic.deferral_window(self.field.law.eta_idle[np.array(forward, dtype=np.intp) - FIRST_IU_ID])
        cap = min(budget.current_limit, self._remaining_s())
        if eta * self.cfg.slot_s > cap:
            return 0
        return eta

    def _commit(self, origin: Point, entry: Entry, ledger: RouteLedger):
        """Transmit ``entry`` from ``origin`` over its zero, one or two surfaces.

        Returns the endpoint's position once ``_tick`` has run the
        transfer's slots, or a FailureReason and logs no hop: DELAY_EXCEEDED,
        before the clock moves, when the transfer would overrun the budget;
        OUTAGE, after it, when (mobile runs) an IU endpoint has left coverage
        of the last transmitter by the transfer's end. Raises ValueError,
        before any state changes, on a hop that does not end strictly closer
        to the destination than ``origin``.
        """
        node_id, snr, remaining, tau, rate, surfaces = entry
        if not remaining < math.dist(origin, self.dest):
            raise ValueError(
                f"hop to {self.topo.label(node_id)} ends {remaining} m from the "
                "destination, no closer than its origin"
            )
        if (self.clock + tau) * self.cfg.slot_s > self.cfg.total_delay_s:
            return FailureReason.DELAY_EXCEEDED
        self._tick(tau)
        endpoint = self._point(node_id)
        harvested = 0.0
        if node_id != DEST_ID:
            anchor = self._point(surfaces[-1]) if surfaces else origin
            if self.mobility is not None and math.dist(anchor, endpoint) > self.cfg.coverage_m:
                return FailureReason.OUTAGE
            received = snr * self.cfg.noise_w
            harvested = linkbudget.harvested_energy_for_transfer(self.cfg, received, tau)
        ledger.hops.append(HopChoice((*surfaces, node_id), tau, float(rate), harvested, remaining))
        return endpoint

