"""Hop-by-hop route construction under a total delay budget.

At each position the transmitter scans the forward half-disc for idle
relays, keeps the (relay, constellation) pairs whose transfer fits inside
the relay's estimated idle window (the availability constraint), and takes
the pair with the smallest slot count, ties broken by least remaining
distance then lower id. With no qualifying relay it defers once — waiting
the minimum estimated turn-idle time of the busy relays in sight, budget
permitting — rescans, and only then falls back to a reflector: the
surface whose best reachable idle relay makes the most forward progress,
extended to exactly one adjacent surface (a double reflection) when no
single reflection finds anyone, after which the attempt stops.

Reflected hops carry the short-packet achievable rate instead of a
constellation (no rate adaptation through a surface), and the relay
reached harvests energy from the received signal on every hop.

Baseline policies restrict the reflector stage (single-only /
double-only), pin the constellation (no rate adaptation), or swap the
reflected rate for its infinite-blocklength limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import channel, delaymodel, linkbudget, topology, traffic
from .config import SimConfig
from .linkbudget import ModeTable, TransferDemand, TransmissionMode
from .topology import DEST_ID, FIRST_IU_ID, NodeKind, Position, Topology

LEDGER_SCHEMA_VERSION = 1


class HopKind(Enum):
    DIRECT_IU = "direct_iu"
    SINGLE_RIS = "single_ris"
    DOUBLE_RIS = "double_ris"
    WAIT = "wait"


HOP_KINDS = (HopKind.DIRECT_IU, HopKind.SINGLE_RIS, HopKind.DOUBLE_RIS)  # by surfaces crossed


class FailureReason(Enum):
    NO_IU_NO_RIS = "no_iu_no_ris"
    DELAY_EXCEEDED = "delay_exceeded"
    DEAD_END_AFTER_DOUBLE_RIS = "dead_end_after_double_ris"
    OUTAGE = "outage"  # counterpart moved out of coverage mid-transfer


@dataclass(frozen=True)
class HopChoice:
    kind: HopKind
    via: tuple[int, ...]  # node ids: (iu,) | (ris, endpoint) | (ris_i, ris_j, endpoint)
    labels: tuple[str, ...]
    slots_used: int
    rate: float  # bits/symbol on direct hops, bits/use on reflected hops
    constellation: int  # m_q on direct hops, 0 on reflected hops and waits
    harvested_j: float
    remaining_m: float  # distance endpoint -> destination after the hop


@dataclass
class RouteLedger:
    hops: list[HopChoice] = field(default_factory=list)
    total_slots: int = 0
    success: bool = False
    failure_reason: FailureReason | None = None
    total_delay_s: float = 0.0
    slot_s: float = 0.0
    psi: int = 0

    @property
    def transmission_hops(self) -> list[HopChoice]:
        return [h for h in self.hops if h.kind is not HopKind.WAIT]

    @property
    def hop_count(self) -> int:
        return len(self.transmission_hops)

    @property
    def ris_count(self) -> int:
        """Reflectors engaged along the route (a double reflection uses two)."""
        total = 0
        for h in self.hops:
            if h.kind is HopKind.SINGLE_RIS:
                total += 1
            elif h.kind is HopKind.DOUBLE_RIS:
                total += 2
        return total

    def trace(self) -> str:
        """Route in hop notation, e.g. ``S → R1 → U3 → R3+R4 → U5 → D``."""
        parts = ["S"]
        for h in self.transmission_hops:
            if h.kind is HopKind.DIRECT_IU:
                parts.append(h.labels[-1])
            elif h.kind is HopKind.SINGLE_RIS:
                parts.extend([h.labels[0], h.labels[-1]])
            else:
                parts.append("+".join(h.labels[:-1]))
                parts.append(h.labels[-1])
        return " → ".join(parts)

    def to_rows(self) -> list[dict]:
        """One dict per hop plus a summary row (schema v1)."""
        rows = []
        for i, h in enumerate(self.hops):
            rows.append(
                {
                    "index": i,
                    "kind": h.kind.value,
                    "ids": "+".join(h.labels) if h.labels else "",
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


BASELINE_POLICIES = {
    "full": RoutePolicy(),
    "shannon": RoutePolicy(shannon=True),
    "single_ris": RoutePolicy(ris_mode="single_only"),
    "double_ris": RoutePolicy(ris_mode="double_only"),
    "fixed_mod": RoutePolicy(adaptive=False),
}


@dataclass(frozen=True)
class CandidateLink:
    node_id: int
    snr_db: float
    snr_linear: float
    remaining_m: float
    nu_idle_slots: float


def usable_modes(table: ModeTable, snr_db: float, fixed_rate_bits: int | None) -> list[TransmissionMode]:
    """Constellations a direct link at ``snr_db`` may carry, in ascending rate.

    Every transmitting mode up to the channel's best one; with a pinned
    ``fixed_rate_bits`` only that mode, and only if the channel supports it.
    """
    best = table.select(snr_db)
    if best.rate == 0:
        return []
    if fixed_rate_bits is None:
        return [m for m in table.modes[1:] if m.rate <= best.rate]
    return [m for m in table.modes[1:] if m.rate == fixed_rate_bits and m.rate <= best.rate]


def availability_set(
    links: list[CandidateLink],
    table: ModeTable,
    demand: TransferDemand,
    fixed_rate_bits: int | None = None,
) -> list[tuple[CandidateLink, TransmissionMode, int]]:
    """All (relay, constellation, slot-count) triples passing the
    availability constraint tau_req <= nu_I for the relay.

    Every usable constellation of a relay is enumerated (cost |idle| x
    |modes|); with a pinned ``fixed_rate_bits`` at most one.
    """
    out = []
    for link in links:
        for mode in usable_modes(table, link.snr_db, fixed_rate_bits):
            tau = linkbudget.transfer_slots(demand, mode)
            if tau <= link.nu_idle_slots:
                out.append((link, mode, tau))
    return out


def select_iu(
    aset: list[tuple[CandidateLink, TransmissionMode, int]],
) -> tuple[CandidateLink, TransmissionMode, int]:
    """argmin of the slot count; ties by least remaining distance, then id."""
    if not aset:
        raise ValueError("availability set is empty")
    return min(aset, key=lambda entry: (entry[2], entry[0].remaining_m, entry[0].node_id))


class Router:
    """Single-route state machine: one topology, one traffic field, one clock.

    ``means`` is the per-IU ``(lambda_s, mu_s)`` pair of arrays that
    ``experiments._profiles_for`` returns, in IU row order.
    """

    def __init__(
        self,
        topo: Topology,
        means: tuple[np.ndarray, np.ndarray],
        cfg: SimConfig,
        rng: np.random.Generator,
        policy: RoutePolicy | None = None,
        mobility=None,
    ):
        lambda_s, mu_s = means
        if len(lambda_s) != len(topo.iu_xy) or len(mu_s) != len(topo.iu_xy):
            raise ValueError("need one (lambda_s, mu_s) pair per IU")
        self.topo = topo
        self.cfg = cfg
        self.rng = rng
        self.policy = policy or RoutePolicy()
        self.mobility = mobility
        self.params = channel.LinkBudgetParams.from_config(cfg)
        self.table = linkbudget.build_mode_table(cfg.target_ber, rule=cfg.threshold_rule)
        self.demand = TransferDemand.from_config(cfg)
        self.harvester = linkbudget.HarvesterParams.from_config(cfg)
        self.fixed_rate_bits = None if self.policy.adaptive else cfg.fixed_rate_bits
        self.field = traffic.TrafficField(lambda_s, mu_s, cfg.slot_s, cfg.delta, cfg.p_th, rng)
        self.clock = 0  # slots elapsed

    # -- geometry/time helpers -------------------------------------------------

    def _iu_positions(self) -> np.ndarray | None:
        if self.mobility is None:
            return None
        return self.mobility.positions_at(self.clock * self.cfg.slot_s)

    def _idle_window(self, node_id: int) -> float:
        """nu_I of an IU in slots; the destination is never busy."""
        if self.topo.kind(node_id) is NodeKind.IU:
            return float(self.field.nu_idle[node_id - FIRST_IU_ID])
        return math.inf

    def _elapsed_s(self) -> float:
        return self.clock * self.cfg.slot_s

    def _remaining_s(self) -> float:
        return self.cfg.total_delay_s - self._elapsed_s()

    # -- link evaluation -------------------------------------------------------

    def _direct_candidates(self, origin: Position, ids: list[int], iu_pos) -> list[CandidateLink]:
        """Fresh fading and SNR for each node on a direct device-device link."""
        if not ids:
            return []
        fading = channel.sample_fading(len(ids), self.params.rician_k_db, self.rng)
        dest = self.topo.dest
        links = []
        for node_id, amp in zip(ids, fading.amplitudes):
            pos = self.topo.position(node_id, iu_pos)
            d = origin.distance_to(pos)
            snr = channel.direct_snr(self.params, complex(amp), d)
            links.append(
                CandidateLink(
                    node_id=node_id,
                    snr_db=10.0 * math.log10(snr) if snr > 0 else -math.inf,
                    snr_linear=snr,
                    remaining_m=pos.distance_to(dest),
                    nu_idle_slots=self._idle_window(node_id),
                )
            )
        return links

    def _reflected_rate(self, gamma: float) -> float:
        if self.policy.shannon:
            return channel.shannon_rate(gamma)
        return channel.finite_blocklength_rate(gamma, self.cfg.blocklength, self.cfg.epsilon)

    # -- traffic helpers -------------------------------------------------------

    def _split_idle_busy(self, ius: list[int]) -> tuple[list[int], list[int]]:
        rows = np.array(ius, dtype=np.intp) - FIRST_IU_ID
        states = self.field.states_at(self.clock, rows, self.rng)
        idle = [i for i, s in zip(ius, states) if s == traffic.IDLE]
        busy = [i for i, s in zip(ius, states) if s == traffic.BUSY]
        return idle, busy

    # -- route steps -----------------------------------------------------------

    def _try_position(self, origin: Position):
        """One scan at the current epoch: destination shortcut, then relays.

        Returns (entry | None, busy_ids); ``entry`` is a commit-ready
        (link, mode, tau) tuple.
        """
        dest = self.topo.dest
        iu_pos = self._iu_positions()
        found = topology.half_circle_scan(
            self.topo, origin, dest, (NodeKind.DEST, NodeKind.IU), iu_positions=iu_pos
        )
        ius = [i for i in found if i != DEST_ID]
        if DEST_ID in found:
            link = self._direct_candidates(origin, [DEST_ID], iu_pos)[0]
            modes = usable_modes(self.table, link.snr_db, self.fixed_rate_bits)
            if modes:  # the fastest usable mode
                return (link, modes[-1], linkbudget.transfer_slots(self.demand, modes[-1])), []
        origin_remaining = origin.distance_to(dest)
        idle, busy = self._split_idle_busy(ius)
        links = self._direct_candidates(origin, idle, iu_pos)
        # forward progress is required of a hop, not just half-disc membership
        links = [ln for ln in links if ln.remaining_m < origin_remaining]
        busy = [i for i in busy if self.topo.position(i, iu_pos).distance_to(dest) < origin_remaining]
        aset = availability_set(links, self.table, self.demand, self.fixed_rate_bits)
        if aset:
            return select_iu(aset), busy
        return None, busy

    def _reflector_endpoints(self, ris_id: int, origin: Position, gamma_of) -> list[tuple]:
        """Qualifying endpoints behind reflector ``ris_id``: (link, tau, rate)."""
        iu_pos = self._iu_positions()
        dest = self.topo.dest
        origin_remaining = origin.distance_to(dest)
        found = topology.half_circle_scan(
            self.topo, self.topo.position(ris_id), dest, (NodeKind.DEST, NodeKind.IU), iu_positions=iu_pos
        )
        idle, _ = self._split_idle_busy([i for i in found if i != DEST_ID])
        out = []
        for node_id in ([DEST_ID] if DEST_ID in found else []) + idle:
            pos = self.topo.position(node_id, iu_pos)
            remaining = pos.distance_to(dest)
            if remaining >= origin_remaining:
                continue  # a reflector hop must still make forward progress
            gamma = gamma_of(pos)
            rate = self._reflected_rate(gamma)
            if rate <= 0.0:
                continue
            tau = linkbudget.transfer_slots_at_rate(self.demand, rate)
            nu = self._idle_window(node_id)
            if tau > nu:
                continue
            link = CandidateLink(
                node_id=node_id,
                snr_db=10.0 * math.log10(gamma) if gamma > 0 else -math.inf,
                snr_linear=gamma,
                remaining_m=remaining,
                nu_idle_slots=nu,
            )
            out.append((link, tau, rate))
        return out

    def ris_fallback(self, origin: Position):
        """Reflector stage; returns (surfaces, link, tau, rate) or a FailureReason.

        ``surfaces`` holds the one or two RIS ids the signal crosses, in
        order; ``link`` is the endpoint behind the last one.

        Single reflection: every visible surface is scored by the forward
        progress of its best qualifying endpoint. Double reflection: the
        surface nearest the destination extends to exactly one adjacent
        surface; no third. "single_only" skips the extension,
        "double_only" skips the single stage.
        """
        topo = self.topo
        n_elements = topo.ris_elements
        candidates = topology.half_circle_scan(topo, origin, topo.dest, NodeKind.RIS)
        if not candidates:
            return FailureReason.NO_IU_NO_RIS
        incoming: dict[int, channel.FadingVector] = {}

        if self.policy.ris_mode in ("both", "single_only"):
            best = None  # ((progress, ris_id), ris_id, entry)
            for ris_id in candidates:
                h_in = channel.sample_fading(n_elements, self.params.rician_k_db, self.rng)
                incoming[ris_id] = h_in
                ris_pos = topo.position(ris_id)
                d_in = origin.distance_to(ris_pos)

                def gamma_of(pos, _ris_pos=ris_pos, _h_in=h_in, _d_in=d_in):
                    h_out = channel.sample_fading(n_elements, self.params.rician_k_db, self.rng)
                    return channel.optimal_single_reflection_snr(
                        self.params, _h_in, h_out, _d_in, _ris_pos.distance_to(pos)
                    )

                endpoints = self._reflector_endpoints(ris_id, origin, gamma_of)
                if not endpoints:
                    continue
                entry = self._select_reflector_endpoint(endpoints)
                progress = min(e[0].remaining_m for e in endpoints)
                key = (progress, ris_id)
                if best is None or key < best[0]:
                    best = (key, ris_id, entry)
            if best is not None:
                _, ris_id, (link, tau, rate) = best
                return (ris_id,), link, tau, rate

        if self.policy.ris_mode in ("both", "double_only"):
            first = candidates[0]  # nearest the destination (LRD scan order)
            first_pos = topo.position(first)
            adjacent = topology.half_circle_scan(topo, first_pos, topo.dest, NodeKind.RIS)
            adjacent = [r for r in adjacent if r != first]
            if not adjacent:
                return FailureReason.DEAD_END_AFTER_DOUBLE_RIS
            second = adjacent[0]
            second_pos = topo.position(second)
            h_in = incoming.get(first)
            if h_in is None:
                h_in = channel.sample_fading(n_elements, self.params.rician_k_db, self.rng)
            h_mid = channel.sample_fading((n_elements, n_elements), self.params.rician_k_db, self.rng)
            d_in = origin.distance_to(first_pos)
            d_mid = first_pos.distance_to(second_pos)

            def gamma_of(pos):
                h_out = channel.sample_fading(n_elements, self.params.rician_k_db, self.rng)
                phase_i, phase_j = channel.alternating_double_phases(h_in, h_mid, h_out)
                return channel.double_reflection_sinr(
                    self.params,
                    h_in,
                    phase_i,
                    h_mid,
                    phase_j,
                    h_out,
                    d_in,
                    d_mid,
                    second_pos.distance_to(pos),
                )

            endpoints = self._reflector_endpoints(second, origin, gamma_of)
            if endpoints:
                link, tau, rate = self._select_reflector_endpoint(endpoints)
                return (first, second), link, tau, rate
        return FailureReason.DEAD_END_AFTER_DOUBLE_RIS

    @staticmethod
    def _select_reflector_endpoint(endpoints: list[tuple]) -> tuple:
        for entry in endpoints:
            if entry[0].node_id == DEST_ID:
                return entry
        return min(endpoints, key=lambda e: (e[1], e[0].remaining_m, e[0].node_id))

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RouteLedger:
        cfg = self.cfg
        topo = self.topo
        src = topo.source
        dst = topo.dest
        l = src.distance_to(dst)
        psi = topology.min_hops(l, topo.coverage_radius)
        ledger = RouteLedger(total_delay_s=cfg.total_delay_s, slot_s=cfg.slot_s, psi=psi)
        if cfg.total_delay_s < cfg.slot_s:
            ledger.failure_reason = FailureReason.DELAY_EXCEEDED
            return ledger
        budget = delaymodel.DelayBudget.start(cfg.total_delay_s, psi)
        current_pos = src

        while True:
            wait_slots = 0
            entry, busy = self._try_position(current_pos)
            if entry is None:
                wait_slots = self._deferral(busy, budget)
                if wait_slots > 0:
                    self.clock += wait_slots
                    ledger.hops.append(
                        HopChoice(
                            kind=HopKind.WAIT,
                            via=(),
                            labels=(),
                            slots_used=wait_slots,
                            rate=0.0,
                            constellation=0,
                            harvested_j=0.0,
                            remaining_m=current_pos.distance_to(dst),
                        )
                    )
                    entry, _ = self._try_position(current_pos)
            if entry is not None:
                link, mode, tau = entry
                hop = self._commit(current_pos, (), link, tau, mode.rate, mode.constellation, ledger)
            else:
                # reflector decision epoch costs one slot
                self.clock += 1
                if self._remaining_s() < 0:
                    ledger.failure_reason = FailureReason.DELAY_EXCEEDED
                    ledger.total_slots = self.clock
                    return ledger
                outcome = self.ris_fallback(current_pos)
                if isinstance(outcome, FailureReason):
                    ledger.failure_reason = outcome
                    ledger.total_slots = self.clock
                    return ledger
                surfaces, link, tau, rate = outcome
                hop = self._commit(current_pos, surfaces, link, tau, rate, 0, ledger)
                wait_slots += 1  # the decision slot joins the t'' tally
            if hop is None:  # commit failed on time or outage; reason already set
                ledger.total_slots = self.clock
                return ledger
            endpoint_id, endpoint_pos = hop
            if endpoint_id == DEST_ID:
                ledger.success = True
                ledger.total_slots = self.clock
                return ledger
            # budget the next position, carrying this position's wait forward
            psi_next = topology.hops_consumed(src, endpoint_pos, topo.coverage_radius)
            wait_s = wait_slots * cfg.slot_s
            try:
                budget.advance(wait_s, psi_next)
            except delaymodel.HopOvershootError:
                budget.pin_next(wait_s, self._remaining_s())
            current_pos = endpoint_pos

    # -- commit helpers ----------------------------------------------------------

    def _deferral(self, busy: list[int], budget: delaymodel.DelayBudget) -> int:
        """Slots to wait at this position, honoring the wait caps; 0 = skip."""
        if not busy:
            return 0
        eta = traffic.deferral_window(self.field.eta_idle[np.array(busy, dtype=np.intp) - FIRST_IU_ID])
        cap = min(budget.current_limit, self._remaining_s())
        if eta * self.cfg.slot_s > cap:
            return 0
        return eta

    def _outage(self, anchor: Position, node_id: int, end_clock: int) -> bool:
        """Counterpart out of coverage of ``anchor`` at transfer end (mobile runs only)."""
        if self.mobility is None or self.topo.kind(node_id) is not NodeKind.IU:
            return False
        moved = self.mobility.positions_at(end_clock * self.cfg.slot_s)
        return anchor.distance_to(self.topo.position(node_id, moved)) > self.topo.coverage_radius

    def _commit(self, origin: Position, surfaces: tuple[int, ...], link: CandidateLink,
                tau: int, rate: float, constellation: int, ledger: RouteLedger):
        """Transmit from ``origin`` to ``link``'s node via zero, one or two ``surfaces``.

        Returns (endpoint id, endpoint position), or None with the ledger's
        failure reason set when the transfer overruns the delay budget or
        the endpoint leaves coverage of the last transmitter meanwhile.
        Raises ValueError, before any state changes, on a hop that does not
        end strictly closer to the destination than ``origin``.
        """
        if not link.remaining_m < origin.distance_to(self.topo.dest):
            raise ValueError(
                f"hop to {self.topo.label(link.node_id)} ends {link.remaining_m} m from the "
                "destination, no closer than its origin"
            )
        if (self.clock + tau) * self.cfg.slot_s > self.cfg.total_delay_s:
            ledger.failure_reason = FailureReason.DELAY_EXCEEDED
            return None
        self.clock += tau
        anchor = self.topo.position(surfaces[-1]) if surfaces else origin
        if self._outage(anchor, link.node_id, self.clock):
            ledger.failure_reason = FailureReason.OUTAGE
            return None
        harvested = 0.0
        if self.topo.kind(link.node_id) is NodeKind.IU:
            received = link.snr_linear * self.params.noise_power
            harvested = linkbudget.harvested_energy_for_transfer(
                self.harvester, received, tau, self.cfg.slot_s
            )
        via = (*surfaces, link.node_id)
        ledger.hops.append(
            HopChoice(
                kind=HOP_KINDS[len(surfaces)],
                via=via,
                labels=tuple(self.topo.label(i) for i in via),
                slots_used=tau,
                rate=float(rate),
                constellation=constellation,
                harvested_j=harvested,
                remaining_m=link.remaining_m,
            )
        )
        return link.node_id, self.topo.position(link.node_id, self._iu_positions())


def route(
    topo: Topology,
    means: tuple[np.ndarray, np.ndarray],
    cfg: SimConfig,
    rng: np.random.Generator,
    policy: RoutePolicy | None = None,
    mobility=None,
) -> RouteLedger:
    """Run the full decision procedure once and return its ledger."""
    return Router(topo, means, cfg, rng, policy=policy, mobility=mobility).run()


def baseline_route(
    variant: str,
    topo: Topology,
    means: tuple[np.ndarray, np.ndarray],
    cfg: SimConfig,
    rng: np.random.Generator,
    mobility=None,
) -> RouteLedger:
    """Route under a named comparison policy (see BASELINE_POLICIES)."""
    if variant not in BASELINE_POLICIES:
        raise ValueError(f"unknown variant {variant!r}; choose from {sorted(BASELINE_POLICIES)}")
    return route(topo, means, cfg, rng, policy=BASELINE_POLICIES[variant], mobility=mobility)
