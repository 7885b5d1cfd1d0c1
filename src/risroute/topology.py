"""Scenario geometry as arrays, and directional neighborhood queries.

A topology is one source point S, one destination point D, an (m, 2)
array of intermediate-user (IU) positions and a (k, 2) array of
reflector (RIS) positions, every RIS having the same element count.
Nodes are named by integer ids in one layout:

    0                  S
    1                  D
    2 .. m+1           IUs in array order, labels U1..Um
    m+2 .. m+k+1       RISs in array order, labels R1..Rk

so an IU's id minus ``FIRST_IU_ID`` is its row in the IU array and in the
run's traffic arrays.

Every routing step scans the half-disc of radius r facing the destination
(the forward half circle) and orders candidates by least remaining
distance (LRD), ties broken by lower id. Nodes sitting exactly on the
perpendicular through the scan center count as zero progress and are
excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import SimConfig

SOURCE_ID = 0
DEST_ID = 1
FIRST_IU_ID = 2


class NodeKind(Enum):
    SOURCE = "source"
    DEST = "dest"
    IU = "iu"
    RIS = "ris"


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class Topology:
    """Immutable scenario: endpoint points plus IU and RIS position arrays."""

    def __init__(
        self,
        source: Position,
        dest: Position,
        iu_xy: np.ndarray,
        ris_xy: np.ndarray,
        ris_elements: int,
        coverage_radius: float,
        arena: tuple[float, float],
    ):
        if coverage_radius <= 0:
            raise ValueError("coverage_radius must be positive")
        self.iu_xy = np.asarray(iu_xy, dtype=float).reshape(-1, 2)
        self.ris_xy = np.asarray(ris_xy, dtype=float).reshape(-1, 2)
        if len(self.ris_xy) and ris_elements < 1:
            raise ValueError("RIS nodes need ris_elements >= 1")
        w, h = arena
        xy = np.vstack([(source.x, source.y), (dest.x, dest.y), self.iu_xy, self.ris_xy])
        outside = np.nonzero(~((xy[:, 0] >= 0.0) & (xy[:, 0] <= w) & (xy[:, 1] >= 0.0) & (xy[:, 1] <= h)))[0]
        if outside.size:
            i = int(outside[0])
            raise ValueError(f"node {i} at ({xy[i, 0]}, {xy[i, 1]}) lies outside the arena")
        self.source = source
        self.dest = dest
        self.ris_elements = int(ris_elements)
        self.coverage_radius = float(coverage_radius)
        self.arena = (float(w), float(h))
        self.first_ris_id = FIRST_IU_ID + len(self.iu_xy)
        self._groups = {
            NodeKind.SOURCE: (SOURCE_ID, xy[0:1]),
            NodeKind.DEST: (DEST_ID, xy[1:2]),
            NodeKind.IU: (FIRST_IU_ID, self.iu_xy),
            NodeKind.RIS: (self.first_ris_id, self.ris_xy),
        }

    def group(self, kind: NodeKind, iu_xy: np.ndarray | None = None) -> tuple[int, np.ndarray]:
        """(first id, (n, 2) positions) of one kind; ``iu_xy`` overrides the IUs (mobility)."""
        first, xy = self._groups[kind]
        if kind is NodeKind.IU and iu_xy is not None:
            return first, iu_xy
        return first, xy

    def kind(self, node_id: int) -> NodeKind:
        if node_id == SOURCE_ID:
            return NodeKind.SOURCE
        if node_id == DEST_ID:
            return NodeKind.DEST
        if FIRST_IU_ID <= node_id < self.first_ris_id:
            return NodeKind.IU
        if self.first_ris_id <= node_id < self.first_ris_id + len(self.ris_xy):
            return NodeKind.RIS
        raise ValueError(f"no node with id {node_id}")

    def label(self, node_id: int) -> str:
        kind = self.kind(node_id)
        if kind is NodeKind.SOURCE:
            return "S"
        if kind is NodeKind.DEST:
            return "D"
        if kind is NodeKind.IU:
            return f"U{node_id - FIRST_IU_ID + 1}"
        return f"R{node_id - self.first_ris_id + 1}"

    def position(self, node_id: int, iu_xy: np.ndarray | None = None) -> Position:
        """Where ``node_id`` is; ``iu_xy`` overrides the IU positions (mobility)."""
        if node_id == SOURCE_ID:
            return self.source
        if node_id == DEST_ID:
            return self.dest
        first, xy = self.group(self.kind(node_id), iu_xy)
        row = node_id - first
        return Position(float(xy[row, 0]), float(xy[row, 1]))


def half_circle_scan(
    topo: Topology,
    center: Position,
    target: Position,
    kinds: NodeKind | tuple[NodeKind, ...],
    iu_positions: np.ndarray | None = None,
) -> list[int]:
    """Ids of the nodes within coverage of ``center`` in the half-disc facing ``target``.

    Keeps nodes with strictly positive projection onto the center->target
    axis and distance <= r from the center, ordered by ascending remaining
    distance to the target, ties broken by lower node id. The center itself
    never qualifies (zero projection). Empty result is valid.
    """
    if center == target:
        raise ValueError("scan center must differ from target")
    if isinstance(kinds, NodeKind):
        kinds = (kinds,)
    c = np.array((center.x, center.y))
    t = np.array((target.x, target.y))
    axis = t - c
    axis = axis / np.linalg.norm(axis)
    r = topo.coverage_radius
    ids, remaining = [], []
    for kind in kinds:
        first, pos = topo.group(kind, iu_positions)
        if not len(pos):
            continue
        rel = pos - c
        dist_c = np.hypot(rel[:, 0], rel[:, 1])
        proj = rel @ axis
        hits = np.nonzero((proj > 0.0) & (dist_c <= r))[0]
        if not hits.size:
            continue
        ids.append(first + hits)
        remaining.append(np.hypot(pos[hits, 0] - t[0], pos[hits, 1] - t[1]))
    if not ids:
        return []
    ids, remaining = np.concatenate(ids), np.concatenate(remaining)
    return ids[np.lexsort((ids, remaining))].tolist()


def min_hops(l: float, r: float) -> int:
    """Minimum hop count to span distance l with per-hop reach r."""
    if l <= 0 or r <= 0:
        raise ValueError("distance and coverage must be positive")
    return int(math.ceil(l / r))


def hops_consumed(s_pos: Position, u_pos: Position, r: float) -> int:
    """Nominal hops already spent reaching u_pos from s_pos: floor(|S-U|/r)."""
    if r <= 0:
        raise ValueError("coverage must be positive")
    return int(math.floor(s_pos.distance_to(u_pos) / r))


def ris_grid_positions(arena: tuple[float, float], spacing: float) -> np.ndarray:
    """(k, 2) grid covering the arena row by row, first row/column offset by spacing/2."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    w, h = arena
    xs, ys = np.meshgrid(np.arange(spacing / 2.0, w, spacing), np.arange(spacing / 2.0, h, spacing))
    return np.column_stack([xs.ravel(), ys.ravel()])


def generate_topology(cfg: SimConfig, rng: np.random.Generator) -> Topology:
    """Random IU placement plus a deterministic RIS grid.

    IUs are uniform over the arena; RISs sit on a grid with spacing
    <= coverage so a forward half-disc always holds a reflector. The
    source and destination are the config's ``source_xy`` and ``dest_xy``;
    either left unset is drawn uniformly (redrawn until the two are distinct).
    """
    arena = (cfg.arena_m, cfg.arena_m)
    source = Position(*cfg.source_xy) if cfg.source_xy else None
    dest = Position(*cfg.dest_xy) if cfg.dest_xy else None
    if source is None or dest is None:
        while True:
            draw = rng.uniform(0.0, cfg.arena_m, size=4)
            s = source or Position(float(draw[0]), float(draw[1]))
            d = dest or Position(float(draw[2]), float(draw[3]))
            if s.distance_to(d) > 1e-9:
                source, dest = s, d
                break
    iu_xy = rng.uniform(0.0, cfg.arena_m, size=(cfg.iu_count, 2))
    ris_xy = ris_grid_positions(arena, cfg.ris_spacing)
    return Topology(source, dest, iu_xy, ris_xy, cfg.ris_elements, cfg.coverage_m, arena)
