"""Scenario geometry as one node table, and directional neighborhood queries.

A topology is one ``(n, 2)`` array ``xy`` of positions in metres whose row
is the node's id, in one layout:

    0                  S
    1                  D
    2 .. m+1           IUs, labels U1..Um
    m+2 .. m+k+1       RISs, labels R1..Rk

so an IU's id minus ``FIRST_IU_ID`` is its row in the run's traffic arrays,
the destination and the IUs are the id range ``range(DEST_ID, first_ris_id)``
and the RISs ``range(first_ris_id, n)``. A point outside the table (a scan
center, a hop's origin) is an ``(x, y)`` pair of Python floats, and every
distance the router compares or writes is ``math.dist`` of two such pairs.

Every routing step scans the half-disc of radius r facing the destination
(the forward half circle) and orders candidates by least remaining
distance (LRD), ties broken by lower id. Nodes sitting exactly on the
perpendicular through the scan center count as zero progress and are
excluded. The scan measures with ``np.hypot``, which disagrees with
``math.dist`` in the last bit for about 0.6 % of point pairs (5,607 of 10^6
uniform pairs in a 400 m square), so the router recomputes every distance
it compares or writes instead of reusing the scan's.

Scan memo. A scan of the topology's own table depends only on the id range,
the centre and r (the destination is row ``DEST_ID``), so ``Topology.scan``
keeps each result, as a tuple, keyed by (id range, centre, r): a deferral's
rescan, a surface scanned again and the routes of other policies on the same
topology cost one lookup, and routes at another radius get their own
entries. A mobile route moves a copy of the table and scans it afresh.

A topology holds only positions and the memo of their scans. The coverage
radius, the arena and the surfaces' element count are ``SimConfig`` fields
(``coverage_m``, ``arena_m``, ``ris_elements``), read from the config by
whoever needs them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import SimConfig

SOURCE_ID = 0
DEST_ID = 1
FIRST_IU_ID = 2

Point = tuple[float, float]  # (x, y) in metres


class Topology:
    """Immutable scenario: the node table, every row checked to lie inside ``arena``, and the memo
    of its scans (module docstring)."""

    def __init__(self, source: Point, dest: Point, iu_xy: np.ndarray, ris_xy: np.ndarray, arena: tuple[float, float]):
        iu_xy = np.asarray(iu_xy, dtype=float).reshape(-1, 2)
        ris_xy = np.asarray(ris_xy, dtype=float).reshape(-1, 2)
        w, h = arena
        xy = np.vstack([source, dest, iu_xy, ris_xy])
        outside = np.nonzero(~((xy[:, 0] >= 0.0) & (xy[:, 0] <= w) & (xy[:, 1] >= 0.0) & (xy[:, 1] <= h)))[0]
        if outside.size:
            i = int(outside[0])
            raise ValueError(f"node {i} at ({xy[i, 0]}, {xy[i, 1]}) lies outside the arena")
        xy.flags.writeable = False
        self.xy = xy
        self.first_ris_id = FIRST_IU_ID + len(iu_xy)
        self._scans: dict[tuple[range, Point, float], tuple[int, ...]] = {}

    @property
    def iu_xy(self) -> np.ndarray:
        """The IU rows of ``xy``, in id order."""
        return self.xy[FIRST_IU_ID:self.first_ris_id]

    def label(self, node_id: int) -> str:
        if node_id == SOURCE_ID:
            return "S"
        if node_id == DEST_ID:
            return "D"
        if FIRST_IU_ID <= node_id < self.first_ris_id:
            return f"U{node_id - FIRST_IU_ID + 1}"
        if self.first_ris_id <= node_id < len(self.xy):
            return f"R{node_id - self.first_ris_id + 1}"
        raise ValueError(f"no node with id {node_id}")

    def scan(self, ids: range, center: Point, r: float) -> tuple[int, ...]:
        """``half_circle_scan`` of this table toward the destination, computed once per (ids, center, r)."""
        key = (ids, center, r)
        found = self._scans.get(key)
        if found is None:
            dest = tuple(self.xy[DEST_ID].tolist())
            found = self._scans[key] = tuple(half_circle_scan(self.xy, ids, center, dest, r))
        return found


def half_circle_scan(
    xy: np.ndarray,
    ids: range,
    center: Point,
    target: Point,
    r: float,
) -> list[int]:
    """Ids in ``ids`` (a contiguous range of rows of ``xy``) within ``r`` of
    ``center`` in the half-disc facing ``target``.

    Keeps nodes with strictly positive projection onto the center->target
    axis and distance <= r from the center, ordered by ascending remaining
    distance to the target, ties broken by lower node id. The center itself
    never qualifies (zero projection). Empty result is valid.
    """
    if center == target:
        raise ValueError("scan center must differ from target")
    c = np.array(center)
    t = np.array(target)
    axis = t - c
    axis = axis / np.linalg.norm(axis)
    pos = xy[ids.start:ids.stop]
    rel = pos - c
    dist_c = np.hypot(rel[:, 0], rel[:, 1])
    proj = rel @ axis
    hits = np.nonzero((proj > 0.0) & (dist_c <= r))[0]
    remaining = np.hypot(pos[hits, 0] - t[0], pos[hits, 1] - t[1])
    found = ids.start + hits
    return found[np.lexsort((found, remaining))].tolist()


def min_hops(l: float, r: float) -> int:
    """Minimum hop count to span distance l with per-hop reach r."""
    if l <= 0 or r <= 0:
        raise ValueError("distance and coverage must be positive")
    return int(math.ceil(l / r))


def hops_consumed(s_pos: Point, u_pos: Point, r: float) -> int:
    """Nominal hops already spent reaching u_pos from s_pos: floor(|S-U|/r)."""
    if r <= 0:
        raise ValueError("coverage must be positive")
    return int(math.floor(math.dist(s_pos, u_pos) / r))


@lru_cache(maxsize=16)
def ris_grid_positions(arena: tuple[float, float], spacing: float) -> np.ndarray:
    """(k, 2) grid covering the arena row by row, first row/column offset by spacing/2.

    Computed once per (arena, spacing) and shared, so the array is read-only.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    w, h = arena
    xs, ys = np.meshgrid(np.arange(spacing / 2.0, w, spacing), np.arange(spacing / 2.0, h, spacing))
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    grid.flags.writeable = False
    return grid


def generate_topology(cfg: SimConfig, rng: np.random.Generator) -> Topology:
    """Random IU placement plus a deterministic RIS grid.

    IUs are uniform over the arena; RISs sit on a grid with spacing
    <= coverage so a forward half-disc always holds a reflector. The
    source and destination are the config's ``source_xy`` and ``dest_xy``;
    either left unset is drawn uniformly (redrawn until the two are distinct).
    """
    arena = (cfg.arena_m, cfg.arena_m)
    source, dest = cfg.source_xy, cfg.dest_xy
    if source is None or dest is None:
        while True:
            draw = rng.uniform(0.0, cfg.arena_m, size=4).tolist()
            s = source or (draw[0], draw[1])
            d = dest or (draw[2], draw[3])
            if math.dist(s, d) > 1e-9:
                source, dest = s, d
                break
    iu_xy = rng.uniform(0.0, cfg.arena_m, size=(cfg.iu_count, 2))
    ris_xy = ris_grid_positions(arena, cfg.ris_spacing)
    return Topology(source, dest, iu_xy, ris_xy, arena)
