"""Scenario geometry as one node table, and directional neighborhood queries.

A topology is one ``(n, 2)`` array ``xy`` of positions in metres whose row
is the node's id, in one layout:

    0                  S
    1                  D
    2 .. m+1           IUs, labels U1..Um
    m+2 .. m+k+1       RISs, labels R1..Rk

so an IU's id minus ``FIRST_IU_ID`` is its row in the run's traffic arrays,
the destination and the IUs are the id range ``relay_ids``,
``range(DEST_ID, first_ris_id)``, and the RISs ``ris_ids``,
``range(first_ris_id, n)``. A point outside the table (a scan
center, a hop's origin) is an ``(x, y)`` pair of Python floats, and every
distance the router compares or writes is ``math.dist`` of two such pairs.

Every routing step scans the half-disc of radius r facing the destination
(the forward half circle) and orders candidates by least remaining
distance (LRD), ties broken by lower id. A node is forward when
dx * ax + dy * ay > 0, with (dx, dy) its offset from the centre and
(ax, ay) = target - centre, unnormalised: two float64 products and one add,
each rounded on its own, so a node's side depends on its own row alone. A
node whose projection rounds to 0 (the centre's own row, one exactly on the
perpendicular through it) counts as zero progress and is excluded. The scan
measures with ``np.hypot``, which disagrees with
``math.dist`` in the last bit for about 0.6 % of point pairs (5,607 of 10^6
uniform pairs in a 400 m square), so the router recomputes every distance
it compares or writes instead of reusing the scan's.

Scan memo. A scan of the topology's own table depends only on the id range,
the centre and r (the destination is row ``DEST_ID``), so ``Topology.scan``
keeps each result, as a tuple, keyed by (id range, centre, r): a deferral's
rescan, a surface scanned again and the routes of other policies or IU
speeds on the same topology cost one lookup, and routes at another radius
get their own entries. A mobile route moves the IU rows of a copy of the
table. Until its first tick those rows are the topology's, so its IU scans
read the memo; after it, it scans them afresh, with no memo and no index.
Its surface scans always read the memo.

Scan tables. A scan the memo misses still runs ``half_circle_scan``,
handed the topology's one table for (id range, r), built on the first scan
of that pair. ``scan_table`` decides its kind from the rows:

* a cell index (``cell_index``) where the rows are sparse in their own
  bounding box: their r-cells number no more than about four a row, and
  they average no more than 10 a cell (about 40 in a 2r square). It holds
  each row's id, ``(x, y)`` and its ``np.hypot`` distance to the
  destination, bucketed into square cells of side r with one stable
  ``argsort`` of the cell numbers, so that a scan visits only the rows of
  the 3 x 3 cells round the centre, in Python;
* scan columns (``scan_columns``) elsewhere (900 IUs at r = 90 m, the 1600
  surfaces of a 10 m grid at r = 45 m, say): contiguous x and y columns and
  each row's ``np.hypot`` distance to the destination, so the array path, a
  few numpy passes over every row, reads the remaining distances of its
  hits instead of measuring them.

The surfaces' table depends only on their rows, r and the destination, so
it is kept, read-only, in a small cache that every topology of a grid point
shares (``_surface_table``); an IU range's table belongs to its topology.
Moving IUs have none and take the array path on their raw rows.

Every path returns the same ids in the same order, bit for bit, by these
rules (``TestCellIndex``, ``TestArrayPath`` and ``TestScanColumns`` hold
them to it):

* distance: ``dist <= r`` is decided on dx^2 + dy^2 against r^2, except within
  a relative ``NEAR`` = 1e-12 of r^2, where the row's ``np.hypot`` decides, so
  both paths agree with an ``np.hypot`` of every row;
* projection: both paths compute dx * ax + dy * ay > 0 as above, the array
  path elementwise and the cell scan in Python floats, so they round alike on
  every row, one on the perpendicular included, and no scan falls back. The
  products stay finite because ``SimConfig`` bounds ``arena_m``;
* cells: a row's cell is the floor of its coordinates over r, and the cells
  a scan visits span the floors of the centre's coordinates plus and minus
  r, widened by a relative 1e-9 against rounding;
* order: hits sort by (``np.hypot`` distance to the destination, id): a stable
  sort of the hits, which are found in id order.

A topology holds only positions, the memo of their scans and their scan
tables. The coverage radius, the arena and the surfaces' element count are
``SimConfig`` fields (``coverage_m``, ``arena_m``, ``ris_elements``), read
from the config by whoever needs them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import SimConfig

SOURCE_ID = 0
DEST_ID = 1
FIRST_IU_ID = 2

Point = tuple[float, float]  # (x, y) in metres

NEAR = 1e-12  # relative band round r^2 in which a scan leaves dist <= r to np.hypot


class Topology:
    """Immutable scenario: the node table, every row checked to lie inside the square arena of side
    ``arena``, the memo of its scans and one scan table per scanned (id range, r) (module docstring)."""

    def __init__(self, source: Point, dest: Point, iu_xy: np.ndarray, ris_xy: np.ndarray, arena: float):
        iu_xy = np.asarray(iu_xy, dtype=float).reshape(-1, 2)
        ris_xy = np.asarray(ris_xy, dtype=float).reshape(-1, 2)
        xy = np.vstack([source, dest, iu_xy, ris_xy])
        if not (xy.min() >= 0.0 and xy.max() <= arena):  # NaN fails too; then find the first such row
            i = int(np.nonzero(~((xy >= 0.0) & (xy <= arena)).all(axis=1))[0][0])
            raise ValueError(f"node {i} at ({xy[i, 0]}, {xy[i, 1]}) lies outside the arena")
        xy.flags.writeable = False
        self.xy = xy
        self.dest: Point = tuple(xy[DEST_ID].tolist())
        self.first_ris_id = FIRST_IU_ID + len(iu_xy)
        self.relay_ids = range(DEST_ID, self.first_ris_id)  # the destination and the IUs
        self.ris_ids = range(self.first_ris_id, len(xy))
        self._scans: dict[tuple[range, Point, float], tuple[int, ...]] = {}
        self._tables: dict[tuple[range, float], CellIndex | ScanColumns] = {}

    @property
    def iu_xy(self) -> np.ndarray:
        """The IU rows of ``xy``, in id order."""
        return self.xy[FIRST_IU_ID:self.first_ris_id]

    def label(self, node_id: int) -> str:
        if node_id == SOURCE_ID:
            return "S"
        if node_id == DEST_ID:
            return "D"
        if node_id in self.relay_ids:
            return f"U{node_id - FIRST_IU_ID + 1}"
        if node_id in self.ris_ids:
            return f"R{node_id - self.first_ris_id + 1}"
        raise ValueError(f"no node with id {node_id}")

    def scan(self, ids: range, center: Point, r: float) -> tuple[int, ...]:
        """``half_circle_scan`` of this table toward the destination, computed once per (ids, center, r),
        through the scan table of (ids, r)."""
        key = (ids, center, r)
        found = self._scans.get(key)
        if found is None:
            table = self._tables.get((ids, r))
            if table is None:
                rows = self.xy[ids.start:ids.stop]
                if ids == self.ris_ids:
                    table = _surface_table(ids.start, rows.tobytes(), r, self.dest)
                else:
                    table = scan_table(rows, ids.start, r, self.dest)
                self._tables[ids, r] = table
            found = self._scans[key] = tuple(half_circle_scan(self.xy, ids, center, self.dest, r, table))
        return found


class CellIndex(NamedTuple):
    """The rows of one id range bucketed into square cells of side ``r`` (module docstring).

    Cell (i, j) holds the rows whose coordinates over r floor to (i, j); its entries are
    ``entries[starts[k]:starts[k + 1]]`` with k = (i - ix_lo) * width + j - iy_lo, each
    (id, x, y, ``np.hypot`` distance to ``target``), by id within a cell.
    """

    r: float
    target: Point
    ix_lo: int
    ix_hi: int
    iy_lo: int
    iy_hi: int
    width: int  # iy_hi - iy_lo + 1
    starts: tuple[int, ...]
    entries: tuple[tuple[int, float, float, float], ...]


def cell_index(rows: np.ndarray, start: int, r: float, target: Point) -> CellIndex | None:
    """The cell index of ``rows`` (ids from ``start``) for scans of radius ``r`` toward ``target``, or
    None where there are no rows, the cells their bounding box spans outnumber them more than
    fourfold, or they average more than 10 a cell."""
    n = len(rows)
    if n == 0:
        return None
    cells = np.floor(rows / r).astype(np.int64)
    ix, iy = cells[:, 0], cells[:, 1]
    ix_lo, ix_hi, iy_lo, iy_hi = int(ix.min()), int(ix.max()), int(iy.min()), int(iy.max())
    width = iy_hi - iy_lo + 1
    count = (ix_hi - ix_lo + 1) * width
    if count > 4 * n + 64 or n > 10 * count:
        return None
    flat = (ix - ix_lo) * width + (iy - iy_lo)
    order = np.argsort(flat, kind="stable")
    starts = tuple(np.searchsorted(flat[order], np.arange(count + 1)).tolist())
    x, y = rows[order, 0], rows[order, 1]
    remaining = np.hypot(x - target[0], y - target[1])
    entries = tuple(zip((start + order).tolist(), x.tolist(), y.tolist(), remaining.tolist()))
    return CellIndex(r, target, ix_lo, ix_hi, iy_lo, iy_hi, width, starts, entries)


class ScanColumns(NamedTuple):
    """The rows of one id range as contiguous x and y columns, and each row's ``np.hypot`` distance to
    ``target``, read-only: what the array path reads of a static range without a cell index."""

    target: Point
    x: np.ndarray
    y: np.ndarray
    remaining: np.ndarray


def scan_columns(rows: np.ndarray, target: Point) -> ScanColumns:
    """The scan columns of ``rows`` toward ``target``."""
    x, y = np.ascontiguousarray(rows[:, 0]), np.ascontiguousarray(rows[:, 1])
    columns = ScanColumns(target, x, y, np.hypot(x - target[0], y - target[1]))
    for column in columns[1:]:
        column.flags.writeable = False
    return columns


def scan_table(rows: np.ndarray, start: int, r: float, target: Point) -> CellIndex | ScanColumns:
    """The table the scans of ``rows`` (ids from ``start``) at radius ``r`` toward ``target`` read: their
    ``cell_index`` where they have one, else their ``scan_columns`` (module docstring)."""
    index = cell_index(rows, start, r, target)
    return scan_columns(rows, target) if index is None else index


@lru_cache(maxsize=8)
def _surface_table(start: int, rows: bytes, r: float, target: Point) -> CellIndex | ScanColumns:
    """``scan_table`` of the surface rows ``rows`` (their bytes), shared by every topology that holds them."""
    return scan_table(np.frombuffer(rows).reshape(-1, 2), start, r, target)


def _cell_scan(index: CellIndex, center: Point, r: float) -> list[int]:
    """``half_circle_scan`` through ``index``."""
    cx, cy = center
    tx, ty = index.target
    ax, ay = tx - cx, ty - cy
    r2 = r * r
    below, above = r2 * (1.0 - NEAR), r2 * (1.0 + NEAR)
    reach = r + 1e-9 * (abs(cx) + abs(cy) + r)  # r, widened against the rounding of cx +- r
    ix_lo, iy_lo, width, starts, entries = index.ix_lo, index.iy_lo, index.width, index.starts, index.entries
    i0 = max(math.floor((cx - reach) / r), ix_lo) - ix_lo
    i1 = min(math.floor((cx + reach) / r), index.ix_hi) - ix_lo
    j0 = max(math.floor((cy - reach) / r), iy_lo) - iy_lo
    j1 = min(math.floor((cy + reach) / r), index.iy_hi) - iy_lo
    if j0 > j1:
        return []
    hits = []
    for i in range(i0, i1 + 1):
        cell = i * width
        for node_id, x, y, remaining in entries[starts[cell + j0]:starts[cell + j1 + 1]]:
            dx, dy = x - cx, y - cy
            if dx * ax + dy * ay > 0.0:
                s = dx * dx + dy * dy
                if s < below or (s <= above and np.hypot(dx, dy) <= r):
                    hits.append((remaining, node_id))
    hits.sort()
    return [node_id for _, node_id in hits]


def half_circle_scan(
    xy: np.ndarray,
    ids: range,
    center: Point,
    target: Point,
    r: float,
    table: CellIndex | ScanColumns | None = None,
) -> list[int]:
    """Ids in ``ids`` (a contiguous range of rows of ``xy``) within ``r`` of
    ``center`` in the half-disc facing ``target``.

    Keeps nodes whose offset (dx, dy) from the center has dx * ax + dy * ay > 0,
    with (ax, ay) = target - center unnormalised, and whose ``np.hypot`` distance
    from the center is <= r, ordered by ascending remaining distance to the target,
    ties broken by lower node id. The center itself never qualifies (zero
    projection). Empty result is valid.

    ``table``, the ``cell_index`` of these rows for ``r`` and ``target``, lets the scan
    visit only the cells round the centre; their ``scan_columns`` for ``target`` let the
    array path read contiguous columns and the remaining distances; without either, the
    array path reads the rows of ``xy``. The result is the same (module docstring).
    """
    if center == target:
        raise ValueError("scan center must differ from target")
    if isinstance(table, CellIndex):
        if (table.r, table.target) != (r, target):
            raise ValueError("the cell index was built for another radius or target")
        return _cell_scan(table, center, r)
    if table is None:
        pos = xy[ids.start:ids.stop]
        x, y = pos[:, 0], pos[:, 1]
    elif table.target != target:
        raise ValueError("the scan columns were built for another target")
    else:
        x, y = table.x, table.y
    cx, cy = center
    ax, ay = target[0] - cx, target[1] - cy
    dx, dy = x - cx, y - cy
    s = dx * dx
    s += dy * dy
    dx *= ax  # dx and dy become the projection's two terms, summed into dx
    dy *= ay
    dx += dy
    r2 = r * r
    hits = ((s <= r2 * (1.0 + NEAR)) & (dx > 0.0)).nonzero()[0]
    band = s[hits] >= r2 * (1.0 - NEAR)
    if np.count_nonzero(band):  # rows within NEAR of r^2: np.hypot decides, as in _cell_scan
        edge = hits[band]
        band[band] = np.hypot(x[edge] - cx, y[edge] - cy) > r
        hits = hits[~band]
    if len(hits) < 2:
        return (ids.start + hits).tolist()
    if table is None:
        remaining = np.hypot(x[hits] - target[0], y[hits] - target[1])
    else:
        remaining = table.remaining[hits]
    # hits are in id order, so a stable sort breaks ties by lower id
    return (ids.start + hits[remaining.argsort(kind="stable")]).tolist()


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
def ris_grid_positions(arena: float, spacing: float) -> np.ndarray:
    """(k, 2) grid over the arena (side ``arena``) row by row, first row/column offset by spacing/2.

    Computed once per (arena, spacing) and shared, so the array is read-only.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    ticks = np.arange(spacing / 2.0, arena, spacing)
    xs, ys = np.meshgrid(ticks, ticks)
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    grid.flags.writeable = False
    return grid


def generate_topology(cfg: SimConfig, rng: np.random.Generator) -> Topology:
    """Random IU placement plus a deterministic RIS grid.

    IUs are uniform over the arena; RISs sit on the grid of
    ``cfg.ris_spacing`` (r/2 unless ``ris_spacing_m`` is set). Any spacing
    is accepted, so a forward half-disc may hold no surface: a route whose
    half-disc holds neither an IU nor a surface ends ``no_iu_no_ris``. The
    source and destination are the config's ``source_xy`` and ``dest_xy``;
    either left unset is drawn uniformly (redrawn until the two are distinct).
    """
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
    ris_xy = ris_grid_positions(cfg.arena_m, cfg.ris_spacing)
    return Topology(source, dest, iu_xy, ris_xy, cfg.arena_m)
