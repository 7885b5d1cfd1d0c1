import gc
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risroute.config import SimConfig
from risroute import topology
from risroute.experiments import MobilityField, Replication, _profiles_for, run_one_route
from risroute.router import BASELINE_POLICIES, FailureReason, Router
from risroute.topology import (
    DEST_ID,
    FIRST_IU_ID,
    SOURCE_ID,
    CellIndex,
    ScanColumns,
    Topology,
    cell_index,
    generate_topology,
    half_circle_scan,
    hops_consumed,
    min_hops,
    ris_grid_positions,
)
from risroute.traffic import TrafficField


R = 60.0  # scan radius, m


def make_topo(iu_positions, arena=400.0, src=(0.0, 0.0), dst=(400.0, 0.0), ris=()):
    return Topology(src, dst, np.array(iu_positions, dtype=float), np.array(ris, dtype=float), arena)


def point(topo, node_id):
    return tuple(topo.xy[node_id].tolist())


def scan_ius(topo):
    """The IUs in the source's half-disc facing the destination."""
    ius = range(FIRST_IU_ID, topo.first_ris_id)
    return half_circle_scan(topo.xy, ius, point(topo, SOURCE_ID), point(topo, DEST_ID), R)


class TestHalfCircleScan:
    def test_forward_node_included(self):
        topo = make_topo([(30.0, 10.0)])
        hits = scan_ius(topo)
        assert [topo.label(i) for i in hits] == ["U1"]

    def test_node_behind_excluded(self):
        # center at (50,0): the IU at (40,0) has negative projection toward (400,0)
        topo = make_topo([(40.0, 0.0)], src=(50.0, 0.0))
        hits = scan_ius(topo)
        assert hits == []

    def test_lrd_ordering(self):
        # brute-force distances to (400,0): 350.0, 360.555, 380.033
        topo = make_topo([(20.0, 5.0), (50.0, 0.0), (40.0, 20.0)])
        hits = scan_ius(topo)
        assert [topo.xy[i, 0] for i in hits] == [50.0, 40.0, 20.0]
        dists = [math.dist(point(topo, i), point(topo, DEST_ID)) for i in hits]
        assert dists == sorted(dists)

    def test_zero_projection_excluded(self):
        # nodes on the perpendicular through the center: zero progress, out
        topo = make_topo([(50.0, 30.0), (50.0, 10.0)], src=(50.0, 5.0), dst=(400.0, 5.0))
        hits = scan_ius(topo)
        assert hits == []

    def test_tie_break_lower_id(self):
        # two IUs mirrored about the axis: equal remaining distance
        topo = make_topo([(30.0, 110.0), (30.0, 90.0)], src=(0.0, 100.0), dst=(400.0, 100.0))
        hits = scan_ius(topo)
        assert hits == [2, 3]

    def test_center_equals_target_rejected(self):
        topo = make_topo([(30.0, 10.0)])
        with pytest.raises(ValueError):
            half_circle_scan(topo.xy, range(2, 3), point(topo, SOURCE_ID), point(topo, SOURCE_ID), 60.0)

    def test_subset_of_coverage_disc_random(self):
        # scan hits must be exactly the forward in-range nodes (brute force)
        rng = np.random.default_rng(1234)
        for _ in range(20):
            pts = rng.uniform(0.0, 500.0, size=(40, 2))
            topo = make_topo([tuple(p) for p in pts], arena=500.0, src=(100.0, 100.0),
                             dst=(400.0, 100.0))
            hits = set(scan_ius(topo))
            expected = set()
            (cx, cy), (tx, ty) = point(topo, SOURCE_ID), point(topo, DEST_ID)
            for j, (x, y) in enumerate(pts):
                d = math.dist((cx, cy), (x, y))
                proj = (x - cx) * (tx - cx) + (y - cy) * (ty - cy)
                if d <= R and proj > 0:
                    expected.add(2 + j)
            assert hits == expected


# whole metres give exact ties and exact zero projections; any float gives the rest
COORD = st.one_of(st.integers(0, 400).map(float), st.floats(0.0, 400.0))
POINT = st.tuples(COORD, COORD)


class TestScanProperty:
    """``half_circle_scan`` against a brute-force oracle on random tables, id ranges, centers and radii."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        xy = np.array(data.draw(st.lists(POINT, min_size=1, max_size=25)))
        start = data.draw(st.integers(0, len(xy)))
        ids = range(start, data.draw(st.integers(start, len(xy))))
        center = data.draw(st.one_of(st.sampled_from(xy.tolist()).map(tuple), POINT))  # often a node's own row
        target = data.draw(POINT.filter(lambda t: t != center))
        # any radius, or one 10 nm either side of some node's distance from the center
        near_node = st.builds(lambda row, eps: math.dist(center, row) + eps,
                              st.sampled_from(xy.tolist()), st.sampled_from((-1e-8, 1e-8)))
        r = data.draw(st.one_of(st.floats(0.5, 600.0), near_node))
        found = half_circle_scan(xy, ids, center, target, r)

        assert len(set(found)) == len(found) and set(found) <= set(ids)
        assert all(tuple(xy[i].tolist()) != center for i in found)  # the center is never a hit
        axis_len = math.dist(center, target)
        for i in ids:
            x, y = xy[i].tolist()
            proj = ((x - center[0]) * (target[0] - center[0]) + (y - center[1]) * (target[1] - center[1])) / axis_len
            margin = min(proj, r - math.dist(center, (x, y)))  # > 0 inside, < 0 outside
            if abs(margin) > 1e-9:
                assert (i in found) == (margin > 0), (i, margin)
        # ordered by the scan's remaining distance, ties by lower id
        remaining = np.hypot(xy[found, 0] - target[0], xy[found, 1] - target[1]).tolist()
        keys = list(zip(remaining, found))
        assert keys == sorted(keys)


def half_circle_scan_v3(xy, ids, center, target, r):
    """The scan as written at stream version 3, with ``np.linalg.norm`` and a ``lexsort`` on (remaining,
    id): the byte oracle of ``half_circle_scan``."""
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


class TestScanAgainstV3:
    def test_same_ids_in_the_same_order_on_6000_scans(self):
        rng = np.random.default_rng(24)
        at_r = on_perpendicular = tied = 0
        for k in range(6000):
            n = int(rng.integers(1, 60))
            if k % 2:  # whole metres on a 16 m square: exact radii, zero projections and ties
                xy = rng.integers(0, 17, size=(n, 2)).astype(float)
                center = tuple(rng.integers(0, 17, size=2).astype(float).tolist())
                target = (center[0] + float(rng.choice([-30.0, 30.0, 7.0])), center[1]) if k % 4 == 1 else (
                    center[0], center[1] + float(rng.choice([-30.0, 30.0, 7.0])))
                r = float(rng.choice([5.0, 10.0, 13.0]))
            else:  # any float, with r at some node's scan distance from the center
                xy = rng.uniform(0.0, 400.0, size=(n, 2))
                center, target = tuple(rng.uniform(0.0, 400.0, size=2).tolist()), tuple(xy[0].tolist())
                rel = xy - np.array(center)
                r = float(np.hypot(rel[:, 0], rel[:, 1])[rng.integers(n)]) if k % 4 == 0 else float(rng.uniform(5.0, 120.0))
            if center == target:
                continue
            start = int(rng.integers(0, n))
            ids = range(start, int(rng.integers(start, n + 1)))
            found = half_circle_scan(xy, ids, center, target, r)
            assert found == half_circle_scan_v3(xy, ids, center, target, r), k
            rel = xy[ids.start:ids.stop] - np.array(center)
            at_r += int(np.any(np.hypot(rel[:, 0], rel[:, 1]) == r))
            on_perpendicular += int(np.any(rel @ (np.array(target) - np.array(center)) == 0.0))
            remaining = np.hypot(xy[found, 0] - target[0], xy[found, 1] - target[1])
            tied += int(len(np.unique(remaining)) < len(found))
        # the scans did meet each edge case many times over
        assert min(at_r, on_perpendicular, tied) > 200, (at_r, on_perpendicular, tied)


class TestCellIndex:
    """``Topology.scan`` through the cell index against ``half_circle_scan``'s numpy path: the same ids
    in the same order, with the index built where few rows are in sight."""

    @staticmethod
    def check(topo, ids, center, r):
        """Whether ``topo`` scanned (ids, r) with a cell index; its scan must equal the numpy path's."""
        want = half_circle_scan(topo.xy, ids, center, point(topo, DEST_ID), r)
        assert topo.scan(ids, center, r) == tuple(want)
        return isinstance(topo._tables[ids, r], CellIndex)

    def test_same_ids_in_the_same_order_on_6000_scans(self):
        # TestScanAgainstV3's generator, as a topology's table, shifted 40 m into the arena, up to
        # 400 rows; a scan's range may hold S and D
        rng = np.random.default_rng(27)
        indexed = at_r = on_perpendicular = tied = on_boundary = 0
        for k in range(6000):
            if k % 2:  # whole metres on a 16 m square: exact radii, zero projections, ties, cell edges
                n = int(rng.integers(1, 60))
                xy = 40.0 + rng.integers(0, 17, size=(n, 2)).astype(float)
                center = tuple((40.0 + rng.integers(0, 17, size=2)).astype(float).tolist())
                step = float(rng.choice([-30.0, 30.0, 7.0]))
                target = (center[0] + step, center[1]) if k % 4 == 1 else (center[0], center[1] + step)
                r = float(rng.choice([5.0, 10.0, 13.0]))
                arena = 100.0
            else:  # any float, with r at some row's scan distance from the center
                n = int(rng.integers(1, 400))
                xy = rng.uniform(0.0, 400.0, size=(n, 2))
                center, target = tuple(rng.uniform(0.0, 400.0, size=2).tolist()), tuple(xy[0].tolist())
                rel = xy - np.array(center)
                r = float(np.hypot(rel[:, 0], rel[:, 1])[rng.integers(n)]) if k % 4 == 0 else float(rng.uniform(20.0, 120.0))
                arena = 400.0
            if center == target:
                continue
            topo = Topology(center, target, xy, [], arena)
            start = int(rng.integers(0, n + 2))
            ids = range(start, int(rng.integers(start, n + 3)))
            if not self.check(topo, ids, center, r):
                continue
            indexed += 1
            rows = topo.xy[ids.start:ids.stop]
            rel = rows - np.array(center)
            at_r += int(np.any(np.hypot(rel[:, 0], rel[:, 1]) == r))
            on_perpendicular += int(np.any((rel @ (np.array(target) - np.array(center)) == 0.0) & rel.any(axis=1)))
            found = list(topo.scan(ids, center, r))
            remaining = np.hypot(topo.xy[found, 0] - target[0], topo.xy[found, 1] - target[1])
            tied += int(len(np.unique(remaining)) < len(found))
            on_boundary += int(np.any(rows % r == 0.0)) + (center[0] % r == 0.0 or center[1] % r == 0.0)
        # the index served most scans, and met each edge case many times over
        assert indexed > 4000 and min(at_r, on_perpendicular, tied, on_boundary) > 200, (
            indexed, at_r, on_perpendicular, tied, on_boundary)

    @pytest.mark.parametrize("r", [30.0, 60.0, 90.0])
    def test_a_surface_grid_mirrored_about_the_axis(self, r):
        # the r/2 grid's rows (at 7.5 + 15k for r = 30) mirror about a multiple of r/2: surfaces in
        # pairs at one remaining distance, rows exactly r apart along either axis, every surface a
        # scan centre, whose own row no scan holds (zero projection) on either path
        axis_y = {30.0: 195.0, 60.0: 180.0, 90.0: 180.0}[r]
        cfg = SimConfig(coverage_m=r, iu_count=100, source_xy=(20.0, axis_y), dest_xy=(380.0, axis_y))
        topos = [generate_topology(cfg, np.random.default_rng(seed)) for seed in range(2)]
        for topo in topos:
            surfaces, relays = range(topo.first_ris_id, len(topo.xy)), range(DEST_ID, topo.first_ris_id)
            rows = {tuple(row) for row in topo.xy[surfaces.start:].tolist()}
            assert all((x, 2 * axis_y - y) in rows for x, y in rows if 0.0 <= 2 * axis_y - y <= cfg.arena_m)
            dest = point(topo, DEST_ID)
            for i in [*surfaces, SOURCE_ID]:
                if (center := point(topo, i)) != dest:
                    assert self.check(topo, surfaces, center, r)
                    assert self.check(topo, relays, center, r)
                    assert i not in topo.scan(surfaces, center, r)  # through the surfaces' cell index
                    assert i not in half_circle_scan(topo.xy, surfaces, center, dest, r)  # the array path
        ids = range(topos[0].first_ris_id, len(topos[0].xy))
        assert topos[0]._tables[ids, r] is topos[1]._tables[ids, r]  # one index for the run's surfaces

    def test_rows_on_the_perpendicular_scan_alike_alone_and_in_the_table(self):
        # half of each table planted on the perpendicular through the centre of a slanted axis: a
        # planted row's two projection terms cancel to within rounding, so the rounding signs it, and
        # it must sign it alike whatever other rows the scan holds and in either path; the other half
        # spread over a 160 m square keeps the table sparse enough for a cell index
        rng = np.random.default_rng(2701)
        signs = {True: 0, False: 0}
        for _ in range(300):
            center = tuple(rng.uniform(100.0, 300.0, size=2).tolist())
            target = tuple(rng.uniform(0.0, 400.0, size=2).tolist())
            ax, ay = target[0] - center[0], target[1] - center[1]
            s = rng.uniform(-50.0, 50.0, size=32) / math.hypot(ax, ay)
            planted = np.column_stack([center[0] - s * ay, center[1] + s * ax])
            xy = np.vstack([rng.uniform(np.subtract(center, 80.0), np.add(center, 80.0), size=(32, 2)), planted])
            topo = Topology(center, target, xy, [], 400.0)
            ids = range(FIRST_IU_ID, topo.first_ris_id)
            assert self.check(topo, ids, center, R)
            found = set(half_circle_scan(topo.xy, ids, center, target, R))
            for i in range(FIRST_IU_ID + 32, topo.first_ris_id):
                alone = half_circle_scan(topo.xy, range(i, i + 1), center, target, R) == [i]
                assert alone == (i in found), i
                signs[alone] += 1
        # the rounding put thousands of planted rows on either side
        assert min(signs.values()) > 1000, signs

    def test_a_dense_table_gets_no_index(self):
        cfg = SimConfig(coverage_m=90.0, iu_count=900, source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        topo = generate_topology(cfg, np.random.default_rng(3))
        relays, surfaces = range(DEST_ID, topo.first_ris_id), range(topo.first_ris_id, len(topo.xy))
        rng = np.random.default_rng(4)
        for center in map(tuple, rng.uniform(0.0, 400.0, size=(20, 2)).tolist()):
            assert not self.check(topo, relays, center, 90.0)
            assert self.check(topo, surfaces, center, 90.0)
        assert isinstance(topo._tables[relays, 90.0], ScanColumns)
        # 901 rows over 400 m x 400 m: 18 a cell on average at r = 60 m (7 x 7 cells), 4.6 at r = 30 m (14 x 14)
        rows, dest = topo.xy[relays.start:relays.stop], point(topo, DEST_ID)
        assert cell_index(rows, relays.start, 60.0, dest) is None
        assert isinstance(cell_index(rows, relays.start, 30.0, dest), CellIndex)
        # a sparse range whose cells outnumber its rows more than fourfold gets none either
        assert cell_index(np.array([(1.0, 1.0), (399.0, 399.0)]), FIRST_IU_ID, 5.0, dest) is None

    def test_rows_crowded_in_a_corner_get_no_index(self):
        # 900 IUs in the 100 m corner of a 400 m arena average 56 a cell of side 30 m (4 x 4 cells round
        # them), though spread over the arena they would average 5: their own rows decide, not the arena
        rng = np.random.default_rng(3301)
        topo = Topology((10.0, 10.0), (380.0, 250.0), rng.uniform(0.0, 100.0, size=(900, 2)), [], 400.0)
        ius, dest = range(FIRST_IU_ID, topo.first_ris_id), point(topo, DEST_ID)
        for center in [(10.0, 10.0)] + list(map(tuple, rng.uniform(0.0, 130.0, size=(20, 2)).tolist())):
            assert topo.scan(ius, center, 30.0) == tuple(half_circle_scan_v3(topo.xy, ius, center, dest, 30.0))
        assert isinstance(topo._tables[ius, 30.0], ScanColumns)

    def test_ties_on_np_hypot_go_by_id(self):
        # both IUs are exactly 40 m from D by np.hypot, so the scan lists them by id; by math.dist, or
        # the square root of dx^2 + dy^2, the second is 1 ulp nearer
        tied, nearer = (360.12893312130933, 203.20905374759846), (360.4868987313775, 193.77787591448208)
        dest = (400.0, 200.0)
        assert [math.dist(p, dest) for p in (tied, nearer)] == [40.0, math.nextafter(40.0, 0.0)]
        assert math.sqrt((nearer[0] - 400.0) ** 2 + (nearer[1] - 200.0) ** 2) < 40.0
        topo = make_topo([tied, nearer], src=(330.0, 200.0), dst=dest)
        assert self.check(topo, range(FIRST_IU_ID, topo.first_ris_id), (330.0, 200.0), R)
        assert topo.scan(range(FIRST_IU_ID, topo.first_ris_id), (330.0, 200.0), R) == (2, 3)

    def test_an_index_serves_only_its_radius_and_target(self):
        topo = make_topo([(30.0, 10.0), (50.0, 20.0)])
        ids = range(FIRST_IU_ID, topo.first_ris_id)
        index = cell_index(topo.xy[ids.start:ids.stop], ids.start, R, point(topo, DEST_ID))
        assert isinstance(index, CellIndex)
        assert half_circle_scan(topo.xy, ids, (0.0, 0.0), point(topo, DEST_ID), R, index) == [3, 2]
        for r, target in ((R / 2, point(topo, DEST_ID)), (R, (400.0, 10.0))):
            with pytest.raises(ValueError, match="another radius or target"):
                half_circle_scan(topo.xy, ids, (0.0, 0.0), target, r, index)


def steps(v, k):
    """``v`` and the k floats on either side of it."""
    out, lo, hi = [v], v, v
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def at_hypot(origin, angle, distance):
    """Points near ``origin`` + ``distance`` along ``angle`` whose ``np.hypot`` distance from ``origin``
    is exactly ``distance``, found among the floats within 6 ulps of that point in each coordinate."""
    x, y = origin[0] + distance * math.cos(angle), origin[1] + distance * math.sin(angle)
    grid = np.array([(u, v) for u in steps(x, 6) for v in steps(y, 6)])
    return grid[np.hypot(grid[:, 0] - origin[0], grid[:, 1] - origin[1]) == distance]


class TestArrayPath:
    """``Topology.scan`` of a table with no cell index, and the moving table's array scan, against the v3
    oracle on 900-row tables at r = 90 m, with rows planted where squared distances mislead: at an
    ``np.hypot`` distance of exactly r from the centre or 1 ulp either side, and at one ``np.hypot``
    distance from the destination but distinct squared distances, each tie's ids ordered against its
    squares."""

    def test_planted_rows_against_v3(self):
        rng = np.random.default_rng(3201)
        r, r2 = 90.0, 8100.0
        misjudged = misordered = 0
        for trial in range(30):
            center = tuple(rng.uniform(120.0, 280.0, size=2).tolist())
            dest = tuple(rng.uniform(0.0, 400.0, size=2).tolist())
            if math.dist(center, dest) < 150.0:
                continue
            facing = math.atan2(dest[1] - center[1], dest[0] - center[0])
            ring = []  # at np.hypot distance r, or 1 ulp either side, all forward
            for distance in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)):
                for angle in facing + rng.uniform(-1.4, 1.4, size=8):
                    ring += at_hypot(center, angle, distance)[:2].tolist()
            ties = []  # groups at one np.hypot distance from the destination, squares decreasing by id
            back = math.atan2(center[1] - dest[1], center[0] - dest[0])
            for remaining in math.dist(center, dest) - rng.uniform(5.0, 60.0, size=4):
                group = [p for angle in back + rng.uniform(-0.15, 0.15, size=6)
                         for p in at_hypot(dest, angle, remaining).tolist()]
                group.sort(key=lambda p: -((p[0] - dest[0]) ** 2 + (p[1] - dest[1]) ** 2))
                ties += group
            planted = ring + ties
            xy = rng.uniform(0.0, 400.0, size=(900, 2))
            where = np.sort(rng.choice(900, size=len(planted), replace=False))
            xy[where] = planted
            topo = Topology(center, dest, xy, [], 400.0)
            relays = range(DEST_ID, topo.first_ris_id)
            centers = [center] + list(map(tuple, rng.uniform(0.0, 400.0, size=(5, 2)).tolist()))
            for c in centers:
                if c == dest:
                    continue
                want = half_circle_scan_v3(topo.xy, relays, c, dest, r)
                assert topo.scan(relays, c, r) == tuple(want), trial
                moving = topo.xy.copy()  # a mobile route's table: no memo, no index
                assert half_circle_scan(moving, relays, c, dest, r) == want, trial
            assert isinstance(topo._tables[relays, r], ScanColumns)
            # the planted rows do mislead a squared-distance rule without the band, and a sort on squares
            rel = np.array(ring) - np.array(center)
            misjudged += int(np.sum((rel[:, 0] ** 2 + rel[:, 1] ** 2 <= r2) != (np.hypot(rel[:, 0], rel[:, 1]) <= r)))
            found = list(topo.scan(relays, center, r))
            hit = topo.xy[found] - np.array(dest)
            squares = (hit[:, 0] ** 2 + hit[:, 1] ** 2).tolist()
            misordered += int(np.sum(np.diff(squares) < 0.0))
        assert misjudged > 20 and misordered > 50, (misjudged, misordered)



class TestScanColumns:
    """A static range without a cell index keeps its scan columns from its first scan on, and the array
    path through them gives the raw rows' scan, id for id; a moving table's scans never read them."""

    @staticmethod
    def check(topo, ids, centers, r):
        """Scan ``ids`` of ``topo`` from every one of ``centers`` through its columns and on the raw rows;
        both must agree with ``Topology.scan``. Returns the scans."""
        dest = point(topo, DEST_ID)
        scans = []
        for center in centers:
            if center == dest:
                continue
            raw = half_circle_scan(topo.xy, ids, center, dest, r)
            assert topo.scan(ids, center, r) == tuple(raw), center
            columns = topo._tables[ids, r]
            assert isinstance(columns, ScanColumns)
            assert half_circle_scan(topo.xy, ids, center, dest, r, columns) == raw, center
            scans.append(raw)
        return scans

    def test_dense_ius_with_planted_rows(self):
        # U1 and U2 sit 90 m from the first centre by np.hypot, one exactly and one 1 ulp beyond, so
        # both fall in the NEAR band, where np.hypot decides; U3 and U4 sit at one np.hypot distance from
        # D, within 90 m of the second centre, with distinct squared distances, the larger first
        cfg = SimConfig(coverage_m=90.0, iu_count=900, source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        rng = np.random.default_rng(4201)
        iu_xy = generate_topology(cfg, rng).iu_xy.copy()
        dest, r, near, far = (380.0, 200.0), 90.0, (150.0, 180.0), (300.0, 230.0)
        iu_xy[0] = at_hypot(near, 0.3, r)[0]
        iu_xy[1] = at_hypot(near, -0.2, math.nextafter(r, math.inf))[0]
        tied = [p for angle in math.pi + rng.uniform(-0.15, 0.15, size=6) for p in at_hypot(dest, angle, 50.0).tolist()]
        squares = sorted({(p[0] - dest[0]) ** 2 + (p[1] - dest[1]) ** 2: p for p in tied}.items(), reverse=True)
        assert len(squares) >= 2
        iu_xy[2], iu_xy[3] = squares[0][1], squares[-1][1]
        topo = Topology((20.0, 200.0), dest, iu_xy, [], 400.0)
        relays = range(DEST_ID, topo.first_ris_id)
        for row in (2, 3):
            rel = topo.xy[row] - np.array(near)
            assert abs(rel @ rel - r * r) < r * r * 1e-12  # in the NEAR band
        centers = [near, far] + list(map(tuple, rng.uniform(0.0, 400.0, size=(1000, 2)).tolist()))
        scans = self.check(topo, relays, centers, r)
        assert 2 in scans[0] and 3 not in scans[0]
        assert scans[1].index(5) == scans[1].index(4) + 1  # tied on np.hypot: by id, against their squares
        assert sum(map(len, scans)) > 50_000

    def test_a_10_m_surface_grid_at_45_m(self):
        # 1600 surfaces: no cell index at r = 45 m; D lies on the axis the grid mirrors about, so
        # surfaces tie in pairs on np.hypot remaining distance; half the centres are surfaces
        cfg = SimConfig(coverage_m=45.0, iu_count=100, ris_spacing_m=10.0, source_xy=(20.0, 195.0),
                        dest_xy=(380.0, 195.0))
        topo = generate_topology(cfg, np.random.default_rng(4202))
        surfaces = range(topo.first_ris_id, len(topo.xy))
        assert len(surfaces) == 1600
        rng = np.random.default_rng(4203)
        centers = [point(topo, i) for i in rng.choice(surfaces, size=500, replace=False)]
        centers += list(map(tuple, rng.uniform(0.0, 400.0, size=(500, 2)).tolist()))
        scans = self.check(topo, surfaces, centers, 45.0)
        remaining = [np.hypot(*(topo.xy[found] - point(topo, DEST_ID)).T) for found in scans]
        assert sum(len(np.unique(d)) < len(d) for d in remaining) > 500  # scans holding ties

    def test_a_moving_table_never_reads_the_columns(self, monkeypatch):
        cfg = SimConfig(coverage_m=90.0, iu_count=900, source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        read = {"columns": 0, "moving": 0}
        real = topology.half_circle_scan
        for seed in range(4):
            topo = generate_topology(cfg, np.random.default_rng((4204, seed)))
            walk = MobilityField(topo.iu_xy, cfg.arena_m, 20.0, np.random.default_rng((4205, seed)))
            router = Router(topo, _profiles_for(cfg), cfg, np.random.default_rng((4206, seed)), mobility=walk)

            def scan(xy, ids, center, target, r, table=None):
                if isinstance(table, ScanColumns):
                    assert xy is topo.xy
                    read["columns"] += 1
                if xy is router.xy:
                    assert table is None
                    read["moving"] += 1
                return real(xy, ids, center, target, r, table)

            monkeypatch.setattr(topology, "half_circle_scan", scan)
            router.run()
            monkeypatch.undo()
            columns = topo._tables[topo.relay_ids, cfg.coverage_m]
            assert np.array_equal(np.column_stack([columns.x, columns.y]), topo.xy[topo.relay_ids.start:topo.relay_ids.stop])
        assert read["columns"] >= 4 and read["moving"] >= 4, read


class TestScanTables:
    """Each scanned (id range, r) of a topology has one scan table, its cell index or its scan columns,
    and the topologies of one grid point share their surfaces' table."""

    @staticmethod
    def grid_point(cfg):
        """Two topologies of the grid point of ``cfg``, each with its surfaces scanned from the source."""
        topos = [generate_topology(cfg, np.random.default_rng((4301, seed))) for seed in range(2)]
        for topo in topos:
            topo.scan(range(topo.first_ris_id, len(topo.xy)), point(topo, SOURCE_ID), cfg.coverage_m)
        return topos, range(topos[0].first_ris_id, len(topos[0].xy))

    def test_a_10_m_surface_grid_shares_read_only_columns(self):
        cfg = SimConfig(coverage_m=45.0, iu_count=100, ris_spacing_m=10.0, source_xy=(20.0, 195.0),
                        dest_xy=(380.0, 195.0))
        (first, second), surfaces = self.grid_point(cfg)
        columns = first._tables[surfaces, 45.0]
        assert isinstance(columns, ScanColumns) and second._tables[surfaces, 45.0] is columns
        for column in columns[1:]:
            assert len(column) == 1600
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0

    def test_the_default_grid_shares_its_cell_index(self):
        cfg = SimConfig(coverage_m=60.0, iu_count=100, source_xy=(20.0, 180.0), dest_xy=(380.0, 180.0))
        (first, second), surfaces = self.grid_point(cfg)
        index = first._tables[surfaces, 60.0]
        assert isinstance(index, CellIndex) and second._tables[surfaces, 60.0] is index

    @pytest.mark.parametrize("iu_count", [100, 900])
    def test_one_table_per_scanned_range_and_radius(self, iu_count):
        # routes at 90 m under every policy, then scans at 30 m: the IU range takes a cell index at
        # 100 IUs and at 30 m, and scan columns at 900 IUs and 90 m
        cfg = SimConfig(coverage_m=90.0, iu_count=iu_count, source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        topo = generate_topology(cfg, np.random.default_rng(4302))
        for k, policy in enumerate(BASELINE_POLICIES.values()):
            Router(topo, _profiles_for(cfg), cfg, np.random.default_rng((4303, k)), policy).run()
        tables = dict(topo._tables)
        relays = range(DEST_ID, topo.first_ris_id)
        for center in map(tuple, np.random.default_rng(4304).uniform(0.0, 400.0, size=(20, 2)).tolist()):
            topo.scan(relays, center, 30.0)
            topo.scan(range(topo.first_ris_id, len(topo.xy)), center, 30.0)
        assert {(ids, r) for ids, _, r in topo._scans} == set(topo._tables)
        assert all(topo._tables[key] is table for key, table in tables.items())  # built once each
        kinds = {key: type(table) for key, table in topo._tables.items()}
        assert set(kinds.values()) <= {CellIndex, ScanColumns}
        assert kinds[relays, 90.0] is (CellIndex if iu_count == 100 else ScanColumns)
        assert kinds[relays, 30.0] is CellIndex and len(kinds) == 4


class TestHopArithmetic:
    @pytest.mark.parametrize("l,r,expected", [(400, 60, 7), (60, 60, 1), (61, 60, 2), (360, 60, 6)])
    def test_min_hops(self, l, r, expected):
        assert min_hops(l, r) == expected

    def test_min_hops_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            min_hops(0, 60)
        with pytest.raises(ValueError):
            min_hops(100, -1)

    def test_min_hops_ceiling_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            l = float(rng.uniform(1, 1000))
            r = float(rng.uniform(1, 200))
            k = min_hops(l, r)
            assert k * r >= l
            assert (k - 1) * r < l

    @pytest.mark.parametrize("dist,r,expected", [(120, 60, 2), (59, 60, 0), (125, 60, 2)])
    def test_hops_consumed(self, dist, r, expected):
        assert hops_consumed((0, 0), (dist, 0), r) == expected

    def test_hops_consumed_bounded_by_min_hops_on_segment(self):
        rng = np.random.default_rng(11)
        s, d = (0.0, 0.0), (373.0, 0.0)
        r = 60.0
        psi = min_hops(math.dist(s, d), r)
        for _ in range(100):
            x = float(rng.uniform(0, 373))
            assert hops_consumed(s, (x, 0.0), r) <= psi


class TestTopologyConstruction:
    def test_exactly_one_source_and_dest(self):
        # ids 0 and 1 are S and D; every other id is an IU or a RIS, in that order; an id is its row
        topo = make_topo([(30.0, 10.0), (60.0, 10.0)], ris=[(15.0, 15.0)])
        assert topo.xy.tolist() == [[0.0, 0.0], [400.0, 0.0], [30.0, 10.0], [60.0, 10.0], [15.0, 15.0]]
        assert topo.first_ris_id == 4 and topo.iu_xy.tolist() == [[30.0, 10.0], [60.0, 10.0]]
        assert [topo.label(i) for i in range(5)] == ["S", "D", "U1", "U2", "R1"]
        for bad in (-1, 5):
            with pytest.raises(ValueError):
                topo.label(bad)
        with pytest.raises(ValueError):
            topo.xy[2] = (0.0, 0.0)  # the table is read-only

    def test_positions_inside_arena_enforced(self):
        with pytest.raises(ValueError, match="node 1 "):
            make_topo([], dst=(500.0, 0.0))
        with pytest.raises(ValueError, match="node 3 "):
            make_topo([(30.0, 10.0), (30.0, -1.0)])

    def test_a_nan_row_and_a_last_row_outside_are_named(self):
        # a NaN compares false against both bounds, so it lies outside; so does a row past the last
        # one checked first, and only the first row outside is named
        with pytest.raises(ValueError, match=r"node 2 at \(nan, 10.0\) lies outside"):
            make_topo([(math.nan, 10.0), (30.0, 10.0)])
        with pytest.raises(ValueError, match=r"node 3 at \(30.0, nan\) lies outside"):
            make_topo([(30.0, 10.0), (30.0, math.nan)], ris=[(15.0, -1.0)])
        with pytest.raises(ValueError, match=r"node 4 at \(15.0, 400.5\) lies outside"):
            make_topo([(30.0, 10.0)], ris=[(15.0, 15.0), (15.0, 400.5)])
        edges = make_topo([(0.0, 400.0), (-0.0, 0.0)], ris=[(400.0, 400.0)])  # the edges are inside
        assert edges.first_ris_id == 4

    def test_grid_spacing_and_bounds(self):
        pts = ris_grid_positions(400.0, 30.0)
        assert pts.shape == (169, 2)  # 13 x 13
        assert ((pts >= 0) & (pts <= 400)).all()
        xs = sorted(set(pts[:, 0]))
        assert xs[0] == 15.0 and math.isclose(xs[1] - xs[0], 30.0)
        assert np.array_equal(pts[:13, 1], np.full(13, 15.0))  # row by row

    def test_generate_topology_counts_and_determinism(self):
        cfg = SimConfig(iu_count=50, source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        rng1 = np.random.default_rng(np.random.SeedSequence([9, 0]))
        rng2 = np.random.default_rng(np.random.SeedSequence([9, 0]))
        t1 = generate_topology(cfg, rng1)
        t2 = generate_topology(cfg, rng2)
        assert (point(t1, SOURCE_ID), point(t1, DEST_ID)) == ((20, 200), (380, 200))
        assert t1.iu_xy.shape == (50, 2)
        assert np.array_equal(t1.xy[t1.first_ris_id:], ris_grid_positions(400.0, cfg.ris_spacing))
        assert np.array_equal(t1.iu_xy, t2.iu_xy)

    def test_a_half_disc_without_iu_or_surface_ends_the_route(self):
        # a 4r grid (surfaces at 60, 180, 300 m) leaves no surface within r = 30 m of S: a route whose
        # first half-disc holds no IU either has nowhere to go
        cfg = SimConfig(iu_count=50, coverage_m=30.0, ris_spacing_m=120.0,
                        source_xy=(20.0, 200.0), dest_xy=(380.0, 200.0))
        empty = 0
        for seed in range(6):
            ledger = run_one_route(cfg, Replication(cfg, np.random.default_rng(seed)))
            topo, origin = ledger.topo, point(ledger.topo, SOURCE_ID)
            assert topo.scan(range(topo.first_ris_id, len(topo.xy)), origin, cfg.coverage_m) == ()
            if topo.scan(range(FIRST_IU_ID, topo.first_ris_id), origin, cfg.coverage_m) == ():
                empty += 1
                assert ledger.failure_reason is FailureReason.NO_IU_NO_RIS and ledger.hops == []
        assert empty >= 3


class TestScenarioIsArrays:
    @staticmethod
    def kept_blocks(m):
        """Interpreter memory blocks still held by one scenario set-up with ``m`` IUs."""
        cfg = SimConfig(iu_count=m, coverage_m=10.0)  # 20x20 reflectors
        rng = np.random.default_rng(1)

        def setup():
            field = TrafficField(_profiles_for(cfg), rng)
            return generate_topology(cfg, rng), field

        setup()  # first-call caches
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            kept = setup()  # noqa: F841 -- held while counting
            return sys.getallocatedblocks() - before
        finally:
            gc.enable()

    def test_setup_allocates_no_per_node_objects(self):
        # a Python object per IU or per reflector would hold thousands of blocks more
        assert abs(self.kept_blocks(2000) - self.kept_blocks(10)) < 50
