"""Unit tests for the other mobility models and the manager/spatial index."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import EventScheduler
from repro.mobility import (
    Area,
    MobilityManager,
    RandomWalkMobility,
    RandomWaypointMobility,
    StationaryMobility,
)


class TestStationary:
    def test_explicit_positions(self):
        area = Area(100, 100)
        m = StationaryMobility([1, 2], area, positions=[(10, 20), (30, 40)])
        assert m.position_of(1) == (10, 20)
        assert m.position_of(2) == (30, 40)
        m.step(5.0)
        assert m.position_of(1) == (10, 20)

    def test_random_placement_needs_rng(self):
        area = Area(100, 100)
        with pytest.raises(ValueError):
            StationaryMobility([1], area)
        m = StationaryMobility([1], area, rng=random.Random(1))
        x, y = m.position_of(1)
        assert area.contains(x, y)

    def test_position_outside_area_rejected(self):
        with pytest.raises(ValueError):
            StationaryMobility([1], Area(10, 10), positions=[(50, 5)])

    def test_mismatched_positions_rejected(self):
        with pytest.raises(ValueError):
            StationaryMobility([1, 2], Area(10, 10), positions=[(1, 1)])


class TestRandomWalk:
    def test_stays_in_area(self):
        m = RandomWalkMobility(list(range(20)), Area(50, 50),
                               random.Random(2))
        for _ in range(500):
            m.step(1.0)
        assert np.all(m.positions >= 0.0)
        assert np.all(m.positions <= 50.0)

    def test_nodes_actually_move(self):
        m = RandomWalkMobility(list(range(10)), Area(100, 100),
                               random.Random(3), speed_min=1.0)
        before = m.positions.copy()
        for _ in range(10):
            m.step(1.0)
        moved = np.linalg.norm(m.positions - before, axis=1)
        assert np.all(moved > 0.0)


class TestRandomWaypoint:
    def test_requires_positive_min_speed(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility([1], Area(10, 10), random.Random(1),
                                   speed_min=0.0)

    def test_stays_in_area_and_moves(self):
        m = RandomWaypointMobility(list(range(10)), Area(60, 60),
                                   random.Random(4), pause_max=2.0)
        total = np.zeros(10)
        for _ in range(300):
            before = m.positions.copy()
            m.step(1.0)
            total += np.linalg.norm(m.positions - before, axis=1)
        assert np.all(m.positions >= 0.0)
        assert np.all(m.positions <= 60.0)
        assert np.all(total > 0.0)

    def test_step_displacement_bounded(self):
        m = RandomWaypointMobility(list(range(10)), Area(60, 60),
                                   random.Random(5), speed_max=3.0)
        before = m.positions.copy()
        m.step(1.0)
        assert np.all(np.linalg.norm(m.positions - before, axis=1)
                      <= 3.0 + 1e-9)


class TestManager:
    def _manager(self, positions, comm_range=10.0):
        area = Area(100, 100)
        sched = EventScheduler()
        model = StationaryMobility(list(range(len(positions))), area,
                                   positions=positions)
        return MobilityManager(sched, area, [model],
                               comm_range=comm_range), sched

    def test_in_range_uses_euclidean_distance(self):
        mgr, _ = self._manager([(0, 0), (6, 8), (20, 20)])
        assert mgr.in_range(0, 1)       # distance exactly 10
        assert not mgr.in_range(0, 2)

    def test_neighbors_of_matches_brute_force(self):
        rng = random.Random(6)
        positions = [(rng.uniform(0, 100), rng.uniform(0, 100))
                     for _ in range(60)]
        mgr, _ = self._manager(positions, comm_range=15.0)
        for i in range(60):
            expected = {
                j for j in range(60) if j != i
                and math.dist(positions[i], positions[j]) <= 15.0
            }
            assert set(mgr.neighbors_of(i)) == expected

    def test_duplicate_ids_across_models_rejected(self):
        area = Area(100, 100)
        sched = EventScheduler()
        a = StationaryMobility([0], area, positions=[(1, 1)])
        b = StationaryMobility([0], area, positions=[(2, 2)])
        with pytest.raises(ValueError):
            MobilityManager(sched, area, [a, b])

    def test_tick_advances_models(self):
        area = Area(100, 100)
        sched = EventScheduler()
        model = RandomWalkMobility([0, 1], area, random.Random(7),
                                   speed_min=1.0)
        mgr = MobilityManager(sched, area, [model], tick_s=1.0)
        before = mgr.positions.copy()
        mgr.start()
        sched.run_until(10.0)
        assert not np.allclose(before, mgr.positions)

    def test_index_refreshed_after_movement(self):
        area = Area(100, 100)
        sched = EventScheduler()

        class Teleport(StationaryMobility):
            def step(self, dt):
                self.positions[0] = (99.0, 99.0)

        model = Teleport([0, 1], area, positions=[(0, 0), (1, 0)])
        mgr = MobilityManager(sched, area, [model], comm_range=5.0)
        assert mgr.in_range(0, 1)
        mgr.step(1.0)
        assert not mgr.in_range(0, 1)
        assert list(mgr.neighbors_of(1)) == []

    def test_start_is_idempotent(self):
        mgr, sched = self._manager([(0, 0), (1, 1)])
        mgr.start()
        mgr.start()
        sched.run_until(3.5)
        # One tick chain only: events at t=1,2,3.
        assert sched.events_fired == 3


class _FixedPositions(StationaryMobility):
    """Stationary model whose positions bypass the area check.

    The spatial index must stay correct for any coordinates a model
    produces, including negative ones (e.g. an extension model centered
    on the origin), so these tests plant positions directly.
    """

    def __init__(self, node_ids, area, coords):
        super().__init__(node_ids, area,
                         positions=[(0.0, 0.0)] * len(node_ids))
        self.positions = np.array(coords, dtype=float)


def _grid_keys(mgr):
    """Each row's cell key as the manager's grid encodes it.

    A grid id is ``x * width + (y - y_min + 1)`` with the shifted y in
    ``[1, width - 2]``, so it decodes to ``[x, y - y_min]``.
    """
    grid = mgr._layout()
    return [[x, y - 1] for x, y in
            (divmod(cell, grid.width) for cell in grid.cell.tolist())]


def _from_lowest_row(keys):
    """``[x, y]`` keys as ``[x, y - min(y)]``, as :func:`_grid_keys` reads."""
    y_min = min((y for _, y in keys), default=0)
    return [[x, y - y_min] for x, y in keys]


class TestGridBinning:
    """Regression tests for the floor-based uniform-grid cell keys.

    ``int(x * inv)`` truncates toward zero, merging the ``[-r, 0)`` and
    ``[0, r)`` bins into one double-width cell per axis around the
    origin — breaking the uniform-grid contract (every cell spans
    exactly ``comm_range``) and quadrupling the 3x3-scan work there.
    ``math.floor`` keeps every cell exactly one range wide.
    """

    def _manager(self, coords, comm_range=10.0):
        area = Area(1000, 1000)
        sched = EventScheduler()
        model = _FixedPositions(list(range(len(coords))), area, coords)
        return MobilityManager(sched, area, [model], comm_range=comm_range)

    def test_negative_coordinates_bin_by_floor(self):
        # x = -5 with range 10 lies in cell -1 ([-10, 0)), not cell 0:
        # truncation would give int(-0.5) == 0 and fold both sides of
        # the origin into the same key.
        mgr = self._manager([(-5.0, -5.0), (5.0, 5.0)])
        assert _grid_keys(mgr) == _from_lowest_row([[-1, -1], [0, 0]])

    def test_each_cell_spans_exactly_one_range(self):
        # Nodes one range apart along an axis must land in consecutive
        # cells, including across the origin.
        xs = [-25.0, -15.0, -5.0, 5.0, 15.0]
        mgr = self._manager([(x, 0.0) for x in xs])
        assert _grid_keys(mgr) == [[k, 0] for k in (-3, -2, -1, 0, 1)]

    def test_neighbors_match_brute_force_across_origin(self):
        rng = random.Random(42)
        coords = [(rng.uniform(-30, 30), rng.uniform(-30, 30))
                  for _ in range(60)]
        mgr = self._manager(coords, comm_range=7.5)
        for nid in range(len(coords)):
            expected = sorted(
                other for other in range(len(coords))
                if other != nid
                and math.dist(coords[nid], coords[other]) <= 7.5)
            assert sorted(mgr.neighbors_of(nid)) == expected


class TestIncrementalIndexProperty:
    """After any sequence of steps, queried or not, the grid equals a
    from-scratch binning, and neighbor lists keep the documented scan
    order."""

    # Same ``x * (1 / r)`` as the kernel, so a coordinate on a cell
    # boundary bins identically on both sides of the comparison.
    @staticmethod
    def _key(x, y, comm_range):
        inv = 1.0 / comm_range
        return math.floor(x * inv), math.floor(y * inv)

    def _fresh_keys(self, positions, comm_range):
        return _from_lowest_row([list(self._key(x, y, comm_range))
                                 for x, y in positions.tolist()])

    def _brute_neighbors(self, mgr, nid, comm_range):
        # 3 x 3 cells in (gx, gy) order, ascending id within a cell.
        pos = mgr.positions.tolist()
        i = mgr._index_of[nid]
        x, y = pos[i]
        cx, cy = self._key(x, y, comm_range)
        out = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for row, (px, py) in enumerate(pos):
                    if row == i:
                        continue
                    if self._key(px, py, comm_range) != (gx, gy):
                        continue
                    dx, dy = px - x, py - y
                    if dx * dx + dy * dy <= comm_range * comm_range:
                        out.append(mgr.node_ids[row])
        return out

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_nodes=st.integers(2, 40),
           n_steps=st.integers(1, 15),
           comm_range=st.sampled_from([5.0, 10.0, 17.5]),
           speed_max=st.floats(0.0, 8.0),
           query_every=st.integers(1, 4),
           pairs_first=st.booleans())
    def test_incremental_index_matches_fresh_binning(
            self, seed, n_nodes, n_steps, comm_range, speed_max,
            query_every, pairs_first):
        # Steps between queries go unqueried, so a grid that is only
        # brought up to date on demand must still answer for the last
        # step; either query may be the first to build it.
        rng = random.Random(seed)
        area = Area(60, 60)
        sink = StationaryMobility([0], area, rng=rng)
        walkers = RandomWalkMobility(list(range(1, n_nodes)), area, rng,
                                     speed_min=0.0, speed_max=speed_max)
        mgr = MobilityManager(EventScheduler(), area, [sink, walkers],
                              comm_range=comm_range)
        for step in range(1, n_steps + 1):
            mgr.step(1.0)
            if step % query_every and step < n_steps:
                continue
            if pairs_first:
                pairs = self._decoded_pairs(mgr)
            for nid in mgr.node_ids:
                assert mgr.neighbors_of(nid) == self._brute_neighbors(
                    mgr, nid, comm_range)
            if not pairs_first:
                pairs = self._decoded_pairs(mgr)
            assert _grid_keys(mgr) == self._fresh_keys(mgr.positions,
                                                       comm_range)
            assert pairs == sorted(
                (a, b) for a in mgr.node_ids
                for b in mgr.neighbors_of(a) if b > a)

    @staticmethod
    def _decoded_pairs(mgr):
        n = len(mgr.node_ids)
        codes = mgr.pairs_in_range().tolist()
        assert codes == sorted(set(codes))
        return [(mgr.node_ids[c // n], mgr.node_ids[c % n]) for c in codes]

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_pairs_in_range_without_pairs(self, n_nodes):
        area = Area(60, 60)
        models = [StationaryMobility([0], area, positions=[(3.0, 4.0)])]
        mgr = MobilityManager(EventScheduler(), area, models[:n_nodes])
        for _ in range(3):
            assert mgr.pairs_in_range().size == 0
            assert len(_grid_keys(mgr)) == n_nodes
            if n_nodes:
                assert mgr.neighbors_of(0) == []
            else:
                with pytest.raises(KeyError):
                    mgr.neighbors_of(0)
            mgr.step(1.0)

    def test_pairs_in_range_across_origin(self):
        rng = random.Random(7)
        coords = [(rng.choice([-10.0, 0.0, 10.0, rng.uniform(-30, 30)]),
                   rng.choice([-20.0, 0.0, rng.uniform(-30, 30)]))
                  for _ in range(80)]
        area = Area(60, 60)
        model = _FixedPositions(list(range(0, 160, 2)), area, coords)
        mgr = MobilityManager(EventScheduler(), area, [model],
                              comm_range=10.0)
        assert self._decoded_pairs(mgr) == sorted(
            (a, b) for a in mgr.node_ids
            for b in mgr.neighbors_of(a) if b > a)

    def test_sparse_field_allocates_nothing_per_area(self):
        # Two nodes 1e7 m apart at range 10 span ~1e12 grid cells; the
        # grid must cost O(n), not O(area / range ** 2).
        area = Area(60, 60)
        model = _FixedPositions([0, 1], area, [(0.0, 0.0), (6e6, 8e6)])
        mgr = MobilityManager(EventScheduler(), area, [model],
                              comm_range=10.0)
        tracemalloc.start()
        try:
            for _ in range(2):
                assert mgr.neighbors_of(0) == []
                assert mgr.neighbors_of(1) == []
                assert mgr.pairs_in_range().size == 0
                mgr.step(1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
