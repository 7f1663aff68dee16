"""Mobility manager: advances models on a tick and serves spatial queries.

The manager owns the global ``node id -> position`` view assembled from
one or more mobility models (e.g. stationary sinks + zone-mobile sensors)
and answers spatial queries from a uniform grid with cell size equal to
the communication range, so :meth:`neighbors_of` only scans the 3 x 3
cell neighborhood.  It implements the medium's
:class:`~repro.radio.medium.NeighborProvider` interface.

Four mechanisms keep 10k-node runs routine:

* **batched gather** — per-model position blocks are copied into the
  global array with one fancy-indexed assignment instead of a per-node
  Python loop, and static models (stationary sinks) are gathered once;
* **lazy sorted-cell layout** — :meth:`step` only drops the grid; the
  first spatial query after it bins every node with one vectorized
  ``floor`` and one stable sort by cell id.  The first
  :meth:`neighbors_of` also finds each occupied cell's span of sorted
  rows and lists the rows in sorted order.  Ticks that ask nothing
  pay nothing, and the build costs O(n log n) time and O(n) memory
  whatever the area;
* **per-tick neighbor memoization** — :meth:`neighbors_of` /
  :meth:`neighbor_set` answers are cached until the next :meth:`step`,
  so the medium's per-frame scans stop re-deriving the same contact
  set;
* **one pair query per tick** — :meth:`pairs_in_range` returns every
  in-range pair from one numpy pass over the same sorted cells, for
  callers (the contact tracer) that want the whole contact set rather
  than one node's neighbors.

All of it is provably order-preserving: neighbor lists keep the
historical 3 x 3 cell-scan order (cells in ``(cx-1..cx+1, cy-1..cy+1)``
order, ascending node id within a cell), which the seeded byte-identical
guarantee rests on (LPL wake events are scheduled in that order).  Cell
ids are x-major, so the three cells ``(gx, cy-1..cy+1)`` of one grid
column have consecutive ids and their rows are one contiguous run of
the sorted layout, in ``gy`` order; the stable sort keeps rows (which
are in node-id order) ascending within a cell.  The pair query reports
a pair exactly when it is in :meth:`neighbors_of`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.des.scheduler import EventScheduler
from repro.mobility.base import Area, MobilityModel


class _SortedCells:
    """One tick's grid: every row stably sorted by its integer cell id.

    Cell ``(x, y)`` has id ``x * width + (y - y_min + 1)``: y is shifted
    into ``[1, width - 2]``, so ``y - 1`` and ``y + 1`` stay inside the
    same column of ids.
    """

    __slots__ = ("width", "cell", "order", "cells")

    def __init__(self, positions: np.ndarray, inv_range: float) -> None:
        # ``floor``, not a trunc-toward-zero cast: truncation would merge
        # the [-r, 0) and [0, r) bins into one double-width cell on each
        # axis, breaking the uniform-grid contract (every cell spans
        # exactly comm_range) and quadrupling the 3x3-scan work around
        # the origin for models that place nodes on both sides of it.
        keys = np.floor(positions * inv_range).astype(np.int64)
        n = len(keys)
        ky = keys[:, 1]
        y_min = int(np.minimum.reduce(ky)) if n else 0
        width = int(np.maximum.reduce(ky)) - y_min + 3 if n else 3
        self.width = width
        #: Row -> cell id; sorted slot -> row; sorted slot -> cell id.
        self.cell = keys[:, 0] * width + (ky - (y_min - 1))
        self.order = self.cell.argsort(kind="stable")
        self.cells = self.cell.take(self.order)


class _ScanLists:
    """The sorted layout as :meth:`MobilityManager.neighbors_of` reads it.

    Python lists, a dict and a memoryview, where single-element access
    beats numpy scalar extraction by an order of magnitude.  Built only
    on a tick that asks for neighbors (the pair query needs none of it),
    from whole-array numpy calls: no Python loop runs over the rows.
    """

    __slots__ = ("width", "cell_of_row", "run_of", "bounds", "rows", "xs",
                 "ys")

    def __init__(self, grid: _SortedCells, positions: np.ndarray) -> None:
        order, cells = grid.order, grid.cells
        n = len(order)
        # A slot starts a run of one cell when its id differs from the
        # previous slot's.
        head = np.empty(n, dtype=bool)
        head[:1] = True
        np.not_equal(cells[1:], cells[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        bounds: List[int] = starts.tolist()
        bounds.append(n)
        self.width = grid.width
        self.cell_of_row = memoryview(grid.cell)
        #: Occupied cell id -> its run number ``k``; run ``k`` holds the
        #: slots ``bounds[k - 1] .. bounds[k] - 1``.  Numbers start at 1,
        #: so lookups chain with ``or`` (a run 0 would read as missing).
        self.run_of: Dict[int, int] = dict(
            zip(cells.take(starts).tolist(), range(1, n + 1)))
        self.bounds = bounds
        #: Sorted slot -> row; row -> x and y.
        self.rows: List[int] = order.tolist()
        self.xs, self.ys = positions.T.tolist()


class MobilityManager:
    """Drives mobility models and indexes node positions."""

    def __init__(
        self,
        scheduler: EventScheduler,
        area: Area,
        models: Sequence[MobilityModel],
        comm_range: float = 10.0,
        tick_s: float = 1.0,
    ) -> None:
        if comm_range <= 0 or tick_s <= 0:
            raise ValueError("comm_range and tick_s must be positive")
        self._scheduler = scheduler
        self.area = area
        self.models = list(models)
        self.comm_range = comm_range
        self.tick_s = tick_s

        ids: List[int] = []
        for model in self.models:
            ids.extend(model.node_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("node ids overlap between mobility models")
        self.node_ids = sorted(ids)
        self._index_of: Dict[int, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        n = len(self.node_ids)
        self.positions = np.zeros((n, 2), dtype=float)

        # Per-model row indices into ``positions`` (one gather per model
        # instead of one per node); static models are gathered once here.
        self._model_rows: List[np.ndarray] = [
            np.array([self._index_of[nid] for nid in model.node_ids],
                     dtype=np.intp)
            for model in self.models
        ]

        #: The grid of the current positions, and its scan lists; None
        #: until a query after the last step needs them.
        self._grid: Optional[_SortedCells] = None
        self._lists: Optional[_ScanLists] = None
        self._range_sq = comm_range * comm_range
        self._inv_range = 1.0 / comm_range
        self._nbr_lists: Dict[int, List[int]] = {}
        self._nbr_sets: Dict[int, FrozenSet[int]] = {}
        self._started = False
        self._gather(initial=True)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic ticking on the scheduler (idempotent)."""
        if not self._started:
            self._started = True
            self._scheduler.schedule(self.tick_s, self._tick, priority=-10)

    def _tick(self) -> None:
        self.step(self.tick_s)
        self._scheduler.schedule(self.tick_s, self._tick, priority=-10)

    def step(self, dt: float) -> None:
        """Advance all models by ``dt``; the grid is rebuilt on demand."""
        for model in self.models:
            model.step(dt)
        self._gather()
        self._grid = self._lists = None
        if self._nbr_lists:
            self._nbr_lists = {}
            self._nbr_sets = {}

    def _gather(self, initial: bool = False) -> None:
        for model, rows in zip(self.models, self._model_rows):
            if model.is_static and not initial:
                continue
            self.positions[rows] = model.positions

    def _layout(self) -> _SortedCells:
        """The grid of the current positions, built once per step."""
        grid = self._grid
        if grid is None:
            grid = self._grid = _SortedCells(self.positions, self._inv_range)
        return grid

    def _scan_lists(self) -> _ScanLists:
        """The grid's scan lists, built once per step."""
        lists = self._lists
        if lists is None:
            lists = self._lists = _ScanLists(self._layout(), self.positions)
        return lists

    # ------------------------------------------------------------------
    # NeighborProvider interface
    # ------------------------------------------------------------------
    def position_of(self, node_id: int) -> Tuple[float, float]:
        """Current (x, y) of one node."""
        i = self._index_of[node_id]
        return float(self.positions[i, 0]), float(self.positions[i, 1])

    def in_range(self, a: int, b: int) -> bool:
        """Whether two nodes are within communication range."""
        return a == b or b in self.neighbor_set(a)

    def neighbors_of(self, node_id: int) -> List[int]:
        """Ids of all nodes within range (grid-indexed lookup).

        The returned list is memoized until the next mobility step —
        callers must treat it as read-only.  Order is the stable
        historical one: 3 x 3 cells scanned in ``(gx, gy)`` order,
        ascending node id within a cell.
        """
        cached = self._nbr_lists.get(node_id)
        if cached is not None:
            return cached
        result = self._scan_neighbors(node_id)
        self._nbr_lists[node_id] = result
        return result

    def neighbor_set(self, node_id: int) -> FrozenSet[int]:
        """The ids of :meth:`neighbors_of` as a set (for membership tests).

        The medium's carrier-sense and interference checks reduce to
        set intersections against this; like the list, it is memoized
        until the next mobility step.
        """
        cached = self._nbr_sets.get(node_id)
        if cached is not None:
            return cached
        result = frozenset(self.neighbors_of(node_id))
        self._nbr_sets[node_id] = result
        return result

    def _scan_neighbors(self, node_id: int) -> List[int]:
        lists = self._scan_lists()
        xs, ys, rows, bounds = lists.xs, lists.ys, lists.rows, lists.bounds
        run = lists.run_of.get
        width = lists.width
        ids = self.node_ids
        i = self._index_of[node_id]
        cell = lists.cell_of_row[i]
        x, y = xs[i], ys[i]
        range_sq = self._range_sq
        result: List[int] = []
        append = result.append
        # Cells (gx, cy - 1 .. cy + 1) are ids base - 1 .. base + 1: one
        # contiguous run of slots, from the first occupied cell's start
        # to the last one's end.
        for base in (cell - width, cell, cell + width):
            low, mid, high = run(base - 1), run(base), run(base + 1)
            first = low or mid or high
            if first is None:
                continue
            last = high or mid or first
            for row in rows[bounds[first - 1]:bounds[last]]:
                if row == i:
                    continue
                dx = xs[row] - x
                dy = ys[row] - y
                if dx * dx + dy * dy <= range_sq:
                    append(ids[row])
        return result

    def pairs_in_range(self) -> np.ndarray:
        """Every in-range pair, as sorted int64 codes ``row_a * n + row_b``.

        Rows are in node-id order, so ``a = node_ids[code // n]`` and
        ``b = node_ids[code % n]`` with ``a < b``, and the codes sort as
        the ``(a, b)`` pairs do.  A pair is reported exactly when ``b in
        neighbors_of(a)``: the query reads the same grid cells and
        evaluates the same ``dx * dx + dy * dy <= range ** 2`` (a
        negated difference squares to the same bits).  Each row meets
        the later rows of its own cell and every row of the four forward
        cells ``(x, y + 1)`` and ``(x + 1, y - 1 .. y + 1)``, so every
        candidate pair of the 3 x 3 neighborhood is tested once.
        """
        n = len(self.node_ids)
        if n < 2:
            return np.zeros(0, dtype=np.int64)
        grid = self._layout()
        order, sorted_cell, width = grid.order, grid.cells, grid.width
        offsets = np.array([0, 1, width - 1, width, width + 1])
        targets = (sorted_cell + offsets[:, None]).ravel()
        lo = np.searchsorted(sorted_cell, targets, "left")
        hi = np.searchsorted(sorted_cell, targets, "right")
        lo[:n] = np.arange(1, n + 1)  # own cell: only the later rows
        counts = hi - lo
        firsts = np.cumsum(counts) - counts
        a = np.repeat(np.tile(order, len(offsets)), counts)
        within = np.arange(int(counts.sum()))
        b = order[np.repeat(lo - firsts, counts) + within]
        pos = self.positions
        dx = pos[b, 0] - pos[a, 0]
        dy = pos[b, 1] - pos[a, 1]
        keep = dx * dx + dy * dy <= self._range_sq
        a, b = a[keep], b[keep]
        codes = np.minimum(a, b) * n + np.maximum(a, b)
        codes.sort()
        return codes
