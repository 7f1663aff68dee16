"""Mobility manager: advances models on a tick and serves spatial queries.

The manager owns the global ``node id -> position`` view assembled from
one or more mobility models (e.g. stationary sinks + zone-mobile sensors)
and maintains a uniform-grid spatial index with cell size equal to the
communication range, so :meth:`neighbors_of` only scans the 3 x 3 cell
neighborhood.  It implements the medium's
:class:`~repro.radio.medium.NeighborProvider` interface.

Four mechanisms keep 10k-node runs routine:

* **batched gather** — per-model position blocks are copied into the
  global array with one fancy-indexed assignment instead of a per-node
  Python loop, and static models (stationary sinks) are gathered once;
* **incremental re-binning** — cell keys for all nodes come from one
  vectorized ``floor``; only the nodes whose key actually changed are
  moved between cells;
* **per-tick neighbor memoization** — :meth:`neighbors_of` /
  :meth:`neighbor_set` answers are cached until the next :meth:`step`,
  so the medium's per-frame scans stop re-deriving the same contact
  set;
* **one pair query per tick** — :meth:`pairs_in_range` returns every
  in-range pair from one numpy pass over the same grid cells, for
  callers (the contact tracer) that want the whole contact set rather
  than one node's neighbors.

All of it is provably order-preserving: neighbor lists keep the
historical 3 x 3 cell-scan order (cells in ``(cx-1..cx+1, cy-1..cy+1)``
order, ascending node id within a cell), which the seeded byte-identical
guarantee rests on (LPL wake events are scheduled in that order).  The
pair query reports a pair exactly when it is in :meth:`neighbors_of`.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.des.scheduler import EventScheduler
from repro.mobility.base import Area, MobilityModel


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
        #: Row index -> node id (inverse of ``_index_of``) as plain ints.
        self._ids_of_row: List[int] = list(self.node_ids)

        # Per-model row indices into ``positions`` (one gather per model
        # instead of one per node); static models are gathered once here.
        self._model_rows: List[np.ndarray] = [
            np.array([self._index_of[nid] for nid in model.node_ids],
                     dtype=np.intp)
            for model in self.models
        ]

        #: Grid cell -> row indices of its occupants, ascending (row
        #: order equals node-id order, preserving the historical
        #: neighbor iteration order).
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        #: Vectorized cell key of every row (kept across ticks so the
        #: incremental update only touches rows whose key changed).
        self._cell_keys = np.zeros((n, 2), dtype=np.int64)
        #: Python column mirrors of ``_cell_keys``: the scan path reads
        #: single keys, where list access beats numpy scalar extraction
        #: by an order of magnitude.  Flat lists of ints, unlike one
        #: ``[x, y]`` list per row, allocate no GC-tracked containers.
        self._kx: List[int] = [0] * n
        self._ky: List[int] = [0] * n
        #: Lazily refreshed position columns for the same reasons; None
        #: marks them stale (rebuilt on the first scan after a step).
        self._xs: Optional[List[float]] = None
        self._ys: List[float] = []
        self._range_sq = comm_range * comm_range
        self._inv_range = 1.0 / comm_range
        self._nbr_lists: Dict[int, List[int]] = {}
        self._nbr_sets: Dict[int, FrozenSet[int]] = {}
        self._started = False
        self._gather(initial=True)
        self._rebuild_index()

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
        """Advance all models by ``dt`` and refresh the spatial index."""
        for model in self.models:
            model.step(dt)
        self._gather()
        self._xs = None
        self._update_index()
        if self._nbr_lists:
            self._nbr_lists = {}
            self._nbr_sets = {}

    def _gather(self, initial: bool = False) -> None:
        for model, rows in zip(self.models, self._model_rows):
            if model.is_static and not initial:
                continue
            self.positions[rows] = model.positions

    def _compute_cell_keys(self) -> np.ndarray:
        """Vectorized grid key of every row.

        ``floor``, not a trunc-toward-zero cast: truncation would merge
        the [-r, 0) and [0, r) bins into one double-width cell on each
        axis, breaking the uniform-grid contract (every cell spans
        exactly comm_range) and quadrupling the 3x3-scan work around
        the origin for models that place nodes on both sides of it.
        """
        return np.floor(self.positions * self._inv_range).astype(np.int64)

    def _rebuild_index(self) -> None:
        """Bin every node from scratch (the initial build)."""
        keys = self._compute_cell_keys()
        self._cell_keys = keys
        self._kx = keys[:, 0].tolist()
        self._ky = keys[:, 1].tolist()
        cells = self._cells
        for row, key in enumerate(zip(self._kx, self._ky)):
            bucket = cells.get(key)
            if bucket is None:
                cells[key] = [row]
            else:
                bucket.append(row)

    def _update_index(self) -> None:
        """Move only the rows whose grid cell changed since last tick."""
        keys = self._compute_cell_keys()
        old = self._cell_keys
        changed = np.nonzero((keys[:, 0] != old[:, 0])
                             | (keys[:, 1] != old[:, 1]))[0]
        self._cell_keys = keys
        if not changed.size:
            return
        # Bulk-convert only the changed rows; the key mirrors are patched
        # in place (unchanged rows already carry the right values).
        moved = keys[changed]
        kx, ky = self._kx, self._ky
        cells = self._cells
        for row, nx, ny in zip(changed.tolist(), moved[:, 0].tolist(),
                               moved[:, 1].tolist()):
            old_key = (kx[row], ky[row])
            bucket = cells[old_key]
            if len(bucket) == 1:
                del cells[old_key]
            else:
                bucket.remove(row)
            new_key = (nx, ny)
            new_bucket = cells.get(new_key)
            if new_bucket is None:
                cells[new_key] = [row]
            else:
                insort(new_bucket, row)
            kx[row] = nx
            ky[row] = ny

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
        i = self._index_of[node_id]
        xs, ys = self._xs, self._ys
        if xs is None:
            xs = self.positions[:, 0].tolist()
            ys = self.positions[:, 1].tolist()
            self._xs, self._ys = xs, ys
        x, y = xs[i], ys[i]
        cx, cy = self._kx[i], self._ky[i]
        cells = self._cells
        ids = self._ids_of_row
        range_sq = self._range_sq
        result: List[int] = []
        append = result.append
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                bucket = cells.get((gx, gy))
                if bucket is None:
                    continue
                for row in bucket:
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
        n = len(self._ids_of_row)
        if n < 2:
            return np.zeros(0, dtype=np.int64)
        # One int id per cell, x-major: y is shifted into [1, width - 2],
        # so y - 1 and y + 1 stay inside the same column of ids.
        keys = self._cell_keys
        ky = keys[:, 1]
        y_min = int(ky.min())
        width = int(ky.max()) - y_min + 3
        cell = keys[:, 0] * width + (ky - (y_min - 1))
        order = np.argsort(cell, kind="stable")
        sorted_cell = cell[order]
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
