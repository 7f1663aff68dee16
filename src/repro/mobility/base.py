"""Mobility model interface and the rectangular simulation area."""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Area:
    """Axis-aligned rectangular deployment area ``[0, width] x [0, height]``."""

    width: float = 150.0
    height: float = 150.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("area dimensions must be positive")

    def contains(self, x: float, y: float) -> bool:
        """Whether the point lies inside the area."""
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    def random_point(self, rng: random.Random) -> Tuple[float, float]:
        """A uniform random point inside the area."""
        return rng.uniform(0.0, self.width), rng.uniform(0.0, self.height)


class MobilityModel(abc.ABC):
    """A mobility model owns the positions of a set of node ids.

    Positions are stored as an ``(n, 2)`` float array aligned with
    :attr:`node_ids`.  The :class:`~repro.mobility.manager.MobilityManager`
    calls :meth:`step` once per tick.
    """

    #: Whether :meth:`step` can ever change :attr:`positions`.  Static
    #: models (sinks bolted to walls) let the manager skip gathering
    #: their nodes on every tick.
    is_static: bool = False

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that overrides step() without saying otherwise is
        # assumed to move: inheriting is_static=True from e.g.
        # StationaryMobility would silently freeze it in the manager's
        # spatial index.
        if "step" in cls.__dict__ and "is_static" not in cls.__dict__:
            cls.is_static = False

    def __init__(self, node_ids: Sequence[int], area: Area) -> None:
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("duplicate node ids in mobility model")
        self.node_ids: List[int] = list(node_ids)
        self.area = area
        self.positions = np.zeros((len(self.node_ids), 2), dtype=float)

    @abc.abstractmethod
    def step(self, dt: float) -> None:
        """Advance all nodes by ``dt`` seconds."""

    def position_of(self, node_id: int) -> Tuple[float, float]:
        """Position of one node (mostly for tests; hot paths use arrays)."""
        idx = self.node_ids.index(node_id)
        return float(self.positions[idx, 0]), float(self.positions[idx, 1])

    def _reflect_into_area(self, pos: np.ndarray, vel: np.ndarray) -> None:
        """Reflect positions (and velocities) at the outer area boundary.

        Operates in place on matching ``(n, 2)`` arrays.
        """
        for axis, limit in ((0, self.area.width), (1, self.area.height)):
            below = pos[:, axis] < 0.0
            above = pos[:, axis] > limit
            pos[below, axis] = -pos[below, axis]
            pos[above, axis] = 2.0 * limit - pos[above, axis]
            flip = below | above
            vel[flip, axis] = -vel[flip, axis]
            # A pathological velocity could still leave the area after one
            # reflection; clamp as a safety net.
            np.clip(pos[:, axis], 0.0, limit, out=pos[:, axis])
