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


def reflect(p: float, v: float, limit: float) -> Tuple[float, float]:
    """One coordinate and its velocity, reflected back into ``[0, limit]``.

    A coordinate inside the interval comes back unchanged.
    """
    if p < 0.0:
        p = -p
    elif p > limit:
        p = 2.0 * limit - p
    else:
        return p, v
    # A pathological velocity could still leave the area after one
    # reflection; clamp as a safety net.
    if p > limit:
        p = limit
    elif p < 0.0:
        p = 0.0
    return p, -v


def flat_view(a: np.ndarray) -> memoryview:
    """The elements of a C-contiguous array, flat, as a writable memoryview.

    Reading an element gives a plain Python number and writing one goes
    straight to the array, each far cheaper than indexing the array.
    A non-contiguous array raises ``TypeError``.
    """
    return memoryview(a).cast("B").cast(a.dtype.char)


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
        self._limits = np.array([area.width, area.height])

    @abc.abstractmethod
    def step(self, dt: float) -> None:
        """Advance all nodes by ``dt`` seconds."""

    def position_of(self, node_id: int) -> Tuple[float, float]:
        """Position of one node (mostly for tests; hot paths use arrays)."""
        idx = self.node_ids.index(node_id)
        return float(self.positions[idx, 0]), float(self.positions[idx, 1])

    def _reflect_into_area(self, pos: np.ndarray, vel: np.ndarray) -> None:
        """Reflect positions (and velocities) at the outer area boundary.

        Operates in place on matching ``(n, 2)`` arrays.  Only the rows
        outside the area are touched, each through :func:`reflect`.
        """
        out = pos < 0.0
        out |= pos > self._limits
        rows = (out[:, 0] | out[:, 1]).nonzero()[0]
        if not rows.size:
            return
        width, height = self.area.width, self.area.height
        p, v = flat_view(pos), flat_view(vel)
        for i in rows.tolist():
            kx, ky = 2 * i, 2 * i + 1
            p[kx], v[kx] = reflect(p[kx], v[kx], width)
            p[ky], v[ky] = reflect(p[ky], v[ky], height)
