"""The paper's zone-grid mobility model (Sec. 5).

The deployment area is divided into a grid of equal square zones (25
zones of 30 x 30 m^2 in the default setup).  Each sensor starts in its
*home zone* and moves with a speed drawn uniformly from
``[speed_min, speed_max]``.  On reaching a zone boundary it crosses with
probability ``exit_probability`` (bouncing back otherwise) — except that a
boundary into the node's home zone is always crossed.  This produces the
skewed, locality-heavy contact pattern the protocol exploits: nodes whose
home zones are near a sink acquire high delivery probabilities.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.mobility.base import Area, MobilityModel, flat_view, reflect


class ZoneGridMobility(MobilityModel):
    """Zone-constrained random mobility with home-zone affinity."""

    def __init__(
        self,
        node_ids: Sequence[int],
        area: Area,
        rng: random.Random,
        zones_per_side: int = 5,
        speed_min: float = 0.0,
        speed_max: float = 5.0,
        exit_probability: float = 0.2,
        speed_resample_interval: float = 30.0,
    ) -> None:
        super().__init__(node_ids, area)
        if zones_per_side < 1:
            raise ValueError("need at least one zone per side")
        if not 0.0 <= exit_probability <= 1.0:
            raise ValueError("exit_probability must be a probability")
        if speed_min < 0 or speed_max < speed_min:
            raise ValueError("invalid speed range")
        self._rng = rng
        self.zones_per_side = zones_per_side
        self.zone_w = area.width / zones_per_side
        self.zone_h = area.height / zones_per_side
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.exit_probability = exit_probability
        self.speed_resample_interval = speed_resample_interval

        n = len(self.node_ids)
        self.velocities = np.zeros((n, 2), dtype=float)
        self._since_resample = np.zeros(n, dtype=float)
        for i in range(n):
            self.positions[i] = area.random_point(rng)
            self.velocities[i] = self._draw_velocity()
        self.home_zones: List[Tuple[int, int]] = [
            self.zone_of(self.positions[i, 0], self.positions[i, 1]) for i in range(n)
        ]
        self.current_zones: List[Tuple[int, int]] = list(self.home_zones)
        # Array copy of current_zones (the public view): step() compares
        # it with every row's zone quotient in one call to flag the rows
        # that may have changed zone.  Kept in sync with the list.
        self._zones_arr = np.array(self.current_zones, dtype=np.int64).reshape(n, 2)
        self._zone_size = np.array([self.zone_w, self.zone_h])

    def zone_of(self, x: float, y: float) -> Tuple[int, int]:
        """Zone grid coordinates containing point ``(x, y)``."""
        last = self.zones_per_side - 1
        zx = int(x / self.zone_w)
        zy = int(y / self.zone_h)
        if zx > last:
            zx = last
        elif zx < 0:
            zx = 0
        if zy > last:
            zy = last
        elif zy < 0:
            zy = 0
        return (zx, zy)

    def _draw_velocity(self) -> Tuple[float, float]:
        """A fresh velocity: uniform speed, uniform heading."""
        speed = self._rng.uniform(self.speed_min, self.speed_max)
        heading = self._rng.uniform(0.0, 2.0 * math.pi)
        return speed * math.cos(heading), speed * math.sin(heading)

    def step(self, dt: float) -> None:
        """Advance every node by dt, applying the zone boundary rule.

        Fourteen whole-array numpy calls, whatever n, integrate every
        node and flag the rows that left the area, may have changed
        zone, or are due a speed resample.  One Python pass over only
        the flagged rows then reflects them off the outer boundary,
        applies cross-or-bounce, takes the landed zone and resamples.
        It reads and writes plain floats through :func:`flat_view`: at
        the paper's 100 nodes a dozen rows are flagged, and the numpy
        calls of a gather and a bulk write-back would cost more than
        the rows.  An unflagged row needs nothing beyond the
        integration.

        Flagged rows go in ascending index; each draws for its x
        crossing, then its y crossing, then its resamples.  Both axes
        test their crossing target against the *old* zone, so a
        diagonal crossing proposes two independent single-axis targets.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        pos = self.positions
        vel = self.velocities
        since = self._since_resample
        since += dt
        pos += vel * dt
        # Inside the area the truncated quotient is zone_of() before its
        # clamp; a row outside the area is flagged on its own.
        flag = (pos / self._zone_size).astype(np.int64) != self._zones_arr
        flag |= pos < 0.0
        flag |= pos > self._limits
        rows = flag[:, 0] | flag[:, 1]
        rows |= since >= self.speed_resample_interval
        rows = rows.nonzero()[0]
        if not rows.size:
            return

        width, height = self.area.width, self.area.height
        zone_w, zone_h = self.zone_w, self.zone_h
        last = self.zones_per_side - 1
        exit_p = self.exit_probability
        interval = self.speed_resample_interval
        draw = self._rng.random
        new_velocity = self._draw_velocity
        zones = self.current_zones
        homes = self.home_zones
        moved = []
        p, v, t = flat_view(pos), flat_view(vel), flat_view(since)
        for i in rows.tolist():
            kx, ky = 2 * i, 2 * i + 1
            x, y, vx, vy, s = p[kx], p[ky], v[kx], v[ky], t[i]
            if x < 0.0 or x > width:
                x, vx = reflect(x, vx, width)
            if y < 0.0 or y > height:
                y, vy = reflect(y, vy, height)
            # zone_of(x, y); x and y are now >= 0, so only the top clamps.
            zx, zy = zones[i]
            nx = int(x / zone_w)
            if nx > last:
                nx = last
            ny = int(y / zone_h)
            if ny > last:
                ny = last
            if nx != zx or ny != zy:
                # Cross into the home zone always, elsewhere with
                # exit_probability; otherwise bounce off the old zone.
                hx, hy = homes[i]
                if nx != zx:
                    up = nx > zx
                    if (hx != (zx + 1 if up else zx - 1) or hy != zy) \
                            and draw() >= exit_p:
                        x = _bounced(x, zx * zone_w, zone_w, up)
                        vx = -vx
                        nx = int(x / zone_w)
                        if nx > last:
                            nx = last
                if ny != zy:
                    up = ny > zy
                    if (hx != zx or hy != (zy + 1 if up else zy - 1)) \
                            and draw() >= exit_p:
                        y = _bounced(y, zy * zone_h, zone_h, up)
                        vy = -vy
                        ny = int(y / zone_h)
                        if ny > last:
                            ny = last
                if nx != zx or ny != zy:
                    zones[i] = (nx, ny)
                    moved.append(i)
                    vx, vy = new_velocity()
                    s = 0.0
            if s >= interval:
                vx, vy = new_velocity()
                s = 0.0
            p[kx], p[ky], v[kx], v[ky], t[i] = x, y, vx, vy, s
        if moved:
            self._zones_arr[moved] = [zones[i] for i in moved]


def _bounced(p: float, lo: float, size: float, up: bool) -> float:
    """Coordinate ``p`` reflected off the upper or lower edge of a zone."""
    hi = lo + size
    p = 2.0 * (hi if up else lo) - p
    # Numerical safety: keep strictly inside the current zone.
    eps = 1e-9
    lo_e = lo + eps
    hi_e = hi - eps
    if p < lo_e:
        return lo_e
    if p > hi_e:
        return hi_e
    return p
