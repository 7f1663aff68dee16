"""Reference properties for the mobility steps (Sec. 5 zone grid, walks).

``ZoneGridMobility.step`` flags the few rows that need scalar work and
handles only those; ``MobilityModel._reflect_into_area`` reflects only
the rows that left the area.  Both must reproduce the straightforward
per-node implementations bit for bit — positions, velocities, resample
clocks, zones and the RNG stream — so seeded runs stay identical.  The
references below are those implementations, kept verbatim (only
renamed); every comparison is exact, on the arrays' bytes.
"""

import math
import random
from typing import List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import Area, LevyWalkMobility, ZoneGridMobility
from repro.mobility.base import MobilityModel
from repro.mobility.walk import RandomWalkMobility


def reference_reflect_into_area(self, pos, vel):
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


class ReferenceZoneGridMobility(MobilityModel):
    _reflect_into_area = reference_reflect_into_area

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
            self._resample_velocity(i)
        self.home_zones: List[Tuple[int, int]] = [
            self.zone_of(self.positions[i, 0], self.positions[i, 1]) for i in range(n)
        ]
        self.current_zones: List[Tuple[int, int]] = list(self.home_zones)
        self._zones_arr = np.array(self.current_zones, dtype=np.int64).reshape(n, 2)

    def zone_of(self, x: float, y: float) -> Tuple[int, int]:
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

    def _zone_bounds(self, zone: Tuple[int, int], axis: int) -> Tuple[float, float]:
        size = self.zone_w if axis == 0 else self.zone_h
        lo = zone[axis] * size
        return lo, lo + size

    def _resample_velocity(self, i: int) -> None:
        speed = self._rng.uniform(self.speed_min, self.speed_max)
        heading = self._rng.uniform(0.0, 2.0 * math.pi)
        self.velocities[i, 0] = speed * math.cos(heading)
        self.velocities[i, 1] = speed * math.sin(heading)
        self._since_resample[i] = 0.0

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._since_resample += dt
        proposed = self.positions + self.velocities * dt
        self._reflect_into_area(proposed, self.velocities)

        last = self.zones_per_side - 1
        zx = np.clip((proposed[:, 0] / self.zone_w).astype(np.int64), 0, last)
        zy = np.clip((proposed[:, 1] / self.zone_h).astype(np.int64), 0, last)
        crossed = (zx != self._zones_arr[:, 0]) | (zy != self._zones_arr[:, 1])
        due = crossed | (self._since_resample >= self.speed_resample_interval)

        due_rows = np.nonzero(due)[0]
        if due_rows.size:
            crossed_d = crossed[due_rows].tolist()
            zx_d = zx[due_rows].tolist()
            zy_d = zy[due_rows].tolist()
            for j, i in enumerate(due_rows.tolist()):
                zone = self.current_zones[i]
                if crossed_d[j]:
                    new_zone = (zx_d[j], zy_d[j])
                    self._handle_boundary(i, proposed[i], zone, new_zone)
                    landed = self.zone_of(proposed[i, 0], proposed[i, 1])
                    if landed != zone:
                        self.current_zones[i] = landed
                        self._zones_arr[i, 0] = landed[0]
                        self._zones_arr[i, 1] = landed[1]
                        self._resample_velocity(i)
                if self._since_resample[i] >= self.speed_resample_interval:
                    self._resample_velocity(i)
        self.positions[:] = proposed

    def _handle_boundary(
        self,
        i: int,
        pos: np.ndarray,
        zone: Tuple[int, int],
        new_zone: Tuple[int, int],
    ) -> None:
        zx, zy = zone
        if new_zone[0] != zx:
            step_dir = 1 if new_zone[0] > zx else -1
            if not self._may_cross(i, (zx + step_dir, zy)):
                self._bounce(i, pos, zone, 0, step_dir)
        if new_zone[1] != zy:
            step_dir = 1 if new_zone[1] > zy else -1
            if not self._may_cross(i, (zx, zy + step_dir)):
                self._bounce(i, pos, zone, 1, step_dir)

    def _bounce(
        self,
        i: int,
        pos: np.ndarray,
        zone: Tuple[int, int],
        axis: int,
        step_dir: int,
    ) -> None:
        lo, hi = self._zone_bounds(zone, axis)
        boundary = hi if step_dir > 0 else lo
        new_val = 2.0 * boundary - pos[axis]
        self.velocities[i, axis] = -self.velocities[i, axis]
        eps = 1e-9
        lo_e = lo + eps
        hi_e = hi - eps
        if new_val < lo_e:
            new_val = lo_e
        elif new_val > hi_e:
            new_val = hi_e
        pos[axis] = new_val

    def _may_cross(self, i: int, target_zone: Tuple[int, int]) -> bool:
        if target_zone == self.home_zones[i]:
            return True
        return self._rng.random() < self.exit_probability


class ReferenceRandomWalkMobility(RandomWalkMobility):
    _reflect_into_area = reference_reflect_into_area

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.positions += self.velocities * dt
        self._reflect_into_area(self.positions, self.velocities)
        self._epoch_left -= dt
        for i in np.nonzero(self._epoch_left <= 0)[0]:
            self._new_epoch(int(i))


class ReferenceLevyWalkMobility(LevyWalkMobility):
    _reflect_into_area = reference_reflect_into_area

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        n = len(self.node_ids)
        for i in range(n):
            remaining = dt
            while remaining > 1e-12:
                if self._walk_left[i] > 0:
                    used = min(self._walk_left[i], remaining)
                    self.positions[i] += self.velocities[i] * used
                    self._walk_left[i] -= used
                    remaining -= used
                elif self._pause_left[i] > 0:
                    used = min(self._pause_left[i], remaining)
                    self._pause_left[i] -= used
                    remaining -= used
                else:
                    self._new_epoch(i)
        self._reflect_into_area(self.positions, self.velocities)


def assert_same(model, ref, arrays):
    for name in arrays:
        got, want = getattr(model, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert model._rng.getstate() == ref._rng.getstate()


ZONE_ARRAYS = ("positions", "velocities", "_since_resample", "_zones_arr")


@st.composite
def areas(draw):
    width = draw(st.floats(5.0, 400.0))
    square = draw(st.booleans())
    height = width if square else draw(st.floats(5.0, 400.0))
    return Area(width, height)


@st.composite
def zone_cases(draw):
    area = draw(areas())
    zones = draw(st.integers(1, 6))
    dt = draw(st.sampled_from([0.1, 0.5, 1.0, 2.5]))
    zone_side = min(area.width, area.height) / zones
    # Up to several zone widths per tick: outer reflections, diagonal
    # crossings and the bounce clamp all fire.
    speed_max = draw(st.floats(0.0, 4.0)) * zone_side / dt
    speed_min = draw(st.floats(0.0, 1.0)) * speed_max
    return dict(
        n=draw(st.integers(1, 300)),
        area=area,
        seed=draw(st.integers(0, 2**32 - 1)),
        ticks=draw(st.integers(1, 12)),
        dt=dt,
        kw=dict(
            zones_per_side=zones,
            speed_min=speed_min,
            speed_max=speed_max,
            exit_probability=draw(st.sampled_from([0.0, 0.2, 1.0])),
            speed_resample_interval=draw(
                st.sampled_from([0.0, 0.5, 1.0, 3.0, 30.0])),
        ),
    )


class TestZoneStepMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(zone_cases())
    def test_every_tick_is_byte_identical(self, case):
        ids = list(range(case["n"]))
        model = ZoneGridMobility(ids, case["area"],
                                 random.Random(case["seed"]), **case["kw"])
        ref = ReferenceZoneGridMobility(ids, case["area"],
                                        random.Random(case["seed"]),
                                        **case["kw"])
        assert_same(model, ref, ZONE_ARRAYS)
        positions, velocities = model.positions, model.velocities
        for _ in range(case["ticks"]):
            model.step(case["dt"])
            ref.step(case["dt"])
            assert_same(model, ref, ZONE_ARRAYS)
            assert model.current_zones == ref.current_zones
            assert model.home_zones == ref.home_zones
        # Updated in place: the manager holds on to these arrays.
        assert model.positions is positions
        assert model.velocities is velocities

    def test_paper_geometry_long_run(self):
        ids = list(range(100))
        model = ZoneGridMobility(ids, Area(150.0, 150.0), random.Random(5))
        ref = ReferenceZoneGridMobility(ids, Area(150.0, 150.0),
                                        random.Random(5))
        for _ in range(600):
            model.step(1.0)
            ref.step(1.0)
        assert_same(model, ref, ZONE_ARRAYS)
        assert model.current_zones == ref.current_zones


@st.composite
def walk_cases(draw):
    area = draw(areas())
    dt = draw(st.sampled_from([0.1, 1.0, 2.5]))
    # Up to a few area widths per tick, so the post-reflection clamp fires.
    speed_max = draw(st.floats(0.01, 3.0)) * min(area.width, area.height) / dt
    return dict(
        n=draw(st.integers(1, 300)),
        area=area,
        seed=draw(st.integers(0, 2**32 - 1)),
        ticks=draw(st.integers(1, 12)),
        dt=dt,
        speed_min=draw(st.floats(0.0, 1.0)) * speed_max,
        speed_max=speed_max,
    )


class TestWalkReflectionMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(walk_cases(), st.floats(0.5, 30.0))
    def test_random_walk(self, case, epoch):
        ids = list(range(case["n"]))
        kw = dict(speed_min=case["speed_min"], speed_max=case["speed_max"],
                  mean_epoch_s=epoch)
        model = RandomWalkMobility(ids, case["area"],
                                   random.Random(case["seed"]), **kw)
        ref = ReferenceRandomWalkMobility(ids, case["area"],
                                          random.Random(case["seed"]), **kw)
        arrays = ("positions", "velocities", "_epoch_left")
        for _ in range(case["ticks"]):
            model.step(case["dt"])
            ref.step(case["dt"])
            assert_same(model, ref, arrays)

    @settings(max_examples=60, deadline=None)
    @given(walk_cases())
    def test_levy_walk(self, case):
        ids = list(range(min(case["n"], 100)))
        speed_max = max(case["speed_max"], 0.5)
        kw = dict(speed_min=0.5, speed_max=speed_max,
                  step_max_m=max(2.0, 3.0 * speed_max * case["dt"]))
        model = LevyWalkMobility(ids, case["area"],
                                 random.Random(case["seed"]), **kw)
        ref = ReferenceLevyWalkMobility(ids, case["area"],
                                        random.Random(case["seed"]), **kw)
        arrays = ("positions", "velocities", "_walk_left", "_pause_left")
        for _ in range(case["ticks"]):
            model.step(case["dt"])
            ref.step(case["dt"])
            assert_same(model, ref, arrays)
