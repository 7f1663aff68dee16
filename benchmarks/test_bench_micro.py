"""Micro-benchmarks of the simulator's hot paths.

These time the substrate components in isolation — useful when tuning
the simulator itself (the full-scale Fig. 2 sweep is dominated by event
dispatch, queue operations and neighbor queries).
"""

import dataclasses
import json
import math
import random
import typing

from repro.analysis import min_tau_max_fast
from repro.contact.policies import LazyXiEstimator
from repro.core.message import DataMessage, MessageCopy
from repro.core.queue import FtdQueue
from repro.core.ftd import receiver_copy_ftd, sender_ftd_after_multicast
from repro.des import EventScheduler
from repro.mobility import Area, MobilityManager, ZoneGridMobility
from repro.des.rng import RandomStreams
from repro.harness.bench import PAPER_DENSITY
from repro.network.config import SimulationConfig
from repro.network.simulation import Simulation, run_simulation
from repro.obs.bus import ALL_TOPICS, TelemetryBus
from repro.obs.events import EVENT_TYPES, FrameTx, event_to_dict
from repro.obs.export import JsonlTraceWriter

#: Reduced-scale run shared by the telemetry on/off pair below, so the
#: two timings differ only in the telemetry flag.
_TELEMETRY_BENCH = dict(protocol="opt", n_sensors=20, n_sinks=2,
                        duration_s=400.0, seed=9)


#: Eq. 13 search inputs recorded from the paper-opt benchmark workload
#: (seed 1000), as the listen policy builds them: sorted, 0.01-quantized
#: xi cells, the 0.1 collision target and the 64-slot cap.  A full
#: 12-member cell cannot reach the target within the cap; every 12-member
#: search of that run returns the cap after one probe.  The largest cells
#: that do converge there have 9 members.
_CAPPED_CELL = [0.2, 0.28, 0.32, 0.37, 0.48, 0.57, 0.59, 0.63, 0.65, 0.71,
                0.75, 1.0]
_CONVERGING_CELL = [0.54, 0.62, 0.63, 0.66, 0.69, 0.79, 0.86, 0.94, 1.0]


def test_tau_max_search(benchmark):
    """Eq. 13 binary search on a capped and a converging paper-opt cell."""
    def run():
        return (min_tau_max_fast(_CAPPED_CELL, 0.1, 64),
                min_tau_max_fast(_CONVERGING_CELL, 0.1, 64))

    assert benchmark(run) == (64, 60)


def test_event_scheduler_throughput(benchmark):
    """Schedule + dispatch cost of the DES core."""
    def run():
        sched = EventScheduler()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sched.schedule(0.001, tick)

        sched.schedule(0.0, tick)
        sched.run()
        return count[0]

    assert benchmark(run) == 10_000


def test_ftd_queue_insert_pop(benchmark):
    """Sorted-insert + pop of the Sec. 3.1.2 queue at capacity."""
    rng = random.Random(1)
    messages = [
        MessageCopy(DataMessage(i, 0, 0.0), ftd=rng.random() * 0.89)
        for i in range(500)
    ]

    def run():
        q = FtdQueue(200)
        for copy in messages:
            q.insert(MessageCopy(copy.message, ftd=copy.ftd))
        drained = 0
        while len(q):
            q.pop()
            drained += 1
        return drained

    assert benchmark(run) > 0


def test_ftd_algebra(benchmark):
    """Eq. 2/3 per-multicast cost."""
    xis = [0.2, 0.4, 0.6, 0.8]

    def run():
        total = 0.0
        for _ in range(1000):
            for j in range(len(xis)):
                total += receiver_copy_ftd(0.3, 0.5, xis, j)
            total += sender_ftd_after_multicast(0.3, xis)
        return total

    assert benchmark(run) > 0


def test_zone_mobility_step(benchmark):
    """One-second mobility tick for the paper's 100-node field."""
    model = ZoneGridMobility(list(range(100)), Area(150, 150),
                             random.Random(2))

    def run():
        for _ in range(50):
            model.step(1.0)
        return model.positions.sum()

    benchmark(run)


def test_zone_mobility_step_3k(benchmark):
    """One-second mobility tick at the scale-3k geometry.

    3,000 nodes at the paper's density in 30 m zones: hundreds of rows
    cross a zone boundary each tick, where the 100-node field has a
    dozen.
    """
    n = 3000
    side = math.sqrt(n / PAPER_DENSITY)
    model = ZoneGridMobility(list(range(n)), Area(side, side),
                             random.Random(2),
                             zones_per_side=round(side / 30.0))

    def run():
        for _ in range(5):
            model.step(1.0)
        return model.positions.sum()

    benchmark(run)


def test_neighbor_queries(benchmark):
    """Grid-indexed neighbor lookup at the paper's density."""
    sched = EventScheduler()
    area = Area(150, 150)
    model = ZoneGridMobility(list(range(100)), area, random.Random(3))
    mgr = MobilityManager(sched, area, [model], comm_range=10.0)

    def run():
        total = 0
        for node in range(100):
            total += len(list(mgr.neighbors_of(node)))
        return total

    benchmark(run)


def test_neighbor_index_tick(benchmark):
    """One scale-3k tick: a step, then the grid rebuilt by the first query.

    3,000 zone-mobile nodes at the paper's density with the 30 m zones
    of the scaling configuration; every node asks for its neighbors.
    """
    n = 3000
    side = math.sqrt(n / PAPER_DENSITY)
    area = Area(side, side)
    model = ZoneGridMobility(list(range(n)), area, random.Random(4),
                             zones_per_side=round(side / 30.0))
    mgr = MobilityManager(EventScheduler(), area, [model], comm_range=10.0)

    def run():
        mgr.step(1.0)
        return sum(len(mgr.neighbors_of(node)) for node in range(n))

    assert benchmark(run) > 0


def test_pairs_in_range(benchmark):
    """One-call in-range pair query (the contact scan's per-tick cost)."""
    sched = EventScheduler()
    area = Area(150, 150)
    model = ZoneGridMobility(list(range(100)), area, random.Random(3))
    mgr = MobilityManager(sched, area, [model], comm_range=10.0)
    benchmark(mgr.pairs_in_range)


def test_simulation_telemetry_off(benchmark):
    """Full reduced-scale run on the default (telemetry-disabled) path.

    Pairs with :func:`test_simulation_telemetry_on`; the gap between the
    two is the cost of enabling the bus + metrics + span subscribers
    (``benchmarks/obs_overhead.py`` writes the same comparison to
    ``BENCH_obs.json``).
    """
    def run():
        return run_simulation(SimulationConfig(**_TELEMETRY_BENCH))

    assert benchmark(run).messages_generated > 0


def test_simulation_telemetry_on(benchmark):
    """The same run with the telemetry bus and standard subscribers on."""
    def run():
        return run_simulation(SimulationConfig(telemetry=True,
                                               **_TELEMETRY_BENCH))

    result = benchmark(run)
    assert result.telemetry is not None


def test_jsonl_trace_write(benchmark, tmp_path):
    """JSONL trace writer cost over a recorded reduced-run event stream.

    The stream is every event of the :data:`_TELEMETRY_BENCH` run, so
    the mix of event kinds is the simulator's.  The file must equal the
    ``json.dumps`` line of each event.
    """
    sim = Simulation(SimulationConfig(telemetry=True, **_TELEMETRY_BENCH))
    events = []
    sim.enable_telemetry().subscribe(ALL_TOPICS, events.append)
    sim.run()
    path = tmp_path / "trace.jsonl"

    def run():
        with JsonlTraceWriter(path) as writer:
            for event in events:
                writer.write(event)
        return writer.events_written

    assert benchmark(run) == len(events) > 0
    assert path.read_text() == "".join(
        json.dumps(event_to_dict(event), separators=(",", ":")) + "\n"
        for event in events)


def test_bus_emit_dispatch(benchmark):
    """Bus dispatch cost: one topic subscriber, then one wildcard.

    The order within each dispatch and the per-subscriber counts are
    checked after the timed rounds.
    """
    bus = TelemetryBus()
    order = []
    bus.subscribe(FrameTx.topic, lambda e: order.append("topic"))
    bus.subscribe(ALL_TOPICS, lambda e: order.append("wild"))
    event = FrameTx(time=0.0, node=1, frame_kind="data", src=1, dst=None,
                    message_id=None, bits=1000)

    def run():
        del order[:]
        for _ in range(10_000):
            bus.emit(event)
        return len(order)

    assert benchmark(run) == 20_000
    assert order == ["topic", "wild"] * 10_000
    assert bus.events_emitted % 10_000 == 0 < bus.events_emitted


def test_lazy_xi_read(benchmark):
    """Steady reads of the contact level's lazy Eq. 1 estimator.

    FAD reads xi a few times per offer, and most reads fall within one
    timeout of the last event, where no decay step is due.  Each round
    makes 10,000 such reads after three decay steps; every value must
    equal xi decayed by ``(1 - alpha) ** 3``, and a read one timeout on
    applies the fourth step.
    """
    alpha, timeout = 0.3, 60.0
    est = LazyXiEstimator(alpha, timeout)
    est.on_transmission(0.8, 100.0)
    reference = alpha * 0.8 * (1.0 - alpha) ** 3
    assert est.xi(100.0 + 3 * timeout + 1.0) == reference
    last = est._last_event
    times = [last + i * 0.005 for i in range(10_000)]
    assert times[-1] < last + timeout

    def run():
        return [est.xi(now) for now in times]

    assert benchmark(run) == [reference] * len(times)
    assert (est._xi, est._last_event) == (reference, last)
    assert all(est.steady_at(now) for now in times)
    assert not est.steady_at(last + timeout)
    assert est.xi(last + timeout) == reference * (1.0 - alpha)


def test_event_construction(benchmark):
    """Building one event of every ``EVENT_TYPES`` class by keyword.

    The values come from each class's annotations; every event must
    equal the same event built positionally.
    """
    samples = {float: 1.5, int: 3, str: "data", bool: True}
    kwargs = []
    for cls in EVENT_TYPES:
        hints = typing.get_type_hints(cls)
        values = {}
        for field in dataclasses.fields(cls):
            args = [a for a in typing.get_args(hints[field.name])
                    if a is not type(None)]
            values[field.name] = samples[args[0] if args
                                         else hints[field.name]]
        kwargs.append((cls, values))

    def run():
        built = []
        for _ in range(1_000):
            built = [cls(**values) for cls, values in kwargs]
        return built

    built = benchmark(run)
    assert [type(event) for event in built] == list(EVENT_TYPES)
    assert built == [cls(*values.values()) for cls, values in kwargs]


def test_rng_stream_derivation(benchmark):
    """Named-stream creation cost (per-node streams at build time)."""
    def run():
        streams = RandomStreams(7)
        return sum(streams.stream(f"mac:{i}").random() for i in range(200))

    benchmark(run)
