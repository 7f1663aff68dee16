"""Unit tests for the reference timer and named random streams.

The simulator has no timer object any more: the Eq. 1 decay, its one
user, is applied lazily.  ``TestTimer`` pins the restartable timer that
the decay's reference property (``test_property_delivery_reference``)
replays the old estimator on, so that reference stays faithful.
"""

from repro.des import EventScheduler, RandomStreams

from tests.test_property_delivery_reference import ReferenceTimer as Timer


class TestTimer:
    def test_idle_until_started(self):
        sched = EventScheduler()
        timer = Timer(sched, lambda: None)
        assert not timer.running
        assert timer.expires_at is None

    def test_fires_after_delay(self):
        sched = EventScheduler()
        fired = []
        timer = Timer(sched, lambda: fired.append(sched.now))
        timer.start(4.0)
        assert timer.running
        assert timer.expires_at == 4.0
        sched.run()
        assert fired == [4.0]
        assert not timer.running

    def test_restart_supersedes_previous(self):
        sched = EventScheduler()
        fired = []
        timer = Timer(sched, lambda: fired.append(sched.now))
        timer.start(1.0)
        timer.start(5.0)
        sched.run()
        assert fired == [5.0]

    def test_cancel_prevents_firing(self):
        sched = EventScheduler()
        fired = []
        timer = Timer(sched, lambda: fired.append(True))
        timer.start(1.0)
        timer.cancel()
        sched.run()
        assert fired == []

    def test_restart_from_callback(self):
        sched = EventScheduler()
        fired = []

        def on_fire():
            fired.append(sched.now)
            if len(fired) < 3:
                timer.start(2.0)

        timer = Timer(sched, on_fire)
        timer.start(2.0)
        sched.run()
        assert fired == [2.0, 4.0, 6.0]


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(42).stream("mobility")
        b = RandomStreams(42).stream("mobility")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        streams = RandomStreams(42)
        xs = [streams.stream("x").random() for _ in range(5)]
        ys = [streams.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("s")
        b = RandomStreams(2).stream("s")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_consuming_one_stream_leaves_others_untouched(self):
        streams = RandomStreams(9)
        before = RandomStreams(9).stream("b").random()
        for _ in range(100):
            streams.stream("a").random()
        assert streams.stream("b").random() == before

    def test_spawn_derives_independent_master(self):
        base = RandomStreams(3)
        child = base.spawn(1)
        assert child.master_seed != base.master_seed
        assert (child.stream("t").random()
                != base.stream("t").random())
