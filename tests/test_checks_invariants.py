"""Tests for the runtime protocol-invariant checker (repro.checks.invariants).

Strategy: build genuinely valid state, corrupt one structural property at
a time through the private attributes (the public API refuses to create
invalid state), and assert the checker raises the matching INV-* code
with structured context.  End-to-end tests prove the checker actually
runs inside a simulation and that enabling it leaves every protocol
metric untouched.
"""

import types

import pytest

from repro.checks.invariants import (
    ENV_FLAG,
    InvariantChecker,
    InvariantViolation,
    check_queue_invariants,
    invariants_forced,
)
from repro.core.message import DataMessage, MessageCopy, fresh_message_id
from repro.core.queue import FtdQueue
from repro.des.scheduler import EventScheduler
from repro.harness.cli import main as cli_main
from repro.network import SimulationConfig
from repro.network.simulation import Simulation


def make_copy(ftd, origin=0):
    msg = DataMessage(fresh_message_id(), origin=origin, created_at=0.0)
    return MessageCopy(msg, ftd=ftd)


def filled_queue(ftds=(0.1, 0.3, 0.5), capacity=8):
    q = FtdQueue(capacity, drop_threshold=0.9)
    for ftd in ftds:
        assert q.insert(make_copy(ftd))
    return q


class TestViolationStructure:
    def test_carries_context(self):
        v = InvariantViolation("INV-FTD", "ftd 1.5 out of range",
                               node=7, time=123.5, equation="Eq. 2-3")
        assert v.invariant == "INV-FTD"
        assert v.node == 7 and v.time == 123.5 and v.equation == "Eq. 2-3"
        text = str(v)
        assert "INV-FTD" in text and "node 7" in text
        assert "t=123.5" in text and "Eq. 2-3" in text

    def test_network_wide_violation_names_network(self):
        assert "network" in str(InvariantViolation("INV-CLOCK", "backwards"))

    def test_is_an_assertion_error(self):
        assert issubclass(InvariantViolation, AssertionError)


class TestQueueInvariants:
    def test_valid_queue_passes(self):
        check_queue_invariants(filled_queue(), node=1, now=10.0)

    def test_empty_queue_passes(self):
        check_queue_invariants(FtdQueue(4))

    def test_ftd_out_of_range(self):
        q = filled_queue()
        q._copies[1].ftd = 1.5
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q, node=3, now=42.0)
        assert err.value.invariant == "INV-FTD"
        assert err.value.node == 3 and err.value.time == 42.0
        assert err.value.equation == "Eq. 2-3"

    def test_key_mismatching_copy(self):
        q = filled_queue()
        q._keys[0] = (0.2, q._keys[0][1])  # no longer equals copy's 0.1
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-ORDER"

    def test_keys_out_of_order(self):
        q = filled_queue()
        q._keys.reverse()
        q._copies.reverse()
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-ORDER"

    def test_key_index_length_mismatch(self):
        q = filled_queue()
        q._keys.append((0.8, 99))
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-ORDER"

    def test_id_index_missing_a_buffered_id(self):
        q = filled_queue()
        del q._index[q.peek().message_id]
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-ORDER"

    def test_id_index_holding_an_absent_id(self):
        q = filled_queue()
        q._index[-1] = (0.8, 99)
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-ORDER"

    def test_id_index_pointing_at_the_wrong_key(self):
        q = filled_queue()
        first, second = [c.message_id for c in q][:2]
        q._index[first], q._index[second] = (q._index[second],
                                             q._index[first])
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-ORDER"

    def test_id_buffered_twice(self):
        q = filled_queue()
        # Smuggle a second copy of the head's message past insert()'s
        # merge (ledger kept consistent so INV-ORDER is the breach).
        q._insort(MessageCopy(q.peek().message, ftd=0.7))
        q.stats.inserted += 1
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-ORDER"

    def test_occupancy_over_capacity(self):
        q = filled_queue(ftds=(0.1, 0.3), capacity=2)
        # Smuggle a third copy past insert()'s overflow handling (keep
        # the ledger consistent so INV-BUFFER is the first breach).
        q._insort(make_copy(0.5))
        q.stats.inserted += 1
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-BUFFER"

    def test_conservation_ledger_tampered(self):
        q = filled_queue()
        q.stats.inserted += 1  # claims one more copy than is present
        with pytest.raises(InvariantViolation) as err:
            check_queue_invariants(q)
        assert err.value.invariant == "INV-CONSERVE"

    def test_ledger_tracks_full_lifecycle(self):
        q = filled_queue(ftds=(0.1, 0.3, 0.5), capacity=3)
        assert not q.insert(make_copy(0.7))  # overflow: tail evicted
        head = q.pop()
        q.reinsert_with_ftd(head, 0.6)
        q.remove(q.peek().message_id)
        check_queue_invariants(q)


class FakeSensor:
    """Duck-typed stand-in satisfying the checker's sensor protocol."""

    def __init__(self, node_id, xi=0.5, queue=None):
        self.node_id = node_id
        self.queue = queue if queue is not None else FtdQueue(8)
        self.agent = types.SimpleNamespace(advertised_metric=lambda: xi)


class TestChecker:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            InvariantChecker(EventScheduler(), [], interval_s=0.0)

    def test_clean_state_passes_and_counts(self):
        checker = InvariantChecker(EventScheduler(), [FakeSensor(1)])
        checker.check_now()
        checker.check_now()
        assert checker.checks_run == 2

    def test_xi_out_of_range(self):
        checker = InvariantChecker(EventScheduler(),
                                   [FakeSensor(4, xi=1.5)])
        with pytest.raises(InvariantViolation) as err:
            checker.check_now()
        assert err.value.invariant == "INV-XI"
        assert err.value.node == 4 and err.value.equation == "Eq. 1"

    def test_queue_violation_names_owning_node(self):
        q = filled_queue()
        q._copies[0].ftd = -0.2
        checker = InvariantChecker(EventScheduler(),
                                   [FakeSensor(9, queue=q)])
        with pytest.raises(InvariantViolation) as err:
            checker.check_now()
        assert err.value.invariant == "INV-FTD" and err.value.node == 9

    def test_clock_regression(self):
        scheduler = EventScheduler()
        checker = InvariantChecker(scheduler, [])
        checker._last_now = 50.0  # pretend we already saw t=50
        with pytest.raises(InvariantViolation) as err:
            checker.check_now()
        assert err.value.invariant == "INV-CLOCK"

    def test_pending_event_in_past(self):
        scheduler = EventScheduler()
        event = scheduler.schedule(10.0, lambda: None)
        event.time = -1.0  # corrupt the heap entry
        checker = InvariantChecker(scheduler, [])
        with pytest.raises(InvariantViolation) as err:
            checker.check_now()
        assert err.value.invariant == "INV-CLOCK"

    def test_delivery_without_generation(self):
        record = types.SimpleNamespace(delivered_at=5.0, created_at=1.0)
        collector = types.SimpleNamespace(generated={2: 0.0},
                                          deliveries={1: record})
        checker = InvariantChecker(EventScheduler(), [], collector)
        with pytest.raises(InvariantViolation) as err:
            checker.check_now()
        assert err.value.invariant == "INV-CONSERVE"

    def test_delivery_before_creation(self):
        record = types.SimpleNamespace(delivered_at=1.0, created_at=5.0)
        collector = types.SimpleNamespace(generated={1: 5.0},
                                          deliveries={1: record})
        checker = InvariantChecker(EventScheduler(), [], collector)
        with pytest.raises(InvariantViolation) as err:
            checker.check_now()
        assert err.value.invariant == "INV-CONSERVE"

    def test_periodic_install_sweeps_at_interval(self):
        scheduler = EventScheduler()
        checker = InvariantChecker(scheduler, [FakeSensor(1)],
                                   interval_s=10.0)
        checker.install(until=100.0)
        scheduler.run_until(100.0)
        assert checker.checks_run == 10


SMALL = SimulationConfig(protocol="opt", duration_s=400.0,
                         n_sensors=15, n_sinks=2, seed=11)


class TestEndToEnd:
    def test_fixture_forces_env_flag(self):
        # tests/conftest.py enables checking suite-wide.
        assert invariants_forced()

    def test_simulation_runs_checks(self):
        from dataclasses import replace

        sim = Simulation(replace(SMALL, check_invariants=True,
                                 invariant_interval_s=50.0))
        sim.run()
        # 400 s / 50 s periodic sweeps + the final post-loop sweep.
        assert sim.invariant_checks_run == 9

    def test_env_flag_alone_enables_checker(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        sim = Simulation(SMALL)  # config flag left at its False default
        sim.run()
        assert sim.invariant_checks_run > 0

    def test_disabled_when_flag_cleared(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        sim = Simulation(SMALL)
        sim.run()
        assert sim.invariant_checks_run == 0

    def test_checker_does_not_change_metrics(self, monkeypatch):
        from dataclasses import replace

        monkeypatch.delenv(ENV_FLAG, raising=False)
        plain = Simulation(SMALL).run().to_dict()
        checked = Simulation(
            replace(SMALL, check_invariants=True)).run().to_dict()
        # Only events_fired may differ (it counts the sweep events too).
        plain.pop("events_fired")
        checked.pop("events_fired")
        assert plain == checked

    def test_cli_single_check_invariants(self, capsys):
        code = cli_main(["single", "--protocol", "opt", "--sensors", "12",
                         "--sinks", "1", "--duration", "200", "--seed", "3",
                         "--check-invariants"])
        assert code == 0
        assert "delivery ratio" in capsys.readouterr().out
