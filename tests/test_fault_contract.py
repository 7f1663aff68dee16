"""Every fault model keeps its runtime contract: fault priority, own substream.

Two properties make the FTD fault-tolerance results mean something
(docs/FAULTS.md):

* every action a fault model schedules runs at ``FAULT_PRIORITY``, after
  the mobility tick and before every protocol event at the same instant,
  so a node killed at t never also transmits at t;
* a fault model draws only from its own ``faults:<name>`` substream, so
  it never perturbs another component's randomness.

:func:`contract_violations` builds a model from a ``FaultSpec`` of its
``name``, arms it on a small simulation and runs that to the end, with
every scheduler call and the state of every substream recorded.  The
fixture models below each break one rule and must be reported.
"""

import inspect

import pytest

from repro import Simulation, SimulationConfig
from repro.des.scheduler import EventScheduler
from repro.network.faults import (
    FAULT_KINDS,
    FAULT_PRIORITY,
    FaultModel,
    FaultSpec,
    PermanentDeaths,
    SinkOutage,
)

#: Every scheduler entry point (``schedule``, ``schedule_at``, ...).
SCHEDULE_METHODS = sorted(name for name in vars(EventScheduler)
                          if name.startswith("schedule"))


def subclasses(cls):
    """Every transitive subclass of ``cls``."""
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def repro_fault_models():
    """Every ``FaultModel`` subclass defined under ``repro``."""
    return [cls for cls in subclasses(FaultModel)
            if cls.__module__.startswith("repro.")]


def contract_violations(model_cls):
    """What ``model_cls`` breaks of the fault contract, one message each."""
    spec = FaultSpec(kind=model_cls.name, intensity=0.5, start_s=20.0,
                     end_s=200.0, mean_downtime_s=30.0)
    model = model_cls(spec)
    sim = Simulation(SimulationConfig(duration_s=300.0, seed=5,
                                      n_sensors=10, n_sinks=2))
    sim.fault_models = [model]
    own_key = f"faults:{model.name}"
    actions = []  # (method, priority) of each call scheduling the model

    def recording_schedule(method, original):
        signature = inspect.signature(original)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            callback = bound.arguments["callback"]
            if getattr(callback, "__self__", None) is model:
                actions.append((method, bound.arguments["priority"]))
            return original(*args, **kwargs)
        return recording

    streams = sim.streams._streams
    with pytest.MonkeyPatch.context() as patch:
        for method in SCHEDULE_METHODS:
            patch.setattr(EventScheduler, method, recording_schedule(
                method, getattr(EventScheduler, method)))
        before = {key: rng.getstate() for key, rng in streams.items()}
        model.arm(sim)
        moved = [key for key, state in before.items()
                 if key != own_key and streams[key].getstate() != state]
        sim.run()

    found = [f"{method}() at priority {priority}, not FAULT_PRIORITY"
             for method, priority in actions if priority != FAULT_PRIORITY]
    if not actions:
        found.append("scheduled no fault action")
    found += [f"arm() drew from {key!r}" for key in moved]
    found += [f"the run created substream {key!r}"
              for key in streams if key not in before and key != own_key]
    return sorted(set(found))


def test_every_fault_kind_is_walked(repro_modules):
    # The contract test builds each model from a FaultSpec of its name,
    # so every model under repro must be the registered class of a kind.
    assert set(repro_fault_models()) == set(FAULT_KINDS.values())


def test_every_fault_model_keeps_the_contract(repro_modules):
    found = {cls.__qualname__: contract_violations(cls)
             for cls in repro_fault_models()}
    assert found == {name: [] for name in found}


# ----------------------------------------------------------------------
# fixture models: each breaks one rule
# ----------------------------------------------------------------------
class DefaultPriorityDeaths(PermanentDeaths):
    """Schedules its kills at the scheduler's default priority."""

    def _schedule_at(self, when, action, *args):
        self._sim.scheduler.schedule_at(when, action, *args)


class MobilityPriorityDeaths(PermanentDeaths):
    """Schedules its kills at the mobility tick's priority."""

    def _schedule_at(self, when, action, *args):
        self._sim.scheduler.schedule_at(when, action, *args, priority=-10)


class LateDeaths(PermanentDeaths):
    """Schedules one more action of its own, through the helper."""

    def _install(self, sim, rng):
        super()._install(sim, rng)
        self._schedule_at(250.0, self._note)

    def _note(self):
        """Nothing to do: the action only has to be scheduled."""


class SlowDeath(PermanentDeaths):
    """Draws its deaths from a mobility substream of its own making."""

    def _install(self, sim, rng):
        super()._install(sim, sim.streams.stream("mobility:slow"))


class MobilityVictims(SinkOutage):
    """Draws its victims from the sensors' mobility stream."""

    def _install(self, sim, rng):
        super()._install(sim, sim.streams.stream("mobility"))


class TestContractCheck:
    def test_default_priority_is_reported(self):
        assert contract_violations(DefaultPriorityDeaths) == [
            "schedule_at() at priority 0, not FAULT_PRIORITY"]

    def test_other_priority_is_reported(self):
        assert contract_violations(MobilityPriorityDeaths) == [
            "schedule_at() at priority -10, not FAULT_PRIORITY"]

    def test_actions_through_the_helper_are_clean(self):
        assert contract_violations(LateDeaths) == []

    def test_protocol_events_are_not_fault_actions(self):
        # The agents schedule hundreds of priority-0 events in the same
        # run; only callbacks bound to the model are fault actions.
        assert contract_violations(PermanentDeaths) == []

    def test_foreign_substream_is_reported(self):
        assert contract_violations(SlowDeath) == [
            "the run created substream 'mobility:slow'"]

    def test_draw_from_another_stream_is_reported(self):
        assert contract_violations(MobilityVictims) == [
            "arm() drew from 'mobility'"]


class DemoFault:
    pass


class Death(DemoFault):
    pass


class DemoSlowDeath(Death):
    pass


class Thing:
    pass


def test_fault_model_subclasses_are_walked_transitively():
    assert set(subclasses(DemoFault)) == {Death, DemoSlowDeath}
    assert set(subclasses(Death)) == {DemoSlowDeath}
    assert set(subclasses(Thing)) == set()


def test_indirect_fault_model_subclass_is_walked():
    # A model two levels below FaultModel is still checked.
    assert {SlowDeath, MobilityVictims} <= set(subclasses(FaultModel))
    assert SlowDeath not in FaultModel.__subclasses__()
