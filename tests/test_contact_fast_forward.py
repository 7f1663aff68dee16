"""The exchange loop's fast-forward of repeated refusals is exact.

``ContactSimulation._on_contact_end`` skips refusal cycles that provably
repeat (see the ``repro.contact.simulator`` docstring).  This module
keeps the loop as it was before the skip, as :class:`ReferenceSimulation`,
and asserts that both leave identical state behind on randomized
configurations and contact plans: every result field, every delay, and
every node's queue ledger, transfer counters, buffer and xi state.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.data.regen_contact_goldens import contact_state

from repro.contact.detector import Contact
from repro.contact.policies import LazyXiEstimator
from repro.contact.simulator import ContactSimConfig, ContactSimulation
from repro.protocols.fad import FadPolicy
from repro.scenario.registry import get_scenario, scenario_contact_config
from repro.scenario.spec import ScenarioSpec


class ReferenceSimulation(ContactSimulation):
    """The exchange loop without the fast-forward: every cycle runs."""

    def _on_contact_end(self, a: int, b: int, start: float, end: float,
                        rate_bps: Optional[float] = None) -> None:
        contact = Contact(a, b, start, end)
        budget = self._contact_capacity(contact, rate_bps)
        if budget <= 0:
            return
        pa, pb = self.policies[a], self.policies[b]
        slot = contact.duration / max(budget, 1)
        used = 0
        stalled = 0
        direction = 0
        while used < budget and stalled < 2:
            src, dst = (pa, pb) if direction == 0 else (pb, pa)
            direction ^= 1
            copy = src.wants_to_send(dst, start + used * slot)
            if copy is None:
                stalled += 1
                continue
            floor = max(copy.message.created_at, copy.received_at)
            if floor > end:
                stalled += 1
                continue
            stalled = 0
            when = max(start + (used + 0.5) * slot, floor)
            if when > end:
                when = end
            stored = dst.accept(copy, src, when)
            used += 1
            if stored is None:
                continue
            src.after_transfer(copy, dst, when)
            self.transfers += 1
            if dst.is_sink:
                self.collector.record_delivery(copy, dst.node_id, when)
        if used:
            self.usable_contacts += 1


def run_both(config):
    """(shipped, reference) end states of one config."""
    states = []
    for cls in (ContactSimulation, ReferenceSimulation):
        sim = cls(config)
        states.append(contact_state(sim, sim.run()))
    return states


def assert_same_state(config):
    shipped, reference = run_both(config)
    assert shipped["result"] == reference["result"]
    assert shipped["delays"] == reference["delays"]
    assert shipped["nodes"] == reference["nodes"]


class TestEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           duration_s=st.floats(min_value=50.0, max_value=400.0),
           n_sensors=st.integers(min_value=2, max_value=40),
           queue_capacity=st.integers(min_value=1, max_value=60),
           mac_efficiency=st.floats(min_value=0.05, max_value=1.0),
           bandwidth_bps=st.floats(min_value=500.0, max_value=50_000.0))
    @settings(max_examples=25, deadline=None)
    def test_geometric_runs_match_the_reference_loop(
            self, seed, duration_s, n_sensors, queue_capacity,
            mac_efficiency, bandwidth_bps):
        assert_same_state(ContactSimConfig(
            policy="fad", seed=seed, duration_s=duration_s,
            n_sensors=n_sensors, queue_capacity=queue_capacity,
            mac_efficiency=mac_efficiency, bandwidth_bps=bandwidth_bps,
            mean_arrival_s=40.0))

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_sensors=st.integers(min_value=2, max_value=5),
           windows=st.lists(st.tuples(
               st.floats(min_value=0.01, max_value=100.0),
               st.floats(min_value=0.05, max_value=150.0),
               st.integers(min_value=0, max_value=5),
               st.integers(min_value=1, max_value=5),
               st.sampled_from([300.0, 2_000.0, 10_000.0, 40_000.0])),
               min_size=1, max_size=30),
           queue_capacity=st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_plan_replays_match_the_reference_loop(
            self, seed, n_sensors, windows, queue_capacity):
        # Windows with fractional ends and several rates, so transfer
        # instants hit the creation floor and the end-of-window cap.
        # Each pair's windows follow one another after a gap, as a plan
        # may not overlap two windows of one pair.
        n_nodes = n_sensors + 1
        pair_end = {}
        lines = []
        for gap, length, a, offset, rate in windows:
            a %= n_nodes
            b = (a + offset % (n_nodes - 1) + 1) % n_nodes
            pair = (min(a, b), max(a, b))
            start = pair_end.get(pair, 0.0) + gap
            pair_end[pair] = end = start + length
            lines.append(f"a contact +{start!r} +{end!r} {a} {b} {rate!r}")
        spec = ScenarioSpec(name="random-plan", mobility="plan",
                            n_sensors=n_sensors, n_sinks=1,
                            plan="\n".join(lines) + "\n")
        assert_same_state(scenario_contact_config(
            spec, policy="fad", seed=seed, duration_s=500.0,
            mean_arrival_s=15.0, queue_capacity=queue_capacity))

    def test_satellite_pass_matches_the_reference_loop(self):
        assert_same_state(scenario_contact_config(
            get_scenario("satellite-pass"), policy="fad", seed=3,
            duration_s=3000.0))

    def test_fast_forward_skips_most_refusals(self, monkeypatch):
        # The paper topology refuses ~97 % of FAD offers at threshold;
        # the skip must actually fire, not just stay exact.
        config = ContactSimConfig(policy="fad", seed=1000, duration_s=300.0)
        calls = []
        original = FadPolicy.accept

        def counted(policy, *args):
            calls.append(policy.node_id)
            return original(policy, *args)

        monkeypatch.setattr(FadPolicy, "accept", counted)
        counts = []
        for cls in (ContactSimulation, ReferenceSimulation):
            calls.clear()
            cls(config).run()
            counts.append(len(calls))
        shipped, reference = counts
        assert shipped * 4 < reference


class TestSteadyAt:
    @given(alpha=st.floats(min_value=0.0, max_value=1.0),
           timeout_s=st.floats(min_value=0.01, max_value=1_000.0),
           updates=st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=10_000.0),
               st.floats(min_value=0.0, max_value=1.0)), max_size=8),
           probe=st.floats(min_value=0.0, max_value=20_000.0))
    @settings(max_examples=300, deadline=None)
    def test_steady_iff_a_read_leaves_the_state_unchanged(
            self, alpha, timeout_s, updates, probe):
        est = LazyXiEstimator(alpha, timeout_s)
        for now, receiver_xi in updates:
            est.on_transmission(receiver_xi, now)
        before = (est._xi, est._last_event)
        steady = est.steady_at(probe)
        est.xi(probe)
        assert steady == ((est._xi, est._last_event) == before)

    @given(timeout_s=st.floats(min_value=0.01, max_value=1_000.0),
           last=st.floats(min_value=0.0, max_value=10_000.0),
           early=st.floats(min_value=0.0, max_value=20_000.0),
           late=st.floats(min_value=0.0, max_value=20_000.0))
    @settings(max_examples=300, deadline=None)
    def test_steadiness_is_monotone_in_time(self, timeout_s, last, early,
                                            late):
        est = LazyXiEstimator(0.3, timeout_s)
        est.on_transmission(0.5, last)
        early, late = sorted((early, late))
        if est.steady_at(late):
            assert est.steady_at(early)

    def test_only_fad_opts_in(self):
        from repro.contact.policies import ContactPolicy
        from repro.protocols.registry import contact_policy_names, get_protocol

        for name in contact_policy_names():
            cls = get_protocol(name).policy_class
            overrides = cls.steady_at is not ContactPolicy.steady_at
            assert overrides == (cls is FadPolicy), name
