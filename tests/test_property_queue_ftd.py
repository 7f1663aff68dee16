"""Property-based tests (Hypothesis) for the paper's core state machines.

Three structures carry the protocol's correctness burden and get
randomized coverage here:

* the FTD-sorted queue (Sec. 3.1.2) must preserve every structural
  invariant under arbitrary insert/pop/remove/reinsert sequences — we
  reuse the runtime checker's :func:`check_queue_invariants` as the
  oracle after every single operation;
* the FTD algebra (Eq. 2-3) must map probabilities to probabilities;
* the delivery-probability estimator (Eq. 1) must keep xi in [0, 1]
  under any interleaving of transmission updates and decay timeouts.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checks.invariants import check_queue_invariants
from repro.core.delivery import DeliveryProbabilityEstimator
from repro.core.ftd import (
    combined_delivery_probability,
    receiver_copy_ftd,
    sender_ftd_after_multicast,
)
from repro.core.message import DataMessage, MessageCopy, fresh_message_id
from repro.core.params import ProtocolParameters
from repro.core.queue import FtdQueue
from repro.des.scheduler import EventScheduler

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

#: One queue operation: ("insert", ftd) | ("pop",) | ("remove", idx) |
#: ("reinsert", ftd).  Indices/FTDs are reinterpreted against the live
#: queue state when the sequence is executed.
queue_op = st.one_of(
    st.tuples(st.just("insert"), probability),
    st.tuples(st.just("pop")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("reinsert"), probability),
)


#: Operations addressed by message id: ("insert", ftd) |
#: ("duplicate", idx, ftd) | ("pop",) | ("remove", idx) |
#: ("remove_absent", idx) | ("reinsert", ftd).  ``idx`` picks a buffered
#: copy (or, for "remove_absent", a once-seen id no longer buffered).
id_op = st.one_of(
    st.tuples(st.just("insert"), probability),
    st.tuples(st.just("duplicate"), st.integers(min_value=0, max_value=30),
              probability),
    st.tuples(st.just("pop")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("remove_absent"),
              st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("reinsert"), probability),
)


def fresh_copy(ftd):
    msg = DataMessage(fresh_message_id(), origin=0, created_at=0.0)
    return MessageCopy(msg, ftd=ftd)


class TestQueueProperties:
    @given(st.lists(queue_op, max_size=60),
           st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_any_operation_sequence_preserves_invariants(
            self, ops, capacity, drop_threshold):
        q = FtdQueue(capacity, drop_threshold=drop_threshold)
        for op in ops:
            if op[0] == "insert":
                q.insert(fresh_copy(op[1]))
            elif op[0] == "pop" and len(q):
                q.pop()
            elif op[0] == "remove" and len(q):
                target = list(q)[op[1] % len(q)].message_id
                q.remove(target)
            elif op[0] == "reinsert" and len(q):
                head = q.pop()
                # Eq. 3 only ever raises the sender's FTD.
                q.reinsert_with_ftd(head, min(1.0, head.ftd + op[1]))
            check_queue_invariants(q)

    @given(st.lists(queue_op, max_size=60),
           st.integers(min_value=1, max_value=6),
           st.lists(probability, max_size=4), st.data())
    @settings(max_examples=120, deadline=None)
    def test_buffer_queries_match_a_linear_scan(self, ops, capacity, probes,
                                                data):
        q = FtdQueue(capacity, drop_threshold=0.95)
        for op in ops:
            if op[0] == "insert":
                q.insert(fresh_copy(op[1]))
            elif op[0] == "pop" and len(q):
                q.pop()
            elif op[0] == "remove" and len(q):
                q.remove(list(q)[op[1] % len(q)].message_id)
            elif op[0] == "reinsert" and len(q):
                head = q.pop()
                q.reinsert_with_ftd(head, min(1.0, head.ftd + op[1]))
            # Probe the buffered FTDs themselves, where strict > and <
            # differ from their non-strict forms.
            ftds = [c.ftd for c in q]
            if ftds:
                probes = probes + [data.draw(st.sampled_from(ftds))]
            for f in probes:
                assert q.available_slots_for(f) == (
                    q.free_slots + sum(1 for c in ftds if c > f))
                assert q.count_more_important_than(f) == sum(
                    1 for c in ftds if c < f)

    @given(st.lists(id_op, max_size=60),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_id_queries_match_a_linear_scan(self, ops, capacity):
        q = FtdQueue(capacity, drop_threshold=0.95)
        seen = [-1]  # every id ever offered; -1 is never a message id
        for op in ops:
            before = list(q)
            if op[0] == "insert":
                c = fresh_copy(op[1])
                seen.append(c.message_id)
                q.insert(c)
            elif op[0] == "duplicate" and before:
                old = before[op[1] % len(before)]
                q.insert(MessageCopy(old.message, ftd=op[2], hops=1))
                # Merge-on-insert: one copy per id, at the smaller FTD
                # (an over-threshold duplicate is rejected outright).
                merged = old.ftd if op[2] >= 0.95 else min(old.ftd, op[2])
                assert len(q) == len(before)
                assert [c.ftd for c in q
                        if c.message_id == old.message_id] == [merged]
            elif op[0] == "pop" and before:
                assert q.pop() is before[0]
            elif op[0] == "remove" and before:
                target = before[op[1] % len(before)]
                assert q.remove(target.message_id) is target
                assert list(q) == [c for c in before if c is not target]
            elif op[0] == "remove_absent":
                buffered = {c.message_id for c in before}
                absent = [m for m in seen if m not in buffered]
                assert q.remove(absent[op[1] % len(absent)]) is None
                assert list(q) == before
            elif op[0] == "reinsert" and before:
                head = q.pop()
                q.reinsert_with_ftd(head, min(1.0, head.ftd + op[1]))
            scan = [c.message_id for c in q]
            assert len(set(scan)) == len(scan)
            for mid in seen:
                assert (mid in q) == (mid in scan)

    @given(st.lists(probability, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_head_is_always_a_minimum(self, ftds):
        q = FtdQueue(capacity=50)
        for ftd in ftds:
            q.insert(fresh_copy(ftd))
        if len(q):
            head = q.peek()
            assert all(head.ftd <= c.ftd for c in q)

    @given(st.lists(probability, min_size=2, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_equal_ftds_drain_in_fifo_order(self, ftds):
        q = FtdQueue(capacity=50)
        ids = []
        for _ in ftds:
            copy = fresh_copy(0.5)
            ids.append(copy.message_id)
            q.insert(copy)
        drained = [q.pop().message_id for _ in range(len(q))]
        assert drained == ids


class TestFtdAlgebraProperties:
    @given(probability, probability,
           st.lists(probability, min_size=1, max_size=6),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_receiver_ftd_is_a_probability(self, f, xi, xis, data):
        j = data.draw(st.integers(min_value=0, max_value=len(xis) - 1))
        out = receiver_copy_ftd(f, xi, xis, j)
        assert 0.0 <= out <= 1.0

    @given(probability, st.lists(probability, min_size=0, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_sender_ftd_is_a_probability_and_never_decreases(self, f, xis):
        out = sender_ftd_after_multicast(f, xis)
        assert 0.0 <= out <= 1.0
        # Multicasting only adds redundancy (Eq. 3 is monotone in F).
        assert out >= f - 1e-12

    @given(probability, st.lists(probability, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_combined_matches_closed_form(self, f, xis):
        # isclose, not ==: the implementation folds the product in a
        # different association order, so the last bit can differ (the
        # exact trap lint rule FLT001 exists for).
        expected = 1.0 - (1.0 - f) * math.prod(1.0 - x for x in xis)
        assert math.isclose(combined_delivery_probability(f, xis),
                            min(1.0, max(0.0, expected)),
                            rel_tol=1e-12, abs_tol=1e-12)


class TestDeliveryEstimatorProperties:
    @given(probability,
           st.lists(st.tuples(
               st.booleans(),
               st.lists(probability, min_size=1, max_size=4)),
               max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_xi_stays_in_unit_interval(self, initial, steps):
        params = ProtocolParameters()
        sched = EventScheduler()
        est = DeliveryProbabilityEstimator(params, sched, initial_xi=initial)
        est.start()
        for is_timeout, xis in steps:
            if is_timeout:
                # The Eq. 1 decay branch: Delta passes without a
                # transmission (the decay clock restarts at every step).
                sched.run_until(sched.now + params.xi_timeout_s)
            else:
                est.on_transmission(xis)
            assert 0.0 <= est.xi <= 1.0
        assert est.timeouts == sum(1 for is_timeout, _ in steps if is_timeout)

    @given(probability, st.lists(probability, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_sink_contact_pulls_xi_up(self, initial, xis):
        params = ProtocolParameters()
        est = DeliveryProbabilityEstimator(params, EventScheduler(),
                                           initial_xi=initial)
        before = est.xi
        est.on_transmission(list(xis) + [1.0])  # a sink acknowledged
        # The "best" rule folds in max xi = 1: xi' = xi + alpha*(1 - xi).
        # Strict increase only holds away from 1, where alpha*(1 - xi)
        # is still representable (at xi = 1 - ulp it rounds away).
        assert est.xi >= before
        if before < 0.999:
            assert est.xi > before
