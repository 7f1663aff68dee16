"""Order of work at the end of a frame.

When a frame's airtime is over, every radio in its audience is served
first (``deliver`` or ``notify_collision``), with the sender still
TRANSMITTING; then the sender returns to LISTENING and its ``on_done``
runs.  Anything a receiver schedules with zero delay runs after that.
The MAC relies on this order, and the seeded results pin it.
"""

from repro import Simulation, SimulationConfig
from repro.radio import Preamble, RadioState

from tests.test_radio_medium import build

# a and d are hidden from each other; b hears both, c hears only a.
A, D, B, C = (0.0, 0.0), (12.0, 0.0), (6.0, 0.0), (0.0, 5.0)


def _hidden_terminal():
    sched, medium, (a, d, b, c) = build([A, D, B, C])
    log = []
    b.on_collision = lambda f: log.append(("collision", "b", f.src, a.state))
    c.on_frame = lambda f: log.append(("deliver", "c", f.src, a.state))
    return sched, medium, (a, d, b, c), log


def test_audience_is_served_before_the_senders_on_done():
    sched, medium, (a, d, b, c), log = _hidden_terminal()
    a.transmit(Preamble(0), on_done=lambda: log.append(
        ("on_done", "a", 0, a.state)))
    sched.schedule(0.001, d.transmit, Preamble(1))
    sched.run_until(1.0)
    a_frame = [entry for entry in log if entry[2] == 0]
    assert [entry[:2] for entry in a_frame] == [
        ("collision", "b"), ("deliver", "c"), ("on_done", "a")]
    # The sender is still on air while its audience is served ...
    assert [entry[3] for entry in a_frame[:2]] == [RadioState.TRANSMITTING] * 2
    # ... and listening again by the time its on_done runs.
    assert a_frame[2][3] is RadioState.LISTENING
    # b lost both frames; c decoded a's.
    assert medium.stats.frames_corrupted == 2
    assert medium.stats.frames_delivered == 1


def test_zero_delay_event_of_a_receiver_runs_after_on_done():
    sched, medium, (a, d, b, c), log = _hidden_terminal()
    c.on_frame = lambda f: sched.schedule(
        0.0, lambda: log.append(("receiver-event", sched.now)))
    a.transmit(Preamble(0),
               on_done=lambda: log.append(("on_done", sched.now)))
    sched.run_until(1.0)
    assert [entry[0] for entry in log] == ["on_done", "receiver-event"]
    assert log[0][1] == log[1][1]  # the same instant


def test_sender_failing_mid_frame_ends_the_frame_radio_off():
    sim = Simulation(SimulationConfig(protocol="nosleep", duration_s=200.0,
                                      seed=3, n_sensors=12, n_sinks=1))
    sim.mobility.start()
    for node in sim.sinks + sim.sensors:
        node.start()
    sched = sim.scheduler
    victim = None
    while victim is None and sched.now < 200.0:
        assert sched.step()
        victim = next((s for s in sim.sensors
                       if s.radio.state is RadioState.TRANSMITTING), None)
    assert victim is not None, "no sensor transmitted"
    agent = victim.agent
    agent.fail(permanent=True)
    assert victim.radio.state is RadioState.TRANSMITTING  # frame goes on
    # Past the deferred radio-off (one DATA airtime after the failure).
    sched.run_until(sched.now + 2 * sim.timing.data_airtime_s)
    assert victim.radio.state is RadioState.SLEEPING
    sent = victim.radio.frames_sent
    sched.run_until(sched.now + 20.0)
    assert victim.radio.state is RadioState.SLEEPING
    assert victim.radio.frames_sent == sent


def test_one_transmit_schedules_one_event_plus_lpl_wakes():
    sched, medium, (a, d, b, c) = build([A, D, B, C])
    before = sched.pending
    a.transmit(Preamble(0))
    assert sched.pending == before + 1  # the end of the frame, nothing else
    sched.run_until(1.0)
    # A sleeper whose next channel sample falls inside a preamble gets
    # its wake scheduled too, and that is the only other entry.
    c.lpl_sample_interval_s = 0.01
    c.sleep()
    before = sched.pending
    a.transmit(Preamble(0, duration_bits=10_000))
    assert sched.pending == before + 2
    sched.run_until(2.0)
    assert c.lpl_wakes == 1
