"""Bare-callable heap entries (``Simulator.call_at``) beside events."""

import pytest

from repro.sim import SimulationError, Simulator


def test_call_at_fires_fifo_with_events_timeouts_and_pinned_ranks():
    sim = Simulator()
    order = []

    def note(tag):
        return lambda *_: order.append(tag)

    pinned = sim.claim_seq()  # claimed first: lowest rank at t=1
    manual = sim.event()
    manual.callbacks.append(note("event"))

    def first_call():
        order.append("call-1")
        manual.succeed()  # ranks after everything scheduled so far
        sim.call_at(sim.now, note("nested-call"))

    sim.timeout(1.0).callbacks.append(note("timeout"))
    sim.call_at(1.0, first_call)
    sim.at(1.0).callbacks.append(note("at"))
    sim.call_at(1.0, note("call-2"))
    sim.at(1.0, seq=pinned).callbacks.append(note("pinned-at"))
    sim.run()
    assert order == [
        "pinned-at", "timeout", "call-1", "at", "call-2", "event", "nested-call",
    ]
    assert sim.now == 1.0


def test_call_at_in_the_past_raises_like_at():
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.at(1.0)
    fired = []
    sim.call_at(2.0, lambda: fired.append(sim.now))  # now itself is fine
    sim.run()
    assert fired == [2.0]


def test_periodic_retires_when_only_entry_left_after_calls():
    sim = Simulator()
    ticks = []
    periodic = sim.every(1.0, ticks.append)
    sim.call_at(2.5, lambda: None)
    sim.run()
    assert ticks == [1.0, 2.0]
    assert not periodic.running


def test_step_and_peek_walk_callable_entries():
    sim = Simulator()
    fired = []
    sim.call_at(3.0, lambda: fired.append(("b", sim.now)))
    sim.call_at(1.5, lambda: fired.append(("a", sim.now)))
    assert sim.peek() == 1.5
    sim.step()
    assert fired == [("a", 1.5)] and sim.now == 1.5
    assert sim.peek() == 3.0
    sim.step()
    assert fired == [("a", 1.5), ("b", 3.0)]
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_run_until_leaves_later_calls_queued():
    sim = Simulator()
    fired = []
    for when in (1.0, 2.0, 3.0):
        sim.call_at(when, lambda when=when: fired.append(when))
    sim.run(until=2.0)
    assert fired == [1.0, 2.0] and sim.now == 2.0
    sim.run(until=2.5)
    assert fired == [1.0, 2.0] and sim.now == 2.5
    sim.run()
    assert fired == [1.0, 2.0, 3.0] and sim.now == 3.0


def test_run_until_complete_with_callable_entries():
    sim = Simulator()
    wake = sim.event()
    sim.call_at(4.0, lambda: wake.succeed("woken"))

    def sleeper():
        value = yield wake
        return (value, sim.now)

    assert sim.run_until_complete(sim.process(sleeper())) == ("woken", 4.0)


def test_run_until_complete_stall_detection_sees_through_calls():
    sim = Simulator()
    fired = []
    for when in (1.0, 2.0):
        sim.call_at(when, lambda when=when: fired.append(when))

    def stuck():
        yield sim.event()  # nothing ever triggers it

    with pytest.raises(SimulationError, match="stalled"):
        sim.run_until_complete(sim.process(stuck()))
    assert fired == [1.0, 2.0] and sim.now == 2.0

    sim.call_at(10.0, lambda: fired.append(10.0))
    with pytest.raises(SimulationError, match="stalled"):
        sim.run_until_complete(sim.process(stuck()), limit=5.0)
    assert fired == [1.0, 2.0]
