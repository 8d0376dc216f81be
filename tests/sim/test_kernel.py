"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_caps_clock():
    sim = Simulator()
    sim.timeout(100.0)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_beyond_agenda_advances_clock():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run(until=50.0)
    assert sim.now == 50.0


def test_events_process_in_time_order():
    sim = Simulator()
    order = []
    for delay in (7.0, 1.0, 4.0):
        sim.call_after(delay, lambda d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 4.0, 7.0]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_after(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def proc():
        value = yield ev
        got.append(value)

    sim.process(proc())
    sim.call_after(2.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("nope"))


def test_event_value_unavailable_before_trigger():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_sleeps_and_resumes():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(3.0)
        trace.append(sim.now)
        yield sim.timeout(4.0)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 3.0, 7.0]


def test_process_return_value_is_event_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    results = []

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == ["done"]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    caught = []

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_raises_from_run():
    sim = Simulator()

    def broken():
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved crash")

    sim.process(broken())
    with pytest.raises(RuntimeError, match="unobserved crash"):
        sim.run()


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    with pytest.raises(SimulationError):
        sim.process(bad())
        sim.run()


def test_cross_simulator_event_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.timeout(1.0)

    def proc():
        yield foreign

    with pytest.raises(SimulationError):
        sim_a.process(proc())
        sim_a.run()


def test_allof_waits_for_every_child():
    sim = Simulator()
    done_at = []

    def proc():
        t1 = sim.timeout(2.0, value="a")
        t2 = sim.timeout(5.0, value="b")
        values = yield AllOf(sim, [t1, t2])
        done_at.append(sim.now)
        assert sorted(values.values()) == ["a", "b"]

    sim.process(proc())
    sim.run()
    assert done_at == [5.0]


def test_empty_allof_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered
    assert cond.value == {}


def test_allof_fails_if_child_fails():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise KeyError("child")

    caught = []

    def parent():
        try:
            yield AllOf(sim, [sim.process(failing()), sim.timeout(9.0)])
        except KeyError:
            caught.append(sim.now)

    sim.process(parent())
    sim.run()
    assert caught == [1.0]


def test_interrupt_raises_inside_process():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.process(worker())
    sim.call_after(10.0, lambda: proc.interrupt("load spike"))
    sim.run()
    assert log == [("interrupted", 10.0, "load spike")]


def test_interrupting_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_detaches_from_event():
    """After an interrupt, the original event must not resume the process."""
    sim = Simulator()
    resumes = []

    def worker():
        try:
            yield sim.timeout(5.0)
            resumes.append("timeout")
        except Interrupt:
            yield sim.timeout(100.0)
            resumes.append("after-interrupt")

    proc = sim.process(worker())
    sim.call_after(1.0, lambda: proc.interrupt())
    sim.run()
    assert resumes == ["after-interrupt"]
    assert sim.now == 101.0


def test_interrupt_unhooks_the_stored_resume_callback():
    """An interrupt removes the process's callback from the event it was
    blocked on, so triggering that event later resumes nothing."""
    sim = Simulator()
    gate = sim.event()
    log = []

    def worker():
        try:
            yield gate
            log.append("gate")
        except Interrupt:
            log.append(("interrupted", sim.now))
            yield sim.timeout(10.0)
            log.append(("done", sim.now))

    proc = sim.process(worker())
    sim.call_at(1.0, proc.interrupt)
    sim.run(until=2.0)
    assert gate.callbacks == []
    gate.succeed("late")
    sim.run()
    assert log == [("interrupted", 1.0), ("done", 11.0)]
    assert proc.ok


def test_yielding_a_processed_event_resumes_synchronously():
    """A process that yields an already-processed event continues in
    the same callback: no agenda entry, and before a process spawned
    after it gets to run."""
    sim = Simulator()
    done = sim.timeout(0.0, value="v")
    sim.run()
    before = sim.stats.events_processed
    log = []

    def first():
        value = yield done
        log.append(("first", value))
        value = yield done
        log.append(("first-again", value))

    def second():
        log.append("second")
        yield sim.timeout(0.0)

    sim.process(first())
    sim.process(second())
    sim.run()
    assert log == [("first", "v"), ("first-again", "v"), "second"]
    # two start-ups, two process completions and second's timeout
    assert sim.stats.events_processed - before == 5


@pytest.mark.parametrize("processed_first", [False, True])
def test_failed_event_delivered_into_process_is_defused(processed_first):
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    if processed_first:
        ev.fail(ValueError("boom"))
        sim.run()
        assert not ev.defused
    sim.process(waiter())
    if not processed_first:
        sim.call_at(1.0, lambda: ev.fail(ValueError("boom")))
    sim.run()
    assert caught == ["boom"]
    assert ev.defused


def test_two_processes_on_one_event_resume_in_order():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(label):
        value = yield gate
        log.append((label, value, sim.now))

    sim.process(waiter("a"))
    sim.process(waiter("b"))
    sim.call_at(3.0, lambda: gate.succeed("open"))
    sim.run()
    assert log == [("a", "open", 3.0), ("b", "open", 3.0)]


def test_kill_blocked_process_fails_defused():
    """A killed process fails with Interrupt, pre-defused, so run()
    does not raise for the missing waiter."""
    sim = Simulator()

    def worker():
        yield sim.timeout(10.0)

    proc = sim.process(worker())
    sim.call_at(3.0, proc.kill)
    sim.run()  # must not raise
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, Interrupt)
    assert proc.value.cause == "killed"
    assert proc.defused
    assert not proc.is_alive


def test_killed_process_is_not_resumed_by_its_timeout():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(10.0)
            log.append(("resumed", sim.now))
        except Interrupt:
            log.append(("killed", sim.now))
            raise
        log.append(("after", sim.now))

    proc = sim.process(worker())
    sim.call_at(3.0, proc.kill)
    sim.run()
    # the timeout still fires at t=10 (the clock reaches it) but the
    # detached process never runs again
    assert sim.now == 10.0
    assert log == [("killed", 3.0)]
    assert isinstance(proc.value, Interrupt)


def test_kill_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(quick())
    sim.run()
    proc.kill()  # no error, unlike interrupt()
    sim.run()
    assert proc.ok and proc.value == "done"
    assert not proc.defused


def test_stop_event_ends_run_with_value():
    sim = Simulator()
    stop = sim.event()
    sim.call_after(3.0, lambda: stop.succeed("halt"))
    sim.timeout(1000.0)
    result = sim.run(stop_event=stop)
    assert result == "halt"
    assert sim.now == 3.0


def test_stop_event_detached_when_until_exits_first():
    """Regression: run(until=...) must remove _stop_callback on exit.

    A lingering callback made a later trigger of the old stop event
    raise StopSimulation into a run() that passed no stop_event,
    crashing on its `assert stop_event is not None`.
    """
    sim = Simulator()
    stop = sim.event()
    sim.timeout(100.0)
    sim.run(until=1.0, stop_event=stop)  # exits via the until path
    stop.succeed("late")
    sim.timeout(5.0)
    sim.run()  # must not raise; drains the leftover t=100 timeout too
    assert sim.now == 100.0


def test_stop_event_detached_when_agenda_drains():
    sim = Simulator()
    stop = sim.event()
    sim.timeout(1.0)
    sim.run(stop_event=stop)  # exits because the agenda drained
    stop.succeed("late")
    sim.timeout(2.0)
    sim.run()  # must not raise
    assert stop.value == "late"


def test_stop_event_reusable_across_runs_until():
    """The same stop event can arm consecutive bounded runs."""
    sim = Simulator()
    stop = sim.event()
    sim.timeout(100.0)
    sim.run(until=1.0, stop_event=stop)
    sim.run(until=2.0, stop_event=stop)
    sim.call_after(0.5, lambda: stop.succeed("now"))
    assert sim.run(stop_event=stop) == "now"
    assert sim.now == 2.5


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.timeout(float(i))
    sim.run()
    assert sim.stats.events_processed == 5


def test_same_time_batch_preserves_until_semantics():
    """Events exactly at `until` still run; later ones do not."""
    sim = Simulator()
    hits = []
    for _ in range(3):
        sim.call_after(1.0, lambda: hits.append(sim.now))
    sim.call_after(1.5, lambda: hits.append(sim.now))
    sim.run(until=1.0)
    assert hits == [1.0, 1.0, 1.0]
    assert sim.now == 1.0


def test_call_at_schedules_absolute_time():
    sim = Simulator()
    hits = []
    sim.call_at(12.5, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [12.5]


def test_call_at_in_past_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(5.0, lambda: None)


def test_add_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.timeout(1.0, value="v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf():
        yield sim.timeout(1.0)
        return 1

    def mid():
        v = yield sim.process(leaf())
        yield sim.timeout(1.0)
        return v + 1

    def root():
        v = yield sim.process(mid())
        return v + 1

    proc = sim.process(root())
    sim.run()
    assert proc.value == 3
    assert sim.now == 2.0


def test_many_processes_scale():
    sim = Simulator()
    counter = []

    def proc(i):
        yield sim.timeout(float(i % 17))
        counter.append(i)

    for i in range(500):
        sim.process(proc(i))
    sim.run()
    assert len(counter) == 500
