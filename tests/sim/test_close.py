"""Run lifetime in the kernel: Simulator.close() and stored failures."""

import gc

import pytest

from repro.sim import Simulator
from repro.trace import Tracer


def test_close_clears_the_agenda_cuts_live_processes_and_unbinds_the_tracer():
    sim = Simulator()
    Tracer().bind(sim)
    blocker = sim.event()

    def waiter():
        yield blocker

    def ticker():
        while True:
            yield sim.timeout(1.0)

    waiting = sim.process(waiter())
    ticking = sim.process(ticker())
    sim.run(until=2.5)
    sim.close()
    assert sim._agenda == [] and sim._live == set()
    assert sim.trace is None
    assert sim.now == 2.5 and sim.stats.events_processed > 0
    for proc in (waiting, ticking):
        assert proc._generator is None and proc._waiting_on is None
        assert proc._resume_cb is None and proc.callbacks == []


def test_a_process_leaves_the_live_set_when_it_ends():
    sim = Simulator()

    def ok():
        yield sim.timeout(1.0)

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("bad")

    a, b = sim.process(ok()), sim.process(bad())
    b.defused = True
    assert sim._live == {a, b}
    sim.run()
    assert sim._live == set()


def test_close_cuts_what_was_tracked_and_not_untracked():
    sim = Simulator()
    cut = []

    class Watcher:
        def __init__(self, name):
            self.name = name

        def _cut(self):
            cut.append(self.name)

    kept, released = Watcher("kept"), Watcher("released")
    sim.track(kept)
    sim.track(released)
    sim.untrack(released)
    sim.close()
    assert cut == ["kept"]


def _fail_in_helper():
    big = list(range(1000))
    raise ValueError(len(big))


def test_a_stored_failure_keeps_its_lines_but_not_its_locals():
    sim = Simulator()

    def body():
        local = object()
        yield sim.timeout(1.0)
        _fail_in_helper()
        return local

    proc = sim.process(body())
    proc.defused = True
    sim.run()
    entries = []
    tb = proc.value.__traceback__
    while tb is not None:
        entries.append((tb.tb_frame.f_code.co_name, tb.tb_frame.f_locals))
        tb = tb.tb_next
    # no Process._resume entry: its locals would hold the process
    assert [name for name, _locals in entries] == ["body", "_fail_in_helper"]
    assert all(frame_locals == {} for _name, frame_locals in entries)


def test_a_failure_leaves_the_frames_of_a_process_that_caught_it_alone():
    # The catcher's suspended frame joins the exception's traceback when
    # it catches; a later process failing with the same exception must
    # not clear that frame, which would finalize the catcher's generator.
    sim = Simulator()
    failed = sim.event()
    log = []

    def catcher():
        try:
            yield failed
        except ValueError:
            log.append(("caught", sim.now))
        yield sim.timeout(5.0)
        log.append(("done", sim.now))

    def repeater():
        yield sim.timeout(1.0)
        yield failed

    sim.process(catcher())
    sim.process(repeater()).defused = True
    failed.fail(ValueError("shared"))
    sim.run()
    assert log == [("caught", 0.0), ("done", 5.0)]


@pytest.mark.parametrize("finish", ["run", "close"])
def test_a_run_is_freed_without_the_collector(finish):
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        tracer = Tracer().bind(sim)
        failed = sim.event()

        def body(i):
            try:
                yield failed
            except ValueError:
                pass
            yield sim.timeout(float(i))
            raise KeyError(i)

        procs = [sim.process(body(i)) for i in range(4)]
        for proc in procs:
            proc.defused = True
        failed.fail(ValueError("x"))
        sim.run(until=None if finish == "run" else 2.5)
        sim.close()
        del sim, tracer, failed, procs, proc
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
