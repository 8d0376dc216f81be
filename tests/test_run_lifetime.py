"""A finished run frees itself by reference counting.

Each experiment builds a simulator, a grid and the components hanging off
them, runs, calls ``Simulator.close()`` and returns a report.  Nothing
of the run may outlive the call: a reference cycle (a subscription kept
past the end of what it watches, a suspended process, a stored
traceback) would leave the whole run for the cyclic collector, and
memory across a sweep would then follow the collector's timing.

Every case runs its experiment once to warm module caches up, then again
with the collector off.  After the second run no ``Simulator``,
``Host`` or ``Process`` may be left, a full collection must find
nothing unreachable, and the traced memory must be back within 0.05 MB
of where it started.  The memory is read after that collection, which
then only empties CPython's free lists.
"""

import gc
import tracemalloc

import pytest

from repro.apps.qr import QrBenchmark
from repro.appmanager import GradsEnvironment
from repro.experiments.eman_demo import run_eman_demo
from repro.experiments.fig3_qr import run_fig3
from repro.experiments.fig4_swap import run_fig4
from repro.experiments.metasched_stream import run_metasched
from repro.experiments.opportunistic import run_opportunistic
from repro.microgrid import Host, ScheduledLoad, fig3_testbed
from repro.sim import Process, Simulator
from repro.soak import run_scenario, sample_scenario
from repro.trace import Tracer

EXPERIMENTS = {
    # n=8000 migrates in the forced bar and asks the rescheduler in
    # the decision replay
    "fig3": lambda: run_fig3(sizes=(8000,), tracer=Tracer()),
    # 40 iterations reach the load, so the swap rescheduler swaps
    "fig4": lambda: run_fig4(n_iterations=40),
    "eman": lambda: run_eman_demo(classesbymra_tasks=8, classalign_tasks=4,
                                  n_random=1),
    "metasched": lambda: run_metasched(users=4, max_jobs=40),
    # host crashes, a swap lane and an SRS lane, traced
    "soak": lambda: run_scenario(sample_scenario(0, 20), tracer=Tracer()),
    # one opportunistic migration
    "opportunistic": lambda: run_opportunistic(),
}

MAX_LEFT_BYTES = 0.05e6


def run_instances():
    counts = {"Simulator": 0, "Host": 0, "Process": 0}
    for obj in gc.get_objects():
        for cls in (Simulator, Host, Process):
            if isinstance(obj, cls):
                counts[cls.__name__] += 1
    return counts


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_a_finished_run_leaves_nothing_for_the_collector(name):
    run = EXPERIMENTS[name]
    run()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        left_over = run_instances()
        unreachable = gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left_over == {"Simulator": 0, "Host": 0, "Process": 0}
    assert unreachable == 0
    assert left < MAX_LEFT_BYTES, f"{left / 1e6:.3f} MB left"


def start_managed_qr(n, mode="default", load_at=None):
    sim = Simulator()
    grid = fig3_testbed(sim)
    env = GradsEnvironment(sim, grid, submission_host="utk.n0")
    run, _monitor, _rescheduler = env.managed_qr(
        QrBenchmark(n=n, nb=200),
        initial_hosts=grid.clusters["utk"].host_names(),
        rescheduler_mode=mode, worst_case_migration_seconds=None)
    if load_at is not None:
        ScheduledLoad(host=grid.clusters["utk"][0], at=load_at,
                      nprocs=10).install(sim)
    return sim, run, run.start()


def test_a_qr_run_lets_go_of_its_monitor_when_it_ends():
    sim, run, done = start_managed_qr(2000)
    sim.run(stop_event=done)
    assert done.ok
    assert run.monitor is None


@pytest.mark.parametrize("phase", ["computing", "migrating"])
def test_close_cuts_a_qr_run_still_running(phase):
    if phase == "computing":
        sim, run, done = start_managed_qr(8000)
        sim.run(until=60.0)
    else:
        # the rescheduler's callback on the pending migration event
        # holds the rescheduler, which holds the run
        sim, run, done = start_managed_qr(8000, mode="force-migrate",
                                          load_at=30.0)
        sim.run(until=135.0)
        assert run._migration_done is not None
    assert not done.triggered and run.monitor is not None
    gc.collect()
    gc.disable()
    try:
        sim.close()
        assert run.monitor is None
        del sim, run, done
        left_over = run_instances()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert left_over == {"Simulator": 0, "Host": 0, "Process": 0}
    assert unreachable == 0
