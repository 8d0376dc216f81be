"""Benchmark: MicroGrid emulation validation.

"Grid computations can be successfully emulated by a controllable
testbed (i.e., the MicroGrid)" (§5), validated in the paper by running
"very similar experiments on the MacroGrid".  We reproduce that
validation in reverse: run the Figure 4 N-body swap scenario directly,
then on a 4x time-dilated emulation of the same virtual grid, rescale,
and check the timelines coincide.
"""

import pytest

from repro.sim import Simulator
from repro.microgrid import (
    ScheduledLoad,
    VirtualClock,
    dilated_grid,
    fig4_testbed,
)
from repro.nws import NetworkWeatherService
from repro.apps import NBodySimulation
from repro.rescheduling import SwapRescheduler
from repro.experiments import format_table

DILATION = 4.0


def run_swap_scenario(dilation: float = 1.0):
    """The Figure 4 run, on a direct or dilated grid.

    All wall-clock knobs (load time, sensor and swap periods) are
    expressed in virtual time and converted, exactly as a MicroGrid
    experiment description would be.
    """
    clock = VirtualClock(dilation)
    sim = Simulator()
    if dilation == 1.0:
        grid = fig4_testbed(sim)
    else:
        grid = dilated_grid(fig4_testbed, sim, dilation)
    nws = NetworkWeatherService(
        sim, grid, cpu_period=clock.to_emulation(5.0))
    pool = grid.clusters["utk"].hosts + grid.clusters["uiuc"].hosts
    app = NBodySimulation(sim, grid.topology, pool, active_n=3,
                          n_bodies=9000, n_iterations=60)
    ScheduledLoad(host=grid.clusters["utk"][0],
                  at=clock.to_emulation(80.0), nprocs=2).install(sim)
    SwapRescheduler(sim, app.job, nws, policy="gang",
                    period=clock.to_emulation(10.0),
                    improvement=1.1).start()
    done = app.launch()
    sim.run(stop_event=done)
    progress = [(clock.to_virtual(p.time), p.iteration)
                for p in app.progress]
    swaps = [clock.to_virtual(t)
             for t in (r.time for r in app.job.swap_log)]
    return {"progress": progress, "swaps": swaps,
            "finished": clock.to_virtual(sim.now)}


@pytest.fixture(scope="module")
def direct():
    return run_swap_scenario(dilation=1.0)


@pytest.fixture(scope="module")
def emulated():
    return run_swap_scenario(dilation=DILATION)


def test_bench_emulated_run(benchmark):
    result = benchmark.pedantic(
        lambda: run_swap_scenario(dilation=DILATION),
        rounds=1, iterations=1)
    assert result["progress"]


class TestEmulationValidation:
    def test_print_comparison(self, direct, emulated):
        rows = []
        for virt_t in (50.0, 100.0, 200.0, 300.0):
            d = max((i for t, i in direct["progress"] if t <= virt_t),
                    default=0)
            e = max((i for t, i in emulated["progress"] if t <= virt_t),
                    default=0)
            rows.append([virt_t, d, e])
        print()
        print(format_table(
            ["virtual time (s)", "direct iterations",
             f"emulated (x{DILATION:.0f}) iterations"], rows,
            title="MicroGrid validation: direct vs dilated emulation"))
        print(f"completion: direct {direct['finished']:.1f} s, "
              f"emulated {emulated['finished']:.1f} s (virtual)")

    def test_completion_times_match_after_rescaling(self, direct, emulated):
        assert emulated["finished"] == pytest.approx(direct["finished"],
                                                     rel=0.02)

    def test_progress_curves_coincide(self, direct, emulated):
        d = dict((i, t) for t, i in direct["progress"])
        e = dict((i, t) for t, i in emulated["progress"])
        for iteration in sorted(set(d) & set(e)):
            assert e[iteration] == pytest.approx(d[iteration], rel=0.02), \
                iteration

    def test_swap_times_match(self, direct, emulated):
        assert len(direct["swaps"]) == len(emulated["swaps"]) == 3
        for a, b in zip(direct["swaps"], emulated["swaps"]):
            assert b == pytest.approx(a, rel=0.05)
