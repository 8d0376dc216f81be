"""Figure 4 — N-body progress under process-swap rescheduling.

The §4.2 MicroGrid experiment: an N-body simulation runs its three
active processes on the UTK cluster of the emulated grid, with three
idle UIUC machines in the inactive set and the contract-monitor
infrastructure on the lone UCSD node.  At virtual time 80 s, two
competitive processes land on one UTK machine; the swap rescheduler
detects the slowdown and moves the work to UIUC (the paper observes
all three processes migrated by ~150 s); application progress —
iteration number against time — dips and then recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..apps.nbody import NBodySimulation, ProgressPoint
from ..microgrid.loadgen import ScheduledLoad
from ..microgrid.testbed import fig4_testbed
from ..nws.service import NetworkWeatherService
from ..rescheduling.swapping import SwapRescheduler
from ..sim.kernel import Simulator
from .common import format_series

__all__ = ["Fig4Result", "run_fig4"]

LOAD_AT_SECONDS = 80.0
LOAD_PROCS = 2


@dataclass
class Fig4Result:
    """The progress curve plus swap telemetry."""

    progress: List[ProgressPoint] = field(default_factory=list)
    swap_times: List[float] = field(default_factory=list)
    swapped_to: List[str] = field(default_factory=list)
    finished_at: float = 0.0
    policy: str = "gang"
    #: kernel/substrate perf counters for the run (sim.stats snapshot)
    stats: dict = field(default_factory=dict)

    def iterations_by(self, time: float) -> int:
        """Iterations completed by a given virtual time."""
        done = 0
        for point in self.progress:
            if point.time <= time:
                done = point.iteration
        return done

    def rate_between(self, t0: float, t1: float) -> float:
        """Average iterations/second over a window."""
        if t1 <= t0:
            raise ValueError("empty window")
        return (self.iterations_by(t1) - self.iterations_by(t0)) / (t1 - t0)

    def all_swaps_done_by(self) -> Optional[float]:
        return max(self.swap_times) if self.swap_times else None

    def to_series(self) -> str:
        return format_series(
            [(p.time, p.iteration) for p in self.progress],
            x_label="time (s)", y_label="iteration",
            title="Figure 4: emulated application progress")


def run_fig4(n_bodies: int = 9000, n_iterations: int = 120,
             policy: str = "gang", with_swapping: bool = True,
             load_at: float = LOAD_AT_SECONDS,
             load_procs: int = LOAD_PROCS,
             improvement: float = 1.1,
             seed: int = 0,
             tracer=None) -> Fig4Result:
    """Run the Figure 4 scenario; disable swapping for the baseline.

    ``tracer`` (a :class:`repro.trace.Tracer`) records the run's event
    timeline; the CLI's ``fig4 --trace PATH`` exports it.  ``seed``
    follows the repo-wide experiment convention (see DESIGN.md §9.5):
    it is recorded in the meta trace, and any driver randomness must be
    drawn from ``RngRegistry(seed)`` (this scenario is scripted, so the
    seed currently only labels the run).
    """
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
        tracer.instant("meta", "run", experiment="fig4", policy=policy,
                       iterations=n_iterations, swapping=with_swapping,
                       seed=seed)
    grid = fig4_testbed(sim)
    nws = NetworkWeatherService(sim, grid, cpu_period=5.0,
                                deploy_network_sensors=False)
    pool = grid.clusters["utk"].hosts + grid.clusters["uiuc"].hosts
    app = NBodySimulation(sim, grid.topology, pool, active_n=3,
                          n_bodies=n_bodies, n_iterations=n_iterations)
    ScheduledLoad(host=grid.clusters["utk"][0], at=load_at,
                  nprocs=load_procs).install(sim)
    if with_swapping:
        rescheduler = SwapRescheduler(sim, app.job, nws, policy=policy,
                                      improvement=improvement)
        rescheduler.start()
    done = app.launch()
    sim.run(stop_event=done)
    return Fig4Result(
        progress=list(app.progress),
        swap_times=[record.time for record in app.job.swap_log],
        swapped_to=[record.new_host for record in app.job.swap_log],
        finished_at=sim.now,
        policy=policy if with_swapping else "none",
        stats=sim.stats.snapshot())
