"""Execute one soak scenario and audit it.

:func:`run_scenario` materializes a :class:`ScenarioSpec` onto the
Figure 3 testbed: the metascheduler serves the sampled job stream
while host crashes, load bursts, topology churn, an optional
swap-rescheduled N-body run and an optional SRS-checkpointed QR run all
happen on the same simulator.  Checkpoint auditors run between time
slices; final auditors run once every lane has quiesced.

Lane failures are *data*, not crashes: every lane-completion event
gets a defusing callback, so an application legitimately killed by a
fault is recorded in the lane status instead of aborting the run.
Anything that still escapes ``sim.run`` (an exception raised from a
kernel callback, say) is caught by the slice loop and reported through
the ``unhandled-error`` invariant — that is precisely the class of bug
this harness exists to flush out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..appmanager.manager import GradsEnvironment
from ..apps.nbody import NBodySimulation
from ..apps.qr import QrBenchmark
from ..gis.directory import GridInformationService
from ..metasched import MetaScheduler
from ..metasched.jobs import JobSpec
from ..microgrid.failures import ScheduledFailure
from ..microgrid.loadgen import ScheduledLoad
from ..nws.service import NetworkWeatherService
from ..microgrid.testbed import fig3_testbed
from ..rescheduling.swapping import SwapRescheduler
from ..sim import Simulator
from ..sim.stats import DIAGNOSTIC_COUNTERS
from ..trace.tracer import Tracer
from .invariants import (Violation, run_checkpoint_auditors,
                         run_final_auditors)
from .scenario import SUBMISSION_HOST, ScenarioSpec

__all__ = ["ScenarioOutcome", "SoakContext", "run_scenario",
           "run_with_checks"]

#: extra virtual time past ``spec.duration`` before giving up on quiesce
_DEADLINE_SLACK = 4000.0

#: stop collecting after this many escaped exceptions (a broken
#: callback can re-raise on every subsequent event)
_MAX_CAUGHT_ERRORS = 50

class LaneWatch:
    """Observes a lane's completion events, defusing failures."""

    def __init__(self, events) -> None:
        self.events = list(events)
        self.failures: List[str] = []
        for ev in self.events:
            ev.add_callback(self._note)

    def _note(self, ev) -> None:
        if not ev.ok:
            ev.defused = True
            self.failures.append(f"{type(ev.value).__name__}: {ev.value}")

    @property
    def complete(self) -> bool:
        return all(ev.triggered for ev in self.events)

    @property
    def status(self) -> str:
        if not self.events:
            return "absent"
        if not self.complete:
            return "unfinished"
        if self.failures:
            return "failed: " + self.failures[0]
        return "ok"


class SwapLane:
    """An N-body run over an over-provisioned pool with a swap daemon."""

    def __init__(self, sim: Simulator, grid, nws, cfg: dict) -> None:
        self.sim = sim
        # Active set starts on the slow PII-450s with the faster 2-core
        # PIII-933s idle in the inactive set, so every swap scenario
        # produces real swap decisions and cross-site state transfers
        # (not just a daemon that never finds an improvement).
        pool = (grid.clusters["uiuc"].hosts[5:]
                + grid.clusters["utk"].hosts[1:]
                + grid.clusters["uiuc"].hosts[4:5])
        self.app = NBodySimulation(sim, grid.topology, pool, active_n=3,
                                   n_bodies=cfg["n_bodies"],
                                   n_iterations=cfg["n_iterations"])
        self.rescheduler = SwapRescheduler(sim, self.app.job, nws,
                                           policy=cfg["policy"],
                                           period=cfg["period"],
                                           improvement=cfg["improvement"])
        self.rescheduler.start()
        self.stop_at = cfg.get("stop_at")
        self.stopped_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        if self.stop_at is not None:
            sim.call_at(self.stop_at, self._stop)
        self.done = self.app.launch()
        self.done.add_callback(self._finished)

    def _stop(self) -> None:
        if self.stopped_at is None and self.finished_at is None:
            self.stopped_at = self.sim.now
            self.rescheduler.stop()

    def _finished(self, _ev) -> None:
        self.finished_at = self.sim.now
        self.rescheduler.stop()


class SrsLane:
    """A managed SRS-checkpointed QR run on the same grid.

    ``cfg["mode"]`` (optional) is the rescheduler mode; the optional
    ``cfg["expect"]`` floors are checked by the ``srs-hygiene`` auditor.
    """

    def __init__(self, sim: Simulator, grid, cfg: dict) -> None:
        env = GradsEnvironment(sim, grid, submission_host=SUBMISSION_HOST)
        initial = grid.clusters["utk"].host_names()[:3]
        run, monitor, rescheduler = env.managed_qr(
            QrBenchmark(n=cfg["n"], nb=200),
            initial_hosts=initial,
            rescheduler_mode=cfg.get("mode", "default"),
            checkpoint_every=cfg["checkpoint_every"],
            stable_storage=True,
            migration_timeout_seconds=600.0,
            blacklist_seconds=600.0)
        self.run = run
        self.monitor = monitor
        self.rescheduler = rescheduler
        self.done = run.start()


@dataclass
class SoakContext:
    """Everything the invariant auditors may inspect."""

    spec: ScenarioSpec
    sim: Simulator
    grid: object
    topology: object
    service: MetaScheduler
    lanes: Dict[str, LaneWatch]
    swap_lane: Optional[SwapLane] = None
    srs_lane: Optional[SrsLane] = None
    tracer: object = None
    errors: List[str] = field(default_factory=list)
    quiesced: bool = False


@dataclass
class ScenarioOutcome:
    """One executed scenario, reduced to plain data."""

    spec: ScenarioSpec
    finished_at: float
    quiesced: bool
    lanes: Dict[str, str]
    violations: List[Violation]
    jobs: List[dict]
    counters: Dict[str, float]

    def report(self) -> dict:
        """Deterministic scenario report."""
        return {
            "index": self.spec.index,
            "seed": self.spec.seed,
            "duration": self.spec.duration,
            "finished_at": round(self.finished_at, 9),
            "quiesced": self.quiesced,
            "lanes": self.lanes,
            "jobs": self.jobs,
            "counters": self.counters,
            "violations": [v.to_dict() for v in self.violations],
        }


def _apply_link(topology, op: dict) -> None:
    """Apply one topology-churn operation (idempotent on replay)."""
    if op["via"]:
        if not topology.has_node(op["via"]):
            topology.add_node(op["via"])
        topology.add_link(op["a"], op["via"],
                          bandwidth=op["bandwidth"],
                          latency=op["latency"] / 2.0)
        topology.add_link(op["via"], op["b"],
                          bandwidth=op["bandwidth"],
                          latency=op["latency"] / 2.0)
    else:
        topology.add_link(op["a"], op["b"],
                          bandwidth=op["bandwidth"],
                          latency=op["latency"])


def _horizon(spec: ScenarioSpec) -> float:
    """Earliest time by which every scheduled disturbance has played
    out — quiescing before this would skip the interesting part."""
    times = [0.0]
    times += [fault["recover_at"] for fault in spec.faults]
    times += [burst["until"] for burst in spec.bursts]
    times += [op["at"] for op in spec.links]
    if spec.swap and spec.swap.get("stop_at") is not None:
        times.append(spec.swap["stop_at"])
    return max(times) + 1.0


def run_scenario(spec: ScenarioSpec, tracer=None) -> ScenarioOutcome:
    """Run one scenario to quiesce (or deadline) and audit it."""
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
    grid = fig3_testbed(sim)
    topology = grid.topology
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, cpu_period=10.0)
    service = MetaScheduler(sim, grid, gis, nws)

    lanes: Dict[str, LaneWatch] = {}
    specs = [JobSpec(name=job["name"], user=job["user"], kind=job["kind"],
                     submit_time=job["submit_time"],
                     n_hosts=job["n_hosts"], size=job["size"])
             for job in spec.jobs]
    lanes["metasched"] = (LaneWatch([service.run_stream(specs)])
                          if specs else LaneWatch([]))

    hosts = {host.name: host for host in grid.all_hosts()}
    for fault in spec.faults:
        ScheduledFailure(host=hosts[fault["host"]], at=fault["at"],
                         recover_at=fault["recover_at"]).install(sim)
    for burst in spec.bursts:
        ScheduledLoad(host=hosts[burst["host"]], at=burst["at"],
                      nprocs=burst["nprocs"],
                      until=burst["until"]).install(sim)
    for op in spec.links:
        sim.call_at(op["at"], functools.partial(_apply_link, topology, op))

    swap_lane = SwapLane(sim, grid, nws, spec.swap) if spec.swap else None
    lanes["swap"] = (LaneWatch([swap_lane.done]) if swap_lane
                     else LaneWatch([]))
    srs_lane = SrsLane(sim, grid, spec.srs) if spec.srs else None
    lanes["srs"] = (LaneWatch([srs_lane.done]) if srs_lane
                    else LaneWatch([]))

    ctx = SoakContext(spec=spec, sim=sim, grid=grid, topology=topology,
                      service=service, lanes=lanes, swap_lane=swap_lane,
                      srs_lane=srs_lane, tracer=tracer)

    violations: List[Violation] = []
    deadline = spec.duration + _DEADLINE_SLACK
    horizon = _horizon(spec)
    next_checkpoint = spec.checkpoint_every
    while True:
        target = min(next_checkpoint, deadline)
        try:
            sim.run(until=target)
        except Exception as exc:  # harness finding, not a crash
            ctx.errors.append(f"{type(exc).__name__}: {exc}")
            # Only the message is kept; the traceback would hold this
            # frame, and with it the whole run, from the failed process
            # that stores the exception.
            exc.__traceback__ = None
            if len(ctx.errors) >= _MAX_CAUGHT_ERRORS:
                break
            continue
        violations.extend(run_checkpoint_auditors(ctx))
        if (sim.now >= horizon
                and all(watch.complete for watch in lanes.values())):
            ctx.quiesced = True
            break
        if target >= deadline:
            break
        next_checkpoint = target + spec.checkpoint_every

    violations.extend(run_final_auditors(ctx))
    # close() unbinds the tracer; the tracer's own reference to the
    # simulator stays, so a later bind() numbers runs as before.
    sim.close()

    counters = {name: value
                for name, value in sorted(sim.stats.snapshot().items())
                if name.startswith("meta_")
                and name not in DIAGNOSTIC_COUNTERS}
    return ScenarioOutcome(
        spec=spec, finished_at=sim.now,
        quiesced=ctx.quiesced,
        lanes={name: lanes[name].status for name in sorted(lanes)},
        violations=violations,
        jobs=[state.row() for state in service.states()],
        counters=counters)


def run_with_checks(spec: ScenarioSpec) -> dict:
    """Run a scenario with its declared cross-checks; return the
    per-scenario report dict.

    ``spec.trace_check`` records and validates a Chrome trace.
    """
    tracer = Tracer() if spec.trace_check else None
    return run_scenario(spec, tracer=tracer).report()
