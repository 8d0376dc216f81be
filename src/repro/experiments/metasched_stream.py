"""Metascheduler job-stream experiment driver (``repro metasched``).

Serves an open-loop Poisson stream of synthetic multi-tenant jobs (QR,
EMAN, N-body) through :class:`repro.metasched.MetaScheduler` on the
Figure 3 testbed (or a larger multi-cluster grid via ``n_hosts``), then
packages the outcome — per-job rows, the ``meta_*`` counters, and the
reservation-conflict audit — as a deterministic report: same seed, same
bytes.  The report holds what was decided, not how the planner got
there: the ``meta_plan_*`` planning counters
(``repro.sim.stats.DIAGNOSTIC_COUNTERS``) are excluded from
:meth:`MetaschedResult.report`, so the planner and the linear-scan
oracle it is tested against (DESIGN.md §9.6) emit byte-identical
same-seed JSON (the full snapshot stays on
:attr:`MetaschedResult.counters`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..gis.directory import GridInformationService
from ..metasched import MetaScheduler, generate_stream
from ..microgrid.cluster import Cluster
from ..microgrid.dml import Grid
from ..microgrid.testbed import (
    ARCH_ATHLON_1700,
    ARCH_PII_450,
    ARCH_PII_550,
    ARCH_PIII_933,
    GB1,
    INTERNET_BW,
    fig3_testbed,
)
from ..nws.service import NetworkWeatherService
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..sim.stats import DIAGNOSTIC_COUNTERS
from .common import JSON_SCHEMA_VERSION, format_table

__all__ = ["MetaschedResult", "run_metasched", "metasched_scale_grid",
           "metasched_tables"]

@dataclass
class MetaschedResult:
    """One served job stream, reduced to plain data."""

    users: int
    arrival_rate: float
    duration: float
    seed: int
    max_jobs: Optional[int]
    finished_at: float
    n_hosts: Optional[int] = None
    jobs: List[dict] = field(default_factory=list)
    #: full KernelStats snapshot, ``meta_plan_*`` included
    counters: Dict[str, float] = field(default_factory=dict)
    conflicts: List[str] = field(default_factory=list)

    def summary(self) -> dict:
        started = [j for j in self.jobs if j["started_at"] is not None]
        completed = [j for j in self.jobs if j["status"] == "completed"]
        waits = [j["queue_wait"] for j in started]
        horizon = self.finished_at if self.finished_at > 0 else 1.0
        return {
            "submitted": len(self.jobs),
            "completed": len(completed),
            "failed": sum(1 for j in self.jobs if j["status"] == "failed"),
            "rejected": sum(1 for j in self.jobs
                            if j["status"] == "rejected"),
            "backfilled": sum(1 for j in self.jobs if j["backfilled"]),
            "conflicts": len(self.conflicts),
            "makespan_seconds": self.finished_at,
            "throughput_jobs_per_hour": len(completed) / horizon * 3600.0,
            "mean_queue_wait_seconds": (sum(waits) / len(waits)
                                        if waits else 0.0),
        }

    def report(self) -> dict:
        """Planner-independent report: the ``meta_plan_*`` counters are
        deliberately absent, so the planner and the linear-scan oracle
        emit byte-identical same-seed JSON."""
        return {
            "schema_version": JSON_SCHEMA_VERSION,
            "params": {
                "users": self.users,
                "arrival_rate": self.arrival_rate,
                "duration": self.duration,
                "seed": self.seed,
                "max_jobs": self.max_jobs,
                "n_hosts": self.n_hosts,
            },
            "jobs": self.jobs,
            "counters": {name: value
                         for name, value in self.counters.items()
                         if name not in DIAGNOSTIC_COUNTERS},
            "conflicts": self.conflicts,
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        """Deterministic serialization: equal seeds => equal bytes."""
        return json.dumps(self.report(), sort_keys=True)


#: per-cluster architectures for :func:`metasched_scale_grid` — all
#: ia32 (every synthetic job kind can land anywhere), heterogeneous
#: speeds so the fair-share planner has real choices.
_SCALE_ARCHS = (ARCH_PII_450, ARCH_PII_550, ARCH_PIII_933,
                ARCH_ATHLON_1700)


def metasched_scale_grid(sim: Simulator, n_hosts: int) -> Grid:
    """A larger metascheduler testbed: ``n_hosts`` spread over four
    heterogeneous ia32 clusters chained by Internet links (the stream
    benchmark's 64-host configuration; any size >= 4 works)."""
    if n_hosts < len(_SCALE_ARCHS):
        raise ValueError(f"need at least {len(_SCALE_ARCHS)} hosts")
    grid = Grid(sim)
    per_cluster = n_hosts // len(_SCALE_ARCHS)
    extra = n_hosts - per_cluster * len(_SCALE_ARCHS)
    clusters = []
    for c, arch in enumerate(_SCALE_ARCHS):
        size = per_cluster + (1 if c < extra else 0)
        clusters.append(grid.add_cluster(Cluster(
            sim, grid.topology, f"c{c}", arch=arch, n_hosts=size,
            cores_per_host=1, link_bandwidth=GB1, link_latency=1e-4,
            site=f"SITE{c}")))
    for a, b in zip(clusters, clusters[1:]):
        grid.topology.add_link(a.switch, b.switch,
                               bandwidth=INTERNET_BW, latency=0.011)
    return grid


def run_metasched(users: int = 4, arrival_rate: float = 1 / 120.0,
                  duration: float = 3600.0, seed: int = 0,
                  max_jobs: Optional[int] = None,
                  max_queue: Optional[int] = None,
                  max_per_user: Optional[int] = None,
                  n_hosts: Optional[int] = None,
                  cpu_period: float = 10.0,
                  tracer=None) -> MetaschedResult:
    """Serve one synthetic job stream.

    ``n_hosts=None`` runs on the Figure 3 testbed (12 hosts); an
    integer builds the :func:`metasched_scale_grid` of that size.
    ``cpu_period`` sets the NWS CPU-sensor cadence (long streams can
    afford a coarser one).
    """
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
        tracer.instant("meta", "run", experiment="metasched", seed=seed,
                       users=users, arrival_rate=arrival_rate,
                       duration=duration)
    if n_hosts is None:
        grid = fig3_testbed(sim)
    else:
        grid = metasched_scale_grid(sim, n_hosts)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, cpu_period=cpu_period,
                                deploy_network_sensors=False)
    service = MetaScheduler(sim, grid, gis, nws,
                            max_queue=max_queue, max_per_user=max_per_user)
    specs = generate_stream(users, arrival_rate, duration,
                            RngRegistry(seed), max_jobs=max_jobs)
    done = service.run_stream(specs)
    sim.run(stop_event=done)
    return MetaschedResult(
        users=users, arrival_rate=arrival_rate, duration=duration,
        seed=seed, max_jobs=max_jobs, finished_at=sim.now,
        n_hosts=n_hosts,
        jobs=[state.row() for state in service.states()],
        counters=sim.stats.snapshot(),
        conflicts=service.audit_conflicts())


def metasched_tables(report: dict) -> str:
    """Render a metasched report dict as the CLI's text output."""
    summary = report["summary"]
    rows = []
    for job in report["jobs"]:
        rows.append([
            job["name"], job["user"], job["kind"], job["n_hosts"],
            job["submit_time"], job["status"],
            job["queue_wait"] if job["queue_wait"] is not None else "-",
            (job["finished_at"] - job["started_at"]
             if job["finished_at"] is not None
             and job["started_at"] is not None else "-"),
            "yes" if job["backfilled"] else "",
            job["reject_reason"] or job["error"] or "",
        ])
    parts = [format_table(
        ["job", "user", "kind", "hosts", "submit (s)", "status",
         "wait (s)", "run (s)", "backfill", "note"],
        rows,
        title=(f"metasched: {summary['submitted']} submitted, "
               f"{summary['completed']} completed, "
               f"{summary['rejected']} rejected, "
               f"{summary['conflicts']} reservation conflicts"))]
    parts.append(format_table(
        ["makespan (s)", "throughput (jobs/h)", "mean wait (s)",
         "backfilled", "reservations"],
        [[summary["makespan_seconds"],
          summary["throughput_jobs_per_hour"],
          summary["mean_queue_wait_seconds"],
          summary["backfilled"],
          int(report["counters"]["meta_reservations"])]],
        title="stream summary"))
    return "\n\n".join(parts)
