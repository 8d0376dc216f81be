"""Opportunistic rescheduling (§4.1.1, elaborated in [21]).

"The rescheduler periodically checks for a GrADS application that has
recently completed.  If it finds one, the rescheduler determines if
another application can obtain performance benefits if it is migrated
to the newly freed resources."

Scenario: application A (a QR job) occupies the *fast* cluster;
application B, arriving while A runs, has to start on the slow cluster.
B performs to its contract — no violation ever fires — so only the
opportunistic daemon can notice, when A completes, that B would finish
sooner on the freed machines (even paying the stop/restart cost).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..appmanager.manager import GradsEnvironment
from ..apps.qr import QrBenchmark, QrRun
from ..contracts.contract import PerformanceContract
from ..contracts.monitor import ContractMonitor
from ..microgrid.cluster import Cluster
from ..microgrid.dml import Grid
from ..microgrid.host import Architecture
from ..microgrid.testbed import GB1
from ..rescheduling.rescheduler import Rescheduler
from ..rescheduling.rss import RuntimeSupportSystem
from ..rescheduling.srs import SRSLibrary
from ..sim.events import AllOf
from ..sim.kernel import Simulator

__all__ = ["OpportunisticResult", "run_opportunistic", "asymmetric_grid"]

ARCH_FAST = Architecture(name="fast-node", mflops=400.0, isa="ia32")
ARCH_SLOW = Architecture(name="slow-node", mflops=150.0, isa="ia32")


def asymmetric_grid(sim: Simulator) -> Grid:
    """Two 8-node clusters, one ~2.7x faster per node, on a fast WAN."""
    grid = Grid(sim)
    fast = grid.add_cluster(Cluster(
        sim, grid.topology, "fast", arch=ARCH_FAST, n_hosts=8,
        link_bandwidth=GB1, link_latency=1e-4, site="FAST"))
    slow = grid.add_cluster(Cluster(
        sim, grid.topology, "slow", arch=ARCH_SLOW, n_hosts=8,
        link_bandwidth=GB1, link_latency=1e-4, site="SLOW"))
    grid.topology.add_link(fast.switch, slow.switch,
                           bandwidth=20e6, latency=0.005)
    return grid


@dataclass
class OpportunisticResult:
    """What happened to application B."""

    a_finished_at: float
    b_finished_at: float
    b_migrations: int
    b_final_cluster: str
    opportunistic_decisions: int


def _managed_run(env: GradsEnvironment, benchmark: QrBenchmark,
                 hosts, rescheduler: Rescheduler) -> QrRun:
    rss = RuntimeSupportSystem(env.sim, home_host=env.submission_host)
    srs = SRSLibrary(env.sim, env.grid.topology, rss)
    contract = PerformanceContract(predicted_fn=lambda step: 1.0)
    monitor = ContractMonitor(env.sim, contract, window=3)
    run = QrRun(env.sim, env.grid, env.gis, env.nws, env.binder,
                rss, srs, benchmark, hosts, monitor=monitor)
    rescheduler.manage(run)
    monitor.rescheduler = rescheduler.request_handler(run)
    return run


def run_opportunistic(n_a: int = 6000, n_b: int = 8000,
                      enable: bool = True,
                      period: float = 60.0,
                      seed: int = 0,
                      tracer=None) -> OpportunisticResult:
    """Run the two-application scenario, with or without the daemon.

    ``seed`` follows the repo-wide experiment convention (DESIGN.md
    §9.5): recorded in the meta trace; driver randomness, if any, must
    come from ``RngRegistry(seed)`` (this scenario is scripted).
    """
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
        tracer.instant("meta", "run", experiment="opportunistic",
                       enabled=enable, seed=seed)
    grid = asymmetric_grid(sim)
    env = GradsEnvironment(sim, grid, submission_host="fast.n0")
    rescheduler = Rescheduler(sim, env.gis, env.nws, mode="default",
                              worst_case_migration_seconds=None)
    run_a = _managed_run(env, QrBenchmark(n=n_a, nb=200),
                         grid.clusters["fast"].host_names(), rescheduler)
    run_b = _managed_run(env, QrBenchmark(n=n_b, nb=200),
                         grid.clusters["slow"].host_names(), rescheduler)
    if enable:
        rescheduler.start_opportunistic(period=period)
    done_a = run_a.start()
    done_b = run_b.start()
    finish_times = {}
    done_a.add_callback(lambda _e: finish_times.setdefault("a", sim.now))
    done_b.add_callback(lambda _e: finish_times.setdefault("b", sim.now))
    both = AllOf(sim, [done_a, done_b])
    sim.run(stop_event=both)
    sim.close()
    opportunistic = sum(1 for d in rescheduler.decisions
                        if d.trigger == "opportunistic")
    final_cluster = run_b.current_hosts()[0].split(".")[0]
    return OpportunisticResult(
        a_finished_at=finish_times["a"],
        b_finished_at=finish_times["b"],
        b_migrations=run_b.migrations,
        b_final_cluster=final_cluster,
        opportunistic_decisions=opportunistic)
