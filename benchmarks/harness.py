"""Benchmark harnesses: the substrate churn and the scheduler fan-out.

Both workloads drive the production layers directly, with nothing on
top, so the layer under test is the only thing measured:

* :func:`run_substrate_bench` — the kernel and the network.  A 32-host,
  8-cluster grid carries 64 concurrent flows (3:1 mix of intra-cluster
  to cross-cluster traffic, the locality of real grid transfers); every
  completion immediately launches a replacement flow, so each of the
  ~thousands of flow events perturbs the max-min allocation.
* :func:`run_scheduler_bench` — the list-scheduling engine (§3.1).  An
  EMAN-shaped refinement round, a linear six-stage DAG whose
  ``classesbymra`` stage fans out to hundreds of independent tasks, is
  scheduled onto a heterogeneous multi-cluster grid.

Each takes a seam for the reference oracle it races against:
``topology_cls`` for the from-scratch allocator
(``tests/oracles/network.py``) and ``heuristics_table`` for the
reference heuristics (``tests/oracles/heuristics.py``).  Production and
oracle produce identical timelines and schedules, so wall-clock and
events (or evaluations) per second are directly comparable.

Import it as ``benchmarks.harness`` with the repository root on
``sys.path`` (``python -m pytest`` from the root does that).  To print
the substrate counters as JSON from the root::

    PYTHONPATH=src:. python -c "import json; from benchmarks.harness \
        import run_substrate_bench; \
        print(json.dumps(run_substrate_bench(total_transfers=400)))"
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.apps.eman import EmanParameters, eman_refinement_workflow
from repro.gis.directory import GridInformationService
from repro.microgrid.cluster import Cluster
from repro.microgrid.dml import Grid
from repro.microgrid.host import Architecture, CacheLevel, Host
from repro.microgrid.network import Topology
from repro.nws.service import NetworkWeatherService
from repro.scheduler.heuristics import HEURISTICS, Schedule
from repro.scheduler.ranking import RankMatrix, build_rank_matrix
from repro.scheduler.workflow import Workflow
from repro.sim.kernel import Simulator

__all__ = ["build_substrate_grid", "run_substrate_bench",
           "build_scheduler_bench_env", "run_scheduler_bench"]

# -- substrate churn -----------------------------------------------------------

#: access links: 1 Gbit/s, 0.1 ms; backbone: 10 Gbit/s, 5 ms
_ACCESS_BW = 125e6
_ACCESS_LAT = 1e-4
_CORE_BW = 1.25e9
_CORE_LAT = 5e-3


def build_substrate_grid(sim: Simulator, n_hosts: int = 32,
                         cluster_size: int = 4,
                         topology_cls: Type[Topology] = Topology,
                         ) -> Tuple[Topology, List[List[str]]]:
    """A star-of-stars grid: clusters of hosts around a core router.

    Returns the topology and the host names grouped per cluster.
    """
    if n_hosts % cluster_size:
        raise ValueError("n_hosts must be a multiple of cluster_size")
    topo = topology_cls(sim)
    arch = Architecture(name="bench", mflops=1000.0)
    topo.add_node("core")
    clusters: List[List[str]] = []
    for c in range(n_hosts // cluster_size):
        switch = f"sw{c}"
        topo.add_node(switch)
        topo.add_link(switch, "core", bandwidth=_CORE_BW, latency=_CORE_LAT)
        names = []
        for i in range(cluster_size):
            name = f"h{c}.{i}"
            topo.attach_host(Host(sim, name, arch))
            topo.add_link(name, switch, bandwidth=_ACCESS_BW,
                          latency=_ACCESS_LAT)
            names.append(name)
        clusters.append(names)
    return topo, clusters


def _flow_spec(slot: int, seq: int, clusters: List[List[str]]
               ) -> Tuple[str, str, float]:
    """Deterministic (src, dst, nbytes) for the ``seq``-th flow of a slot.

    Slots with ``slot % 4 == 3`` carry cross-cluster traffic through the
    backbone; the rest stay inside one cluster.  Sizes cycle through a
    13-step pattern so completions interleave rather than synchronise.
    """
    n_clusters = len(clusters)
    cluster_size = len(clusters[0])
    mix = slot * 7919 + seq * 104729  # two primes decorrelate the streams
    if slot % 4 == 3:
        a = clusters[slot % n_clusters]
        b = clusters[(slot + 1 + mix % (n_clusters - 1)) % n_clusters]
        src = a[mix % cluster_size]
        dst = b[(mix // 7) % cluster_size]
    else:
        hosts = clusters[slot % n_clusters]
        src = hosts[mix % cluster_size]
        dst = hosts[(mix % cluster_size + 1 + (mix // 11) % (cluster_size - 1))
                    % cluster_size]
    nbytes = 0.5e6 * (1 + mix % 13)
    return src, dst, nbytes


def run_substrate_bench(n_hosts: int = 32, concurrent_flows: int = 64,
                        total_transfers: int = 1500,
                        tracer=None,
                        topology_cls: Type[Topology] = Topology,
                        flow_bytes: Optional[float] = None,
                        ) -> Dict[str, float]:
    """Run the closed-loop flow churn and report counters + events/sec.

    ``concurrent_flows`` transfer slots each keep one flow in flight;
    the run ends once ``total_transfers`` flows have completed in total.
    ``flow_bytes`` gives every flow that size in place of the 0.5–6.5 MB
    cycle, e.g. 8 bytes for MPI control messages.
    ``tracer`` exists mainly for the tracing-overhead benchmark, which
    attaches a disabled tracer to price the instrumentation hooks.
    """
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
    topo, clusters = build_substrate_grid(sim, n_hosts=n_hosts,
                                          topology_cls=topology_cls)
    state = {"started": 0, "completed": 0}

    def launch(slot: int) -> None:
        seq = state["started"]
        if seq >= total_transfers:
            return
        state["started"] = seq + 1
        src, dst, nbytes = _flow_spec(slot, seq, clusters)
        if flow_bytes is not None:
            nbytes = flow_bytes
        ev = topo.transfer(src, dst, nbytes, tag=str(seq))

        def done(_event) -> None:
            state["completed"] += 1
            launch(slot)

        ev.add_callback(done)

    # The harness times itself in wall-clock seconds; nothing inside
    # the simulation reads these values.
    wall_start = perf_counter()
    for slot in range(concurrent_flows):
        launch(slot)
    sim.run()
    elapsed = perf_counter() - wall_start
    stats = sim.stats.snapshot()
    stats.update({
        "transfers_completed": state["completed"],
        "bytes_delivered": topo.bytes_delivered,
        "sim_seconds": sim.now,
        "wall_seconds": elapsed,
        "events_per_sec": (sim.stats.events_processed / elapsed
                           if elapsed > 0 else float("inf")),
    })
    return stats


# -- scheduler fan-out ---------------------------------------------------------

#: per-cluster sustained speeds (Mflop/s) — heterogeneous on purpose so
#: the completion-time heuristics have real choices to rank.
_CLUSTER_MFLOPS = (200.0, 300.0, 400.0, 600.0)
_GB1 = 125e6
_WAN_BW = 5e6
_WAN_LAT = 0.011


def build_scheduler_bench_env(n_tasks: int = 512, n_hosts: int = 32,
                              ) -> Tuple[Workflow, RankMatrix,
                                         NetworkWeatherService]:
    """(workflow, rank matrix, nws) for one benchmark run.

    ``n_tasks`` sizes the ``classesbymra`` fan-out; ``n_hosts`` spreads
    over four clusters of distinct speeds chained over WAN links.
    """
    if n_hosts < len(_CLUSTER_MFLOPS):
        raise ValueError(f"need at least {len(_CLUSTER_MFLOPS)} hosts")
    sim = Simulator()
    grid = Grid(sim)
    per_cluster = n_hosts // len(_CLUSTER_MFLOPS)
    extra = n_hosts - per_cluster * len(_CLUSTER_MFLOPS)
    clusters = []
    for c, mflops in enumerate(_CLUSTER_MFLOPS):
        size = per_cluster + (1 if c < extra else 0)
        arch = Architecture(
            name=f"bench-{int(mflops)}", mflops=mflops, isa="ia32",
            caches=(CacheLevel(size=512 * 1024),), memory_bytes=1 << 30)
        clusters.append(grid.add_cluster(Cluster(
            sim, grid.topology, f"c{c}", arch=arch, n_hosts=size,
            cores_per_host=1, link_bandwidth=_GB1, link_latency=1e-4,
            site=f"SITE{c}")))
    for a, b in zip(clusters, clusters[1:]):
        grid.topology.add_link(a.switch, b.switch,
                               bandwidth=_WAN_BW, latency=_WAN_LAT)

    nws = NetworkWeatherService(sim, grid)
    gis = GridInformationService()
    gis.register_grid(grid)

    workflow = eman_refinement_workflow(
        EmanParameters(), classesbymra_tasks=n_tasks,
        classalign_tasks=max(n_tasks // 32, 1), project_tasks=4)
    first_host = grid.all_hosts()[0].name
    matrix = build_rank_matrix(workflow, gis, nws,
                               data_sources={"proc3d": [first_host]})
    return workflow, matrix, nws


def run_scheduler_bench(n_tasks: int = 512, n_hosts: int = 32,
                        heuristics: Sequence[str] = ("min-min", "max-min",
                                                     "sufferage"),
                        keep_schedules: bool = False,
                        env: Optional[Tuple] = None,
                        heuristics_table: Mapping[str, Callable[..., Schedule]]
                        = HEURISTICS) -> Dict[str, object]:
    """Time the scheduling engine over the paper's three heuristics.

    Returns wall seconds, per-heuristic makespans and the scheduler
    counters (rounds / candidate evaluations / forecast-memo hits) from
    the run.  Pass ``env`` (a :func:`build_scheduler_bench_env` result)
    to reuse one grid across runs so comparisons see identical
    forecasts.
    """
    for name in heuristics:
        if name not in heuristics_table:
            raise ValueError(f"unknown heuristic {name!r}")
    if env is None:
        env = build_scheduler_bench_env(n_tasks=n_tasks, n_hosts=n_hosts)
    workflow, matrix, nws = env
    stats = nws.sim.stats
    stats.reset()  # bill only the scheduling work, not env construction

    makespans: Dict[str, float] = {}
    schedules: Dict[str, Schedule] = {}
    wall_start = perf_counter()
    for name in heuristics:
        schedule = heuristics_table[name](workflow, matrix, nws)
        makespans[name] = float(schedule.makespan)
        if keep_schedules:
            schedules[name] = schedule
    elapsed = perf_counter() - wall_start

    snapshot = stats.snapshot()
    result: Dict[str, object] = {
        "n_tasks": len(matrix.tasks),
        "n_hosts": len(matrix.resources),
        "heuristics": list(heuristics),
        "wall_seconds": elapsed,
        "makespans": makespans,
        "sched_rounds": int(snapshot["sched_rounds"]),
        "sched_evaluations": int(snapshot["sched_evaluations"]),
        "sched_memo_hits": int(snapshot["sched_memo_hits"]),
        "evaluations_per_sec": (snapshot["sched_evaluations"] / elapsed
                                if elapsed > 0 else float("inf")),
    }
    if keep_schedules:
        result["schedules"] = schedules
    return result

