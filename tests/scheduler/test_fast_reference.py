"""Fast engine vs reference oracle: exact schedule equivalence.

The incremental list-backed builder behind ``HEURISTICS`` must be a
pure optimization: for every workflow shape, grid, and heuristic it has
to produce the same placements with the same estimated times — bit-for-
bit, not approximately — as the retained from-scratch oracle in
``tests.oracles.heuristics.REFERENCE_HEURISTICS``.  Hypothesis drives
randomized layered and bag-of-tasks workflows over heterogeneous
multi-cluster grids, and over the 1–6 host grids the metascheduler
reserves for a job, where a memory-hungry component leaves some hosts
ineligible (rows with one finite column, or an infinite second-best).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gis import GridInformationService
from repro.microgrid import Architecture, Cluster, Grid
from repro.nws import NetworkWeatherService
from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import (
    HEURISTICS,
    Workflow,
    WorkflowComponent,
    build_rank_matrix,
)
from repro.sim import Simulator
from tests.oracles.heuristics import REFERENCE_HEURISTICS

HEURISTIC_NAMES = sorted(HEURISTICS)


#: Host memory of the "large" clusters and of the others (the
#: ``Architecture`` default), and what a hungry component needs.
LARGE_MEMORY = 2 << 30
SMALL_MEMORY = 512 << 20
HUNGRY_BYTES = 1 << 30


def heterogeneous_grid(rng, cluster_sizes, large=()):
    """Chained clusters with randomized per-cluster speeds.

    Clusters whose index is in ``large`` get ``LARGE_MEMORY`` hosts.
    """
    sim = Simulator()
    grid = Grid(sim)
    clusters = []
    for c, n_hosts in enumerate(cluster_sizes):
        mflops = float(rng.uniform(100, 800))
        arch = Architecture(
            name=f"a{c}", mflops=mflops,
            memory_bytes=LARGE_MEMORY if c in large else SMALL_MEMORY)
        clusters.append(grid.add_cluster(Cluster(
            sim, grid.topology, f"c{c}", arch=arch,
            n_hosts=n_hosts,
            link_bandwidth=float(rng.uniform(50e6, 200e6)),
            link_latency=1e-4, site=f"S{c}")))
    for a, b in zip(clusters, clusters[1:]):
        grid.topology.add_link(a.switch, b.switch,
                               bandwidth=float(rng.uniform(2e6, 20e6)),
                               latency=float(rng.uniform(0.005, 0.05)))
    return sim, grid


def model(mflop, hungry=False):
    """A fixed-work model; a hungry one needs ``HUNGRY_BYTES``."""
    memory = HUNGRY_BYTES if hungry else 0.0
    return AnalyticComponentModel(mflop_fn=lambda n, m=mflop: m,
                                  memory_fn=lambda n, mem=memory: mem)


def layered_workflow(rng, depth, width, hungry=()):
    """Alternating serial/parallel layers with random weights/volumes.

    In this and the other workflow builders, ``hungry`` holds the
    positions (in declaration order) of memory-hungry components.
    """
    wf = Workflow("layered")
    previous = None
    for level in range(depth):
        n_tasks = 1 if level % 2 == 0 else int(rng.integers(2, width + 1))
        mflop = float(rng.uniform(200, 4000)) * n_tasks
        name = f"l{level}"
        wf.add_component(WorkflowComponent(
            name=name,
            model=model(mflop, level in hungry),
            problem_size=1.0,
            n_tasks=n_tasks,
            input_bytes_per_task=float(rng.uniform(0, 8e6)),
        ))
        if previous is not None:
            wf.add_dependence(previous, name)
        previous = name
    return wf


def bag_workflow(rng, n_components, hungry=()):
    """Independent components, some parallelizable, heavy-tailed sizes."""
    wf = Workflow("bag")
    for i in range(n_components):
        mflop = float(rng.pareto(1.3) * 600 + 100)
        wf.add_component(WorkflowComponent(
            name=f"t{i}",
            model=model(mflop, i in hungry),
            problem_size=1.0,
            n_tasks=int(rng.integers(1, 5)),
            input_bytes_per_task=float(rng.uniform(0, 20e6)),
        ))
    return wf


def diamond_workflow(rng, width, hungry=()):
    """entry -> two parallel branches -> join: exercises multi-pred
    data-ready vectors (the max over predecessor components)."""
    wf = Workflow("diamond")

    def add(name, n_tasks):
        mflop = float(rng.uniform(200, 2000)) * n_tasks
        wf.add_component(WorkflowComponent(
            name=name,
            model=model(mflop, len(wf.components()) in hungry),
            problem_size=1.0, n_tasks=n_tasks,
            input_bytes_per_task=float(rng.uniform(0, 5e6))))

    add("entry", 1)
    add("left", int(rng.integers(2, width + 1)))
    add("right", int(rng.integers(2, width + 1)))
    add("join", 1)
    wf.add_dependence("entry", "left")
    wf.add_dependence("entry", "right")
    wf.add_dependence("left", "join")
    wf.add_dependence("right", "join")
    return wf


def build_case(seed, shape):
    rng = np.random.default_rng(seed)
    n_clusters = int(rng.integers(2, 4))
    sim, grid = heterogeneous_grid(
        rng, [int(rng.integers(2, 5))] * n_clusters)
    if shape == "layered":
        wf = layered_workflow(rng, depth=int(rng.integers(2, 6)), width=6)
    elif shape == "bag":
        wf = bag_workflow(rng, n_components=int(rng.integers(3, 12)))
    else:
        wf = diamond_workflow(rng, width=6)
    return rank_case(rng, sim, grid, wf)


def build_small_case(seed, shape, cluster_sizes, hungry):
    """A job on the 1–6 hosts metasched reserves (~6 tasks × 3 hosts).

    Cluster 0 has large-memory hosts and the others do not, so the
    ``hungry`` components can run on cluster 0 only.
    """
    rng = np.random.default_rng(seed)
    sim, grid = heterogeneous_grid(rng, cluster_sizes, large={0})
    if shape == "layered":
        wf = layered_workflow(rng, depth=int(rng.integers(2, 5)), width=3,
                              hungry=hungry)
    elif shape == "bag":
        wf = bag_workflow(rng, n_components=int(rng.integers(2, 5)),
                          hungry=hungry)
    else:
        wf = diamond_workflow(rng, width=3, hungry=hungry)
    return rank_case(rng, sim, grid, wf)


def rank_case(rng, sim, grid, wf):
    """The rank matrix of ``wf`` on ``grid``, with random data sources."""
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)
    hosts = [r.name for r in gis.resources()]
    sources = {c.name: [hosts[int(rng.integers(len(hosts)))]]
               for c in wf.components() if not wf.predecessors(c.name)}
    matrix = build_rank_matrix(wf, gis, nws, data_sources=sources)
    return wf, matrix, nws


def assert_identical(fast, reference, label):
    assert set(fast.placements) == set(reference.placements), label
    for name, p in fast.placements.items():
        q = reference.placements[name]
        assert p.resource == q.resource, (label, name)
        assert p.est_start == q.est_start, (label, name)
        assert p.est_finish == q.est_finish, (label, name)
    assert fast.makespan == reference.makespan, label
    assert fast.heuristic == reference.heuristic, label


def assert_engines_agree(name, wf, matrix, nws, seed, label):
    if name == "random":
        fast = HEURISTICS[name](wf, matrix, nws,
                                rng=np.random.default_rng(seed))
        reference = REFERENCE_HEURISTICS[name](
            wf, matrix, nws, rng=np.random.default_rng(seed))
    else:
        fast = HEURISTICS[name](wf, matrix, nws)
        reference = REFERENCE_HEURISTICS[name](wf, matrix, nws)
    assert_identical(fast, reference, label)


SHAPES = st.sampled_from(["layered", "bag", "diamond"])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       shape=SHAPES,
       name=st.sampled_from(HEURISTIC_NAMES))
def test_property_fast_matches_reference(seed, shape, name):
    wf, matrix, nws = build_case(seed, shape)
    assert_engines_agree(name, wf, matrix, nws, seed, (name, shape, seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       shape=SHAPES,
       cluster_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       hungry=st.sets(st.integers(0, 3), min_size=1, max_size=2),
       name=st.sampled_from(HEURISTIC_NAMES))
def test_property_small_grids_match_reference(seed, shape, cluster_sizes,
                                              hungry, name):
    """The shapes metasched sends: one resource (no second-best), two or
    three, and rows whose only finite columns are cluster 0's."""
    wf, matrix, nws = build_small_case(seed, shape, cluster_sizes, hungry)
    assert_engines_agree(name, wf, matrix, nws, seed,
                         (name, shape, seed, cluster_sizes, sorted(hungry)))


def test_small_grid_cases_reach_the_edge_rows():
    """The small-grid cases do build the rows the property test is for:
    a single resource, a row with one finite column among several, and
    a row with two finite columns among several (a finite second-best
    found after an infinite column)."""
    seen = set()
    for seed, sizes in [(1, [1]), (2, [1, 2]), (3, [2, 3]), (4, [1, 3])]:
        for shape in ("layered", "bag", "diamond"):
            _wf, matrix, _nws = build_small_case(seed, shape, sizes, {0, 1})
            n_resources = len(matrix.resources)
            for i in range(len(matrix.tasks)):
                n_finite = len(matrix.eligible_resources(i))
                if n_resources == 1:
                    seen.add("single resource")
                elif n_finite == 1:
                    seen.add("one finite column")
                elif n_finite < n_resources:
                    seen.add("finite second-best beside inf")
    assert seen == {"single resource", "one finite column",
                    "finite second-best beside inf"}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_all_six_on_one_case(seed):
    """One randomized case, every registry entry — catches heuristics
    whose shared-state assumptions only break after another ran."""
    wf, matrix, nws = build_case(seed, "layered")
    for name in HEURISTIC_NAMES:
        fast = HEURISTICS[name](wf, matrix, nws)
        reference = REFERENCE_HEURISTICS[name](wf, matrix, nws)
        assert_identical(fast, reference, (name, seed))


def test_registries_cover_same_heuristics():
    assert set(HEURISTICS) == set(REFERENCE_HEURISTICS)
    assert set(HEURISTICS) == {"min-min", "max-min", "sufferage",
                               "random", "fifo", "heft"}
