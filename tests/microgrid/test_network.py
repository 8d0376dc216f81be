"""Tests for the routed topology and max-min fair flow model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.microgrid import (
    Architecture,
    Host,
    NetworkError,
    Topology,
)
from tests.oracles.network import ReferenceTopology, reference_max_min


def two_hosts(sim, bw=1e6, lat=0.01, topology_cls=Topology):
    """a -- switch -- b with identical access links."""
    topo = topology_cls(sim)
    arch = Architecture(name="t", mflops=100.0)
    a = Host(sim, "a", arch)
    b = Host(sim, "b", arch)
    topo.attach_host(a)
    topo.attach_host(b)
    topo.add_node("sw")
    topo.add_link("a", "sw", bandwidth=bw, latency=lat / 2)
    topo.add_link("b", "sw", bandwidth=bw, latency=lat / 2)
    return topo, a, b


def test_single_transfer_time():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.01)
    ev = topo.transfer("a", "b", 1e6)
    sim.run()
    # latency + bytes/bw = 0.01 + 1.0
    assert ev.value == pytest.approx(1.01, rel=1e-6)


def test_zero_byte_transfer_takes_latency_only():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.02)
    ev = topo.transfer("a", "b", 0)
    sim.run()
    assert ev.value == pytest.approx(0.02)


def test_local_transfer_uses_memcpy_bandwidth():
    sim = Simulator()
    topo, a, b = two_hosts(sim)
    topo.local_copy_bw = 1e9
    ev = topo.transfer("a", "a", 1e9)
    sim.run()
    assert ev.value == pytest.approx(1.0)


def test_negative_transfer_rejected():
    sim = Simulator()
    topo, a, b = two_hosts(sim)
    with pytest.raises(ValueError):
        topo.transfer("a", "b", -5)


def test_unroutable_transfer_raises():
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.attach_host(Host(sim, "x", arch))
    topo.attach_host(Host(sim, "y", arch))
    with pytest.raises(NetworkError):
        topo.transfer("x", "y", 100)


def test_unknown_host_lookup():
    sim = Simulator()
    topo = Topology(sim)
    with pytest.raises(NetworkError):
        topo.host("ghost")


def test_duplicate_host_rejected():
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.attach_host(Host(sim, "x", arch))
    with pytest.raises(NetworkError):
        topo.attach_host(Host(sim, "x", arch))


def test_two_flows_share_bottleneck():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.0)
    e1 = topo.transfer("a", "b", 1e6)
    e2 = topo.transfer("a", "b", 1e6)
    sim.run()
    # Both flows share the 1 MB/s path: each runs at 0.5 MB/s.
    assert e1.value == pytest.approx(2.0, rel=1e-6)
    assert e2.value == pytest.approx(2.0, rel=1e-6)


def test_flow_speeds_up_when_other_finishes():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.0)
    small = topo.transfer("a", "b", 0.5e6)
    large = topo.transfer("a", "b", 1.5e6)
    sim.run()
    # Shared until small drains at t=1.0 (0.5 MB at 0.5 MB/s); large then
    # has 1.0 MB left at full rate -> finishes at t=2.0.
    assert small.value == pytest.approx(1.0, rel=1e-6)
    assert large.value == pytest.approx(2.0, rel=1e-6)


def test_opposite_directions_full_duplex():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.0)
    e1 = topo.transfer("a", "b", 1e6)
    e2 = topo.transfer("b", "a", 1e6)
    sim.run()
    # Full-duplex links: no interference between directions.
    assert e1.value == pytest.approx(1.0, rel=1e-6)
    assert e2.value == pytest.approx(1.0, rel=1e-6)


def test_disjoint_paths_dont_interfere():
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    for name in ("a", "b", "c", "d"):
        topo.attach_host(Host(sim, name, arch))
    topo.add_link("a", "b", bandwidth=1e6, latency=0.0)
    topo.add_link("c", "d", bandwidth=2e6, latency=0.0)
    e1 = topo.transfer("a", "b", 1e6)
    e2 = topo.transfer("c", "d", 1e6)
    sim.run()
    assert e1.value == pytest.approx(1.0, rel=1e-6)
    assert e2.value == pytest.approx(0.5, rel=1e-6)


def test_max_min_fairness_unequal_bottlenecks():
    """A flow constrained elsewhere releases bandwidth to its sharers.

    Topology: a--r (10 MB/s), b--r (1 MB/s), r--c (10 MB/s).
    Flow 1: a->c, flow 2: b->c.  Flow 2 is capped at 1 MB/s by its access
    link, so max-min gives flow 1 the remaining 9 MB/s on r--c.
    """
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    for name in ("a", "b", "c"):
        topo.attach_host(Host(sim, name, arch))
    topo.add_node("r")
    topo.add_link("a", "r", bandwidth=10e6, latency=0.0)
    topo.add_link("b", "r", bandwidth=1e6, latency=0.0)
    topo.add_link("r", "c", bandwidth=10e6, latency=0.0)
    e1 = topo.transfer("a", "c", 9e6)
    e2 = topo.transfer("b", "c", 1e6)
    sim.run()
    assert e2.value == pytest.approx(1.0, rel=1e-6)  # 1 MB at 1 MB/s
    assert e1.value == pytest.approx(1.0, rel=1e-6)  # 9 MB at 9 MB/s


def test_latency_sums_along_path():
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.attach_host(Host(sim, "a", arch))
    topo.attach_host(Host(sim, "b", arch))
    topo.add_node("r1")
    topo.add_node("r2")
    topo.add_link("a", "r1", bandwidth=1e6, latency=0.001)
    topo.add_link("r1", "r2", bandwidth=1e6, latency=0.010)
    topo.add_link("r2", "b", bandwidth=1e6, latency=0.002)
    assert topo.path_latency("a", "b") == pytest.approx(0.013)
    assert topo.path_bottleneck_bw("a", "b") == pytest.approx(1e6)


def test_estimate_matches_uncontended_actual():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=2e6, lat=0.05)
    est = (topo.path_latency("a", "b")
           + 4e6 / topo.path_bottleneck_bw("a", "b"))
    ev = topo.transfer("a", "b", 4e6)
    sim.run()
    assert ev.value == pytest.approx(est, rel=1e-6)


def test_bytes_delivered_accounting():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.0)
    topo.transfer("a", "b", 3e6)
    topo.transfer("b", "a", 2e6)
    sim.run()
    assert topo.bytes_delivered == pytest.approx(5e6, rel=1e-6)


def test_routing_cache_invalidated_by_new_link():
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.attach_host(Host(sim, "a", arch))
    topo.attach_host(Host(sim, "b", arch))
    topo.add_node("slow")
    topo.add_link("a", "slow", bandwidth=1e6, latency=0.5)
    topo.add_link("slow", "b", bandwidth=1e6, latency=0.5)
    assert topo.path_latency("a", "b") == pytest.approx(1.0)
    topo.add_link("a", "b", bandwidth=1e6, latency=0.001)
    assert topo.path_latency("a", "b") == pytest.approx(0.001)


def test_link_validation():
    sim = Simulator()
    topo = Topology(sim)
    with pytest.raises(ValueError):
        topo.add_link("a", "b", bandwidth=0.0, latency=0.0)
    with pytest.raises(ValueError):
        topo.add_link("a", "b", bandwidth=1.0, latency=-0.1)


def test_add_link_mid_run_reallocates_existing_flows():
    """Regression: upgrading a link's bandwidth while a flow is in
    flight must take effect immediately, not at the next flow event."""
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.attach_host(Host(sim, "a", arch))
    topo.attach_host(Host(sim, "b", arch))
    topo.add_link("a", "b", bandwidth=1e6, latency=0.0)
    ev = topo.transfer("a", "b", 4e6)
    # At t=1: 1 MB moved; quadruple the capacity -> 3 MB left at 4 MB/s.
    sim.call_at(1.0, lambda: topo.add_link("a", "b", bandwidth=4e6,
                                           latency=0.0))
    sim.run()
    assert ev.value == pytest.approx(1.75, rel=1e-6)


def test_add_link_mid_run_downgrade_slows_existing_flows():
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.attach_host(Host(sim, "a", arch))
    topo.attach_host(Host(sim, "b", arch))
    topo.add_link("a", "b", bandwidth=2e6, latency=0.0)
    ev = topo.transfer("a", "b", 4e6)
    # At t=1: 2 MB moved; halve the capacity -> 2 MB left at 1 MB/s.
    sim.call_at(1.0, lambda: topo.add_link("a", "b", bandwidth=1e6,
                                           latency=0.0))
    sim.run()
    assert ev.value == pytest.approx(3.0, rel=1e-6)


def test_add_node_mid_run_keeps_flows_consistent():
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.0)
    ev = topo.transfer("a", "b", 2e6)
    sim.call_at(1.0, lambda: topo.add_node("router99"))
    sim.run()
    assert ev.value == pytest.approx(2.0, rel=1e-6)
    assert topo.bytes_delivered == pytest.approx(2e6, rel=1e-6)


def test_route_cache_counters():
    sim = Simulator()
    topo, a, b = two_hosts(sim)
    assert sim.stats.route_cache_misses == 0
    topo.path_latency("a", "b")
    assert sim.stats.route_cache_misses == 1
    hits_before = sim.stats.route_cache_hits
    topo.path_latency("a", "b")
    topo.path_bottleneck_bw("a", "b")
    assert sim.stats.route_cache_misses == 1  # served from cache
    assert sim.stats.route_cache_hits > hits_before


def test_transfer_counts_the_route_lookups_it_stands_for():
    """A transfer counts one route and one metrics lookup, warm or
    cold; the fig4 and metasched goldens pin these counters."""
    sim = Simulator()
    topo, a, b = two_hosts(sim)
    topo.transfer("a", "b", 1e3)
    assert (sim.stats.route_cache_misses, sim.stats.route_cache_hits) == (1, 1)
    topo.transfer("a", "b", 0)
    topo.transfer("a", "b", 1e3)
    assert (sim.stats.route_cache_misses, sim.stats.route_cache_hits) == (1, 5)
    topo.path_latency("b", "a")
    topo.transfer("b", "a", 1e3)  # source routed, pair not yet cached
    assert (sim.stats.route_cache_misses, sim.stats.route_cache_hits) == (2, 7)


def test_transfer_after_add_link_takes_the_new_route():
    """A link that opens a lower-latency route mid-run must carry the
    next transfer on that pair; a stale per-pair route would send it
    the old way, taking 2.0 s instead of 0.251 s."""
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.attach_host(Host(sim, "a", arch))
    topo.attach_host(Host(sim, "b", arch))
    topo.add_node("slow")
    topo.add_link("a", "slow", bandwidth=1e6, latency=0.5)
    topo.add_link("slow", "b", bandwidth=1e6, latency=0.5)
    first = topo.transfer("a", "b", 1e6)
    later = []

    def shortcut():
        topo.add_link("a", "b", bandwidth=4e6, latency=0.001)
        later.append(topo.transfer("a", "b", 1e6))

    sim.call_at(5.0, shortcut)
    sim.run()
    assert first.value == pytest.approx(2.0, rel=1e-9)
    assert later[0].value == pytest.approx(0.251, rel=1e-9)


def test_route_cache_invalidated_by_topology_change_counters():
    sim = Simulator()
    topo, a, b = two_hosts(sim)
    topo.path_latency("a", "b")
    topo.add_link("a", "b", bandwidth=5e6, latency=0.001)
    topo.path_latency("a", "b")
    assert sim.stats.route_cache_misses == 2


def test_reallocation_counter_increments_per_flow_event():
    sim = Simulator()
    topo, a, b = two_hosts(sim, lat=0.0)
    topo.transfer("a", "b", 1e6)
    topo.transfer("a", "b", 1e6)
    sim.run()
    # two arrivals + one departure wake (both finish together)
    assert sim.stats.reallocations == 3


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.floats(min_value=1e3, max_value=1e7),
                      min_size=1, max_size=6))
def test_property_shared_link_conserves_bytes(sizes):
    """All bytes submitted over a shared link are eventually delivered,
    and the makespan is at least total/capacity (link is never
    over-driven) and at most what strict serialization would take."""
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.0)
    events = [topo.transfer("a", "b", s) for s in sizes]
    sim.run()
    assert all(ev.triggered for ev in events)
    assert topo.bytes_delivered == pytest.approx(sum(sizes), rel=1e-6)
    assert sim.now >= sum(sizes) / 1e6 - 1e-6
    assert sim.now <= sum(sizes) / 1e6 + 1e-6  # PS keeps the link saturated


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=8))
def test_property_equal_flows_finish_together(n):
    sim = Simulator()
    topo, a, b = two_hosts(sim, bw=1e6, lat=0.0)
    events = [topo.transfer("a", "b", 1e6) for _ in range(n)]
    sim.run()
    finish = {round(ev.value, 6) for ev in events}
    assert len(finish) == 1
    assert events[0].value == pytest.approx(n * 1.0, rel=1e-6)


# -- lone-flow shortcut -------------------------------------------------------

class _FillRecorder:
    """Mixin recording the size of every component ``_fill`` sees."""

    def __init__(self, sim):
        super().__init__(sim)
        self.fills = []

    def _fill(self, flows):
        self.fills.append(len(flows))
        super()._fill(flows)


class _RecordingTopology(_FillRecorder, Topology):
    pass


class _RecordingReference(_FillRecorder, ReferenceTopology):
    pass


def test_lone_flow_skips_fill_but_reference_fills_it():
    """A flow alone on its edges takes the shortcut in production, and
    the reference topology still fills it, so the incremental-vs-
    reference differentials compare the shortcut with a real fill."""
    for topology_cls, fills in ((_RecordingTopology, []),
                                (_RecordingReference, [1])):
        sim = Simulator()
        topo, a, b = two_hosts(sim, topology_cls=topology_cls)
        ev = topo.transfer("a", "b", 1e6)
        sim.run()
        assert ev.value == pytest.approx(1.01, rel=1e-9)
        assert topo.fills == fills


class _LoneCheckedTopology(Topology):
    """Re-derives every lone-flow allocation with ``_fill``."""

    def __init__(self, sim):
        super().__init__(sim)
        self.lone_checked = 0

    def _reallocate(self, seed_edges=None, lone=None):
        super()._reallocate(seed_edges, lone)
        if lone is None:
            return
        component = self._component_flows(lone.edge_ids)
        assert len(component) == 1 and component[0] is lone
        shortcut = lone.allocation
        self._fill(component)
        assert lone.allocation == shortcut  # bit for bit, not approx
        self.lone_checked += 1


_lone_scenarios = st.fixed_dictionaries({
    "n_nodes": st.integers(min_value=3, max_value=7),
    "parents": st.lists(st.integers(min_value=0, max_value=5),
                        min_size=6, max_size=6),
    "extra_edges": st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        min_size=0, max_size=3),
    "bandwidths": st.lists(st.floats(min_value=1e3, max_value=1e9),
                           min_size=10, max_size=10),
    "latencies": st.lists(st.sampled_from([0.0, 1e-4, 0.003]),
                          min_size=10, max_size=10),
    # small messages, mostly spread out in time: most start alone
    "flows": st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6),
                  st.floats(min_value=1.0, max_value=1e5),
                  st.floats(min_value=0.0, max_value=50.0)),
        min_size=1, max_size=12),
})


@settings(max_examples=40, deadline=None)
@given(scenario=_lone_scenarios)
def test_property_lone_flow_rate_equals_fill(scenario):
    sim = Simulator()
    topo, events = _build_scenario(sim, scenario, _LoneCheckedTopology)
    sim.run()
    assert all(ev.triggered for ev in events)
    # the first flow to start always has the network to itself
    assert topo.lone_checked >= 1


# -- incremental vs reference allocator equivalence --------------------------

_random_scenarios = st.fixed_dictionaries({
    "n_nodes": st.integers(min_value=3, max_value=7),
    "parents": st.lists(st.integers(min_value=0, max_value=5),
                        min_size=6, max_size=6),
    "extra_edges": st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        min_size=0, max_size=4),
    "bandwidths": st.lists(
        st.sampled_from([1e5, 5e5, 1e6, 2e6, 1e7]),
        min_size=10, max_size=10),
    "latencies": st.lists(st.sampled_from([0.0, 0.001, 0.01]),
                          min_size=10, max_size=10),
    "flows": st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6),
                  st.floats(min_value=1e3, max_value=5e6),
                  st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0])),
        min_size=1, max_size=10),
})


def _build_scenario(sim, scenario, topology_cls=Topology):
    """One random connected topology + timed flow set, per allocator."""
    n = scenario["n_nodes"]
    topo = topology_cls(sim)
    arch = Architecture(name="t", mflops=1.0)
    for i in range(n):
        topo.attach_host(Host(sim, f"n{i}", arch))
    edges = []
    # Spanning tree first (node i hangs off an earlier node), so every
    # flow is routable; extra edges then add shortcuts/parallel paths.
    for i in range(1, n):
        edges.append((i, scenario["parents"][i - 1] % i))
    for a, b in scenario["extra_edges"]:
        a, b = a % n, b % n
        if a != b:
            edges.append((a, b))
    for k, (a, b) in enumerate(edges):
        topo.add_link(f"n{a}", f"n{b}",
                      bandwidth=scenario["bandwidths"][k % 10],
                      latency=scenario["latencies"][k % 10])
    events = []
    for src, dst, nbytes, start in scenario["flows"]:
        src, dst = src % n, dst % n
        if src == dst:
            dst = (dst + 1) % n
        sim.call_at(start, lambda s=src, d=dst, b=nbytes:
                    events.append(topo.transfer(f"n{s}", f"n{d}", b)))
    return topo, events


@settings(max_examples=40, deadline=None)
@given(scenario=_random_scenarios)
def test_property_incremental_allocator_matches_reference(scenario):
    """The component-scoped incremental allocator and the from-scratch
    reference progressive-filling allocator drive identical simulations:
    same in-flight rates at probe times, same completion times, same
    bytes delivered."""
    runs = {}
    for allocator, topology_cls in (("incremental", Topology),
                                    ("reference", ReferenceTopology)):
        sim = Simulator()
        topo, events = _build_scenario(sim, scenario, topology_cls)
        probes = []
        for t in (0.25, 0.75, 1.5, 3.0):
            sim.call_at(t, lambda topo=topo, probes=probes:
                        probes.append(sorted(f.allocation
                                             for f in topo._flows)))
        sim.run()
        assert all(ev.triggered for ev in events)
        runs[allocator] = {
            "values": [ev.value for ev in events],
            "probes": probes,
            "bytes": topo.bytes_delivered,
            "finished": sim.now,
        }
    incr, ref = runs["incremental"], runs["reference"]
    assert incr["values"] == pytest.approx(ref["values"], rel=1e-9)
    assert incr["bytes"] == pytest.approx(ref["bytes"], rel=1e-9)
    assert incr["finished"] == pytest.approx(ref["finished"], rel=1e-9)
    for pi, pr in zip(incr["probes"], ref["probes"]):
        assert pi == pytest.approx(pr, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(scenario=_random_scenarios)
def test_property_live_allocations_match_pure_reference(scenario):
    """Mid-run, the incremental topology's rates equal what the pure
    reference allocator computes for the same flow set and capacities —
    the direct oracle check for the interned-edge bookkeeping."""
    sim = Simulator()
    topo, _events = _build_scenario(sim, scenario)

    def check():
        if not topo._flows:
            return
        expected = reference_max_min(
            [f.edge_ids for f in topo._flows],
            dict(enumerate(topo._edge_cap)))
        actual = [f.allocation for f in topo._flows]
        assert actual == pytest.approx(expected, rel=1e-9)

    for t in (0.05, 0.3, 0.8, 1.2, 2.5):
        sim.call_at(t, check)
    sim.run()
