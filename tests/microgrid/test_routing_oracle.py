"""Routing differential: the in-tree Dijkstra against networkx.

Every distance, path and link of :meth:`Topology._sssp_from` must
equal networkx's ``single_source_dijkstra`` over the same insertion
sequence, and distances must come back in the same (settling) order.
A different tie-break among equal-latency paths would move flows onto
other links and change report bytes.  The order of the ``paths`` dict
is not compared: networkx releases differ in when they fill it, and
routing only looks paths up by destination.
"""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.metasched_stream import metasched_scale_grid
from repro.microgrid import (
    Topology,
    dilated_grid,
    fig3_testbed,
    fig4_testbed,
    grads_macrogrid,
    heterogeneous_testbed,
)
from repro.sim import Simulator
from tests.oracles.graphs import (
    mirrored_topologies,
    reference_links,
    reference_routes,
)


def assert_routes_match(topology, graph):
    assert list(topology.links()) == reference_links(graph)
    for src in graph:
        assert topology.has_node(src)
        dist, paths = topology._sssp_from(src)
        ref_dist, ref_paths = reference_routes(graph, src)
        # repr also pins the value types (networkx keeps an int 0 for src)
        assert repr(list(dist.items())) == repr(list(ref_dist.items()))
        assert paths == ref_paths


BUILDERS = {
    "fig3": fig3_testbed,
    "fig4": fig4_testbed,
    "heterogeneous": heterogeneous_testbed,
    "macrogrid": grads_macrogrid,
    "scale16": partial(metasched_scale_grid, n_hosts=16),
    "scale32": partial(metasched_scale_grid, n_hosts=32),
    "scale64": partial(metasched_scale_grid, n_hosts=64),
    "fig3-dilated": lambda sim: dilated_grid(fig3_testbed, sim, 4.0),
    "fig4-dilated": lambda sim: dilated_grid(fig4_testbed, sim, 2.5),
}


@pytest.mark.parametrize("builder", BUILDERS.values(), ids=BUILDERS.keys())
def test_testbed_routes_match_networkx(builder):
    with mirrored_topologies() as mirrors:
        grid = builder(Simulator())
    assert list(mirrors) == [grid.topology]
    assert_routes_match(grid.topology, mirrors[grid.topology])


# Binary fractions tie exactly when summed; 0.1 + 0.2 != 0.3 does not.
LATENCIES = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 0.1, 0.2, 0.3])
NODES = st.sampled_from([f"n{i}" for i in range(8)])
OPS = st.lists(st.one_of(
    st.tuples(st.just("link"), NODES, NODES, LATENCIES,
              st.sampled_from([1e6, 1e8])),
    st.tuples(st.just("node"), NODES)), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_random_topology_routes_match_networkx(ops):
    """Tied and zero latencies, isolated nodes, self-loops and re-added
    links (the pair space is small, so pairs repeat often)."""
    with mirrored_topologies() as mirrors:
        topology = Topology(Simulator())
        for op in ops:
            if op[0] == "link":
                _, a, b, latency, bandwidth = op
                topology.add_link(a, b, bandwidth=bandwidth, latency=latency)
            else:
                topology.add_node(op[1])
    assert_routes_match(topology, mirrors[topology])


def test_relinked_neighbour_keeps_its_position():
    """Re-adding a link updates it in place, as ``nx.Graph`` does, so
    the equal-latency tie still goes to the first-added neighbour."""
    with mirrored_topologies() as mirrors:
        topology = Topology(Simulator())
        topology.add_link("s", "a", bandwidth=1e6, latency=0.5)
        topology.add_link("s", "b", bandwidth=1e6, latency=0.5)
        topology.add_link("a", "t", bandwidth=1e6, latency=0.5)
        topology.add_link("b", "t", bandwidth=1e6, latency=0.5)
        topology.add_link("s", "a", bandwidth=5e5, latency=0.5)
    assert topology.route("s", "t") == ["s", "a", "t"]
    assert topology.path_bottleneck_bw("s", "t") == 5e5
    assert_routes_match(topology, mirrors[topology])
