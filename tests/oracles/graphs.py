"""networkx reference for the in-tree graph algorithms.

``repro`` routes transfers with its own ``heapq`` Dijkstra
(:meth:`repro.microgrid.Topology._sssp_from`) and orders workflows with
its own Kahn's algorithm (:class:`repro.scheduler.Workflow`).  Both
used to be networkx calls, and a changed tie-break among equal-latency
paths or ready components moves report bytes, so the differential tests
compare them with networkx on every distance, path and order.

:func:`mirrored_topologies` records every :class:`Topology` mutation
made inside the block onto an ``nx.Graph`` with the same node and link
insertion sequence, which is what fixes networkx's neighbour order.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Tuple

import networkx as nx

from repro.microgrid.network import Link, Topology
from repro.scheduler import Workflow

__all__ = ["mirrored_topologies", "reference_add_dependence",
           "reference_generations", "reference_links",
           "reference_routes", "reference_topological_order",
           "workflow_digraph"]


@contextlib.contextmanager
def mirrored_topologies() -> Iterator[Dict[Topology, nx.Graph]]:
    """Mirror every topology built or changed in the block onto networkx.

    Yields a dict from each mutated :class:`Topology` to its
    ``nx.Graph`` twin, built by the same ``add_node`` / ``add_edge``
    calls the topology saw.
    """
    mirrors: Dict[Topology, nx.Graph] = {}
    originals = {name: getattr(Topology, name)
                 for name in ("add_node", "attach_host", "add_link")}

    def twin(topology: Topology) -> nx.Graph:
        return mirrors.setdefault(topology, nx.Graph())

    def add_node(self, name):
        originals["add_node"](self, name)
        twin(self).add_node(name)

    def attach_host(self, host):
        originals["attach_host"](self, host)
        twin(self).add_node(host.name)

    def add_link(self, a, b, bandwidth, latency):
        link = originals["add_link"](self, a, b, bandwidth, latency)
        twin(self).add_edge(a, b, bandwidth=float(bandwidth),
                            latency=float(latency))
        return link

    Topology.add_node = add_node
    Topology.attach_host = attach_host
    Topology.add_link = add_link
    try:
        yield mirrors
    finally:
        for name, method in originals.items():
            setattr(Topology, name, method)


def reference_routes(graph: nx.Graph, src: str
                     ) -> Tuple[Dict[str, float], Dict[str, List[str]]]:
    """networkx's latency-weighted single-source Dijkstra."""
    return nx.single_source_dijkstra(graph, src, weight="latency")


def reference_links(graph: nx.Graph) -> List[Link]:
    """Every link once, in networkx's edge order."""
    return [Link(u, v, data["bandwidth"], data["latency"])
            for u, v, data in graph.edges(data=True)]


def workflow_digraph(workflow: Workflow) -> nx.DiGraph:
    """The workflow's dependence DAG as an ``nx.DiGraph``."""
    graph = nx.DiGraph()
    for component in workflow.components():
        graph.add_node(component.name)
    for component in workflow.components():
        for succ in workflow.successors(component.name):
            graph.add_edge(component.name, succ.name)
    return graph


def reference_add_dependence(graph: nx.DiGraph, producer: str,
                             consumer: str) -> bool:
    """Add an edge unless it closes a cycle; returns whether it was added."""
    graph.add_edge(producer, consumer)
    if nx.is_directed_acyclic_graph(graph):
        return True
    graph.remove_edge(producer, consumer)
    return False


def reference_topological_order(graph: nx.DiGraph) -> List[str]:
    """networkx's lexicographically smallest topological order."""
    return list(nx.lexicographical_topological_sort(graph))


def reference_generations(graph: nx.DiGraph) -> List[List[str]]:
    """networkx's topological generations, each sorted by name."""
    return [sorted(generation)
            for generation in nx.topological_generations(graph)]
