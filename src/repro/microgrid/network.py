"""Network topology and max-min fair flow simulation.

The MicroGrid paper emulates wide-area links with an online network
simulator; we reproduce the behaviour that matters to scheduling and
rescheduling decisions: per-path latency and *shared* bandwidth.  Every
transfer is a flow routed over the shortest path (by latency) between
two hosts; link capacities are divided among the flows crossing them by
progressive-filling **max-min fairness**, recomputed whenever a flow
starts or finishes.

Two hot paths are engineered for scale (GridSim-style indexed event
processing rather than per-event rescans):

* **Incremental reallocation.**  Directed edges are interned to integer
  ids the first time a flow crosses them, and the topology maintains a
  persistent edge→flows index.  A flow arrival or departure only
  re-runs progressive filling over the *connected component* of edges
  and flows actually perturbed — max-min fairness is separable across
  flow-disjoint components, so untouched components keep their rates.
  A flow that arrives alone on every edge of its path is its own
  component and takes its narrowest capacity without a fill.
  Property tests check it against the from-scratch allocator in
  ``tests/oracles/network.py``.

* **Routing cache.**  Routes are computed one *source* at a time with a
  single-source ``heapq`` Dijkstra pass (all destinations at once;
  equal-latency ties resolve exactly as the reference Dijkstra in
  ``tests/oracles/graphs.py``) and cached
  until the topology mutates; per-pair ``(latency, bottleneck)`` tuples
  are memoised so :meth:`Topology.path_latency` and
  :meth:`Topology.path_bottleneck_bw` are dict lookups, and so are
  each pair's interned edges, which :meth:`Topology.transfer` reuses.
  Hits/misses are counted in ``sim.stats``.

Capacities are in bytes/s, latencies in seconds, transfers in bytes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import count
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..sim.events import Event, Timeout
from ..sim.kernel import Simulator
from .host import Host

__all__ = ["Link", "Topology", "Flow", "NetworkError"]

_EPS = 1e-9

#: a routed pair's directed edges, their interned ids and its latency
_RouteEntry = Tuple[Tuple[Tuple[str, str], ...], Tuple[int, ...], float]


class NetworkError(RuntimeError):
    """Raised for malformed topologies or unroutable transfers."""


@dataclass(frozen=True)
class Link:
    """A bidirectional network link (each direction has full capacity)."""

    a: str
    b: str
    bandwidth: float  # bytes/s
    latency: float  # seconds

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("link latency must be non-negative")


@dataclass
class Flow:
    """An in-flight transfer."""

    src: str
    dst: str
    path: Tuple[Tuple[str, str], ...]  # directed edges as ordered node pairs
    remaining: float  # bytes
    event: Event
    allocation: float = 0.0  # bytes/s currently granted
    started_at: float = 0.0
    total: float = 0.0
    edge_ids: Tuple[int, ...] = ()  # interned directed-edge ids (see Topology)


class Topology:
    """A routed grid network carrying max-min fair flows.

    Nodes are strings (host names and router names); hosts must be
    attached via :meth:`attach_host` before they can transfer.  Local
    (same-host) transfers complete at ``local_copy_bw``.
    """

    def __init__(self, sim: Simulator, local_copy_bw: float = 1e9) -> None:
        self.sim = sim
        # node -> neighbour -> {"bandwidth", "latency"}; both directions
        # of a link share one attribute dict, and neighbours keep their
        # link-insertion order (which breaks equal-latency routing ties)
        self._adj: Dict[str, Dict[str, Dict[str, float]]] = {}
        self.local_copy_bw = float(local_copy_bw)
        self._hosts: Dict[str, Host] = {}
        self._flows: List[Flow] = []
        self._last_update = sim.now
        self._epoch = 0
        # -- edge interning (stable across route-cache invalidation) --
        self._edge_ids: Dict[Tuple[str, str], int] = {}  # directed pair -> id
        self._edge_cap: List[float] = []  # id -> bandwidth (refreshed on mutation)
        self._edge_users: List[List[Flow]] = []  # id -> flows currently crossing
        # -- routing caches (cleared on any topology mutation) --
        self._sssp: Dict[str, Tuple[Dict[str, float], Dict[str, List[str]]]] = {}
        self._metrics: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self._routes: Dict[Tuple[str, str], _RouteEntry] = {}
        #: cumulative bytes delivered (for accounting/benchmarks)
        self.bytes_delivered = 0.0

    # -- construction -----------------------------------------------------------
    def add_node(self, name: str) -> None:
        """Add a routing-only node (e.g. a WAN router)."""
        self._adj.setdefault(name, {})
        self._topology_changed()

    def attach_host(self, host: Host) -> None:
        """Register a host as an endpoint node."""
        if host.name in self._hosts:
            raise NetworkError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._adj.setdefault(host.name, {})
        self._topology_changed()

    def add_link(self, a: str, b: str, bandwidth: float, latency: float) -> Link:
        """Connect two nodes with a bidirectional link.

        Adding (or re-adding, to change bandwidth/latency) a link while
        flows are in flight settles their progress and reallocates, so
        the new capacity takes effect immediately rather than at the
        next unrelated flow event.
        """
        link = Link(a, b, bandwidth, latency)
        adj = self._adj
        nbrs_a = adj.setdefault(a, {})
        nbrs_b = adj.setdefault(b, {})
        data = nbrs_a.get(b)
        if data is None:
            data = nbrs_a[b] = nbrs_b[a] = {}
        data["bandwidth"] = float(bandwidth)
        data["latency"] = float(latency)
        self._topology_changed()
        return link

    def has_node(self, name: str) -> bool:
        """Whether ``name`` is a node (host or router) of the topology."""
        return name in self._adj

    def links(self) -> Iterator[Link]:
        """Every link once: nodes in insertion order, each with the
        neighbours not listed yet, in link-insertion order."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, data in nbrs.items():
                if v not in seen:
                    yield Link(u, v, data["bandwidth"], data["latency"])
            seen.add(u)

    def _topology_changed(self) -> None:
        """Invalidate routing caches and re-fit in-flight flows."""
        self._sssp.clear()
        self._metrics.clear()
        self._routes.clear()
        # An add_link over an existing edge rewrites its capacity; keep
        # the interned capacities in sync (edge ids themselves are
        # stable: they name directed node pairs, and links are never
        # removed).
        adj = self._adj
        for (u, v), eid in self._edge_ids.items():
            self._edge_cap[eid] = adj[u][v]["bandwidth"]
        if self._flows:
            # In-flight flows keep their paths but must share the new
            # capacities from *now*; without this they would coast on
            # stale allocations until the next flow arrival/departure.
            self._settle()
            self._reallocate()

    def host(self, name: str) -> Host:
        """Look up an attached host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    # -- routing ------------------------------------------------------------------
    def _sssp_from(self, src: str) -> Tuple[Dict[str, float], Dict[str, List[str]]]:
        """Distances and paths from ``src`` to every reachable node."""
        entry = self._sssp.get(src)
        if entry is None:
            self.sim.stats.route_cache_misses += 1
            if src not in self._adj:
                raise NetworkError(f"no route from unknown node {src!r}")
            entry = self._sssp[src] = self._dijkstra(src)
        else:
            self.sim.stats.route_cache_hits += 1
        return entry

    def _dijkstra(self, src: str) -> Tuple[Dict[str, float], Dict[str, List[str]]]:
        """Latency-weighted Dijkstra from ``src``.

        Ties break as in the reference Dijkstra of
        ``tests/oracles/graphs.py``: the heap orders equal distances by
        push order, neighbours are scanned in link-insertion order, and
        a predecessor changes only on a strict improvement.  ``dist``
        is filled in the order nodes settle.
        """
        adj = self._adj
        dist: Dict[str, float] = {}
        seen = {src: 0}
        pred: Dict[str, str] = {}
        push = count()
        fringe = [(0, next(push), src)]
        while fringe:
            d, _, v = heapq.heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, data in adj[v].items():
                if u in dist:
                    continue
                du = d + data["latency"]
                if u not in seen or du < seen[u]:
                    seen[u] = du
                    heapq.heappush(fringe, (du, next(push), u))
                    pred[u] = v
        paths = {src: [src]}
        for v in dist:
            if v != src:
                paths[v] = paths[pred[v]] + [v]
        return dist, paths

    def route(self, src: str, dst: str) -> List[str]:
        """Shortest path by latency between two nodes."""
        _dist, paths = self._sssp_from(src)
        path = paths.get(dst)
        if path is None:
            raise NetworkError(f"no route {src!r} -> {dst!r}")
        return path

    def _path_metrics(self, src: str, dst: str) -> Tuple[float, float]:
        """Memoised ``(latency, bottleneck_bw)`` of the routed path."""
        key = (src, dst)
        metrics = self._metrics.get(key)
        if metrics is None:
            dist, paths = self._sssp_from(src)
            path = paths.get(dst)
            if path is None:
                raise NetworkError(f"no route {src!r} -> {dst!r}")
            adj = self._adj
            bottleneck = min(adj[u][v]["bandwidth"]
                             for u, v in zip(path, path[1:]))
            metrics = (dist[dst], bottleneck)
            self._metrics[key] = metrics
        else:
            self.sim.stats.route_cache_hits += 1
        return metrics

    def path_latency(self, src: str, dst: str) -> float:
        """One-way latency along the routed path (0 for local)."""
        if src == dst:
            return 0.0
        return self._path_metrics(src, dst)[0]

    def path_bottleneck_bw(self, src: str, dst: str) -> float:
        """Raw bottleneck capacity along the path, ignoring other flows."""
        if src == dst:
            return self.local_copy_bw
        return self._path_metrics(src, dst)[1]

    # -- transfers -------------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float, tag: str = "") -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; event triggers on arrival.

        The event value is the elapsed transfer time in seconds.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        sim = self.sim
        ev = Event(sim, name=f"xfer:{src}->{dst}:{tag}")
        if src == dst:
            Timeout(sim, nbytes / self.local_copy_bw,
                    value=(ev, sim.now)).add_callback(self._arrive)
            return ev
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route_entry(src, dst)
        else:
            # the route() and _path_metrics() lookups this entry stands for
            sim.stats.route_cache_hits += 2
        edges, edge_ids, latency = route
        if nbytes == 0:
            Timeout(sim, latency, value=(ev, sim.now)).add_callback(self._arrive)
            return ev
        flow = Flow(src=src, dst=dst, path=edges, remaining=float(nbytes),
                    event=ev, started_at=sim.now, total=float(nbytes),
                    edge_ids=edge_ids)
        # The first byte spends `latency` in the pipe before streaming
        # begins; model it as a delayed flow start.
        Timeout(sim, latency, value=flow).add_callback(self._start_flow)
        return ev

    def _route_entry(self, src: str, dst: str) -> _RouteEntry:
        """Route ``src -> dst`` and cache its edges, interned edge ids
        and latency until the topology next changes."""
        path_nodes = self.route(src, dst)
        latency = self._path_metrics(src, dst)[0]
        edges = tuple(zip(path_nodes, path_nodes[1:]))
        entry = (edges, self._intern_edges(edges), latency)
        self._routes[(src, dst)] = entry
        return entry

    def _arrive(self, timer: Event) -> None:
        """Complete a transfer that never becomes a flow (local or empty)."""
        ev, start = timer.value
        ev.succeed(self.sim.now - start)

    # -- edge interning -------------------------------------------------------------
    def _intern_edges(self, edges: Iterable[Tuple[str, str]]) -> Tuple[int, ...]:
        """Map directed edges to stable integer ids, registering new ones.

        Links are full duplex: (u, v) and (v, u) intern to distinct ids
        with independent capacity.
        """
        edge_ids = self._edge_ids
        out = []
        for pair in edges:
            eid = edge_ids.get(pair)
            if eid is None:
                eid = len(self._edge_cap)
                edge_ids[pair] = eid
                u, v = pair
                self._edge_cap.append(self._adj[u][v]["bandwidth"])
                self._edge_users.append([])
            out.append(eid)
        return tuple(out)

    # -- max-min fair sharing ------------------------------------------------------
    def _start_flow(self, timer: Event) -> None:
        flow = timer.value
        self._settle()
        self._flows.append(flow)
        users = self._edge_users
        lone = True
        for eid in flow.edge_ids:
            edge_users = users[eid]
            if edge_users:
                lone = False
            edge_users.append(flow)
        trace = self.sim.trace
        if trace is not None and "network" in trace.active:
            trace.instant("network", "flow-add", src=flow.src, dst=flow.dst,
                          bytes=flow.total, active=len(self._flows))
        self._reallocate(seed_edges=flow.edge_ids,
                         lone=flow if lone else None)

    def _settle(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            delivered = 0.0
            for flow in self._flows:
                moved = flow.allocation * dt
                flow.remaining -= moved
                delivered += moved
            self.bytes_delivered += delivered
        self._last_update = now

    # -- reallocation ---------------------------------------------------------------
    def _reallocate(self, seed_edges: Optional[Iterable[int]] = None,
                    lone: Optional[Flow] = None) -> None:
        """Recompute max-min fair rates after a flow/topology change.

        With ``seed_edges`` (the edges of the arriving or departing
        flows) only the connected component of flows transitively
        sharing an edge with the perturbation is recomputed; rates
        outside that component cannot change.  Without it (a topology
        mutation) everything is redone.

        ``lone`` is an arriving flow that is the only user of every
        edge it crosses, so its component is that flow alone.
        Progressive filling would give it its narrowest edge's
        ``cap / 1``, which is that capacity exactly; the same strict-``<``
        scan over its edges gives the same bits without building the
        component.
        """
        self._epoch += 1
        self.sim.stats.reallocations += 1
        trace = self.sim.trace
        if trace is not None and "network" in trace.active:
            trace.instant("network", "realloc", epoch=self._epoch,
                          flows=len(self._flows),
                          scoped=seed_edges is not None)
        if not self._flows:
            return
        if lone is not None:
            cap = self._edge_cap
            rate = math.inf
            for eid in lone.edge_ids:
                if cap[eid] < rate:
                    rate = cap[eid]
            # no finite edge fixes the flow: _fill leaves it at 0.0 too
            lone.allocation = rate if rate < math.inf else 0.0
        elif seed_edges is None:
            self._fill(self._flows)
        else:
            component = self._component_flows(seed_edges)
            if component:
                self._fill(component)
        self._schedule_next_completion()

    def _component_flows(self, seed_edges: Iterable[int]) -> List[Flow]:
        """Flows transitively sharing an edge with ``seed_edges``."""
        users = self._edge_users
        pending = list(seed_edges)
        seen_edges = set(pending)
        seen_flows = set()
        component: List[Flow] = []
        while pending:
            eid = pending.pop()
            for flow in users[eid]:
                fid = id(flow)
                if fid in seen_flows:
                    continue
                seen_flows.add(fid)
                component.append(flow)
                for other in flow.edge_ids:
                    if other not in seen_edges:
                        seen_edges.add(other)
                        pending.append(other)
        return component

    def _fill(self, flows: List[Flow]) -> None:
        """Progressive filling over ``flows`` (a closed component).

        Per-edge residual capacity and unfixed-user counts are kept as
        dicts keyed by edge id, so each round is one O(edges) scan plus
        O(path) updates per newly fixed flow — no per-round rescan of
        every flow on every edge.
        """
        cap = self._edge_cap
        users = self._edge_users
        residual: Dict[int, float] = {}
        nactive: Dict[int, int] = {}
        for flow in flows:
            flow.allocation = 0.0
            for eid in flow.edge_ids:
                if eid in nactive:
                    nactive[eid] += 1
                else:
                    nactive[eid] = 1
                    residual[eid] = cap[eid]
        unfixed = {id(f) for f in flows}
        while unfixed:
            best_eid, best_share = -1, math.inf
            for eid, n in nactive.items():
                if n:
                    share = residual[eid] / n
                    if share < best_share:
                        best_share, best_eid = share, eid
            if best_eid < 0:
                break  # remaining flows cross no constrained edge
            for flow in users[best_eid]:
                if id(flow) in unfixed:
                    flow.allocation = best_share
                    unfixed.discard(id(flow))
                    for eid in flow.edge_ids:
                        remaining = residual[eid] - best_share
                        residual[eid] = remaining if remaining > 0.0 else 0.0
                        nactive[eid] -= 1

    def _schedule_next_completion(self) -> None:
        horizon = math.inf
        for flow in self._flows:
            if flow.allocation > 0:
                eta = flow.remaining / flow.allocation
                if eta < horizon:
                    horizon = eta
        if math.isinf(horizon):
            return
        Timeout(self.sim, max(horizon, 0.0),
                value=self._epoch).add_callback(self._wake)

    def _wake(self, timer: Event) -> None:
        epoch = timer.value
        trace = self.sim.trace
        if trace is not None and "network" not in trace.active:
            trace = None
        if epoch != self._epoch:
            self.sim.stats.wakeups_cancelled += 1
            if trace is not None:
                trace.instant("network", "stale-wakeup", epoch=epoch,
                              current=self._epoch)
            return
        self._settle()
        # Two completion criteria: the work is relatively drained, or the
        # residual would drain within a nanosecond at the current rate.
        # The latter absorbs the absolute float error of time deltas
        # (|now| * eps * rate), which can exceed any relative threshold
        # and would otherwise cause sub-ulp wakeup livelocks.
        finished = [f for f in self._flows
                    if f.remaining <= _EPS * f.total
                    or (f.allocation > 0
                        and f.remaining <= f.allocation * 1e-9)]
        seed: List[int] = []
        for flow in finished:
            self._flows.remove(flow)
            for eid in flow.edge_ids:
                self._edge_users[eid].remove(flow)
            seed.extend(flow.edge_ids)
            if trace is not None:
                trace.complete("network", "flow", ts=flow.started_at,
                               dur=self.sim.now - flow.started_at,
                               src=flow.src, dst=flow.dst, bytes=flow.total)
        self._reallocate(seed_edges=seed)
        for flow in finished:
            flow.event.succeed(self.sim.now - flow.started_at)

    @property
    def active_flows(self) -> int:
        return len(self._flows)
