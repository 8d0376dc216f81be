"""A small Domain-Modeling-Language-style topology description format.

The MicroGrid takes its virtual-grid descriptions in DML plus "a simple
resource description for the processor nodes" (§4.2).  We provide an
equivalent: a line-oriented text format describing architectures,
clusters, standalone hosts and WAN links, with unit-suffixed quantities.

Example::

    arch pIII-933 mflops=933 isa=ia32 cache=256KB
    arch pII-450  mflops=450 isa=ia32 cache=512KB
    cluster utk  arch=pIII-933 hosts=4 cores=2 nic=100Mb  lat=0.1ms
    cluster uiuc arch=pII-450  hosts=8 cores=1 nic=1.28Gb lat=0.05ms
    link utk uiuc bw=40Mb lat=11ms

Bandwidths accept bit-suffixes (``Kb``/``Mb``/``Gb``, decimal, per
second) and byte-suffixes (``KB``/``MB``/``GB``); times accept ``us``,
``ms``, ``s``.  ``#`` starts a comment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.kernel import Simulator
from .cluster import Cluster
from .host import Architecture, CacheLevel, Host
from .network import Topology

__all__ = ["DMLError", "parse_quantity", "parse_grid", "Grid"]


class DMLError(ValueError):
    """Raised for malformed DML text."""


_BANDWIDTH_UNITS = {
    "b": 1 / 8, "kb": 125.0, "mb": 125e3, "gb": 125e6,  # bits/s -> bytes/s
    "B": 1.0, "KB": 1e3, "MB": 1e6, "GB": 1e9,  # bytes/s
}
_TIME_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_SIZE_UNITS = {"B": 1, "KB": 1024, "MB": 1024 ** 2, "GB": 1024 ** 3}


def parse_quantity(text: str, kind: str) -> float:
    """Parse ``"11ms"`` / ``"1.28Gb"`` / ``"512KB"`` into project units.

    ``kind`` is one of ``"bandwidth"`` (bytes/s), ``"time"`` (seconds)
    or ``"size"`` (bytes).  Bare numbers are taken as already being in
    project units.
    """
    text = text.strip()
    i = len(text)
    while i > 0 and not (text[i - 1].isdigit() or text[i - 1] == "."):
        i -= 1
    number, suffix = text[:i], text[i:]
    try:
        value = float(number)
    except ValueError:
        raise DMLError(f"bad quantity {text!r}") from None
    if not suffix:
        return value
    if kind == "bandwidth":
        # Bit units are case-insensitive except trailing B means bytes.
        if suffix in _BANDWIDTH_UNITS:
            return value * _BANDWIDTH_UNITS[suffix]
        if suffix.lower() in _BANDWIDTH_UNITS:
            return value * _BANDWIDTH_UNITS[suffix.lower()]
    elif kind == "time":
        if suffix in _TIME_UNITS:
            return value * _TIME_UNITS[suffix]
    elif kind == "size":
        if suffix in _SIZE_UNITS:
            return value * _SIZE_UNITS[suffix]
    else:
        raise ValueError(f"unknown quantity kind {kind!r}")
    raise DMLError(f"bad {kind} unit in {text!r}")


class Grid:
    """A built virtual grid: simulator + topology + clusters + hosts."""

    def __init__(self, sim: Simulator, topology: Optional[Topology] = None) -> None:
        self.sim = sim
        self.topology = topology if topology is not None else Topology(sim)
        self.clusters: Dict[str, Cluster] = {}
        self.architectures: Dict[str, Architecture] = {}
        self.standalone_hosts: Dict[str, Host] = {}

    def add_cluster(self, cluster: Cluster) -> Cluster:
        if cluster.name in self.clusters:
            raise DMLError(f"duplicate cluster {cluster.name!r}")
        self.clusters[cluster.name] = cluster
        return cluster

    def add_standalone_host(self, host: Host, uplink_bw: float,
                            uplink_lat: float) -> Host:
        """Attach a single machine (like the paper's lone UCSD node)."""
        self.topology.attach_host(host)
        router = f"{host.name}.uplink"
        self.topology.add_node(router)
        self.topology.add_link(host.name, router, bandwidth=uplink_bw,
                               latency=uplink_lat)
        self.standalone_hosts[host.name] = host
        return host

    def all_hosts(self) -> List[Host]:
        hosts: List[Host] = []
        for cluster in self.clusters.values():
            hosts.extend(cluster.hosts)
        hosts.extend(self.standalone_hosts.values())
        return hosts


def parse_grid(text: str, sim: Simulator) -> Grid:
    """Build a :class:`Grid` from DML text."""
    grid = Grid(sim)
    pending_links: List[Tuple[str, str, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        try:
            if kind == "arch":
                _parse_arch(grid, args)
            elif kind == "cluster":
                _parse_cluster(grid, sim, args)
            elif kind == "host":
                _parse_host(grid, sim, args)
            elif kind == "link":
                pending_links.append(_parse_link(args))
            else:
                raise DMLError(f"unknown directive {kind!r}")
        except DMLError as exc:
            raise DMLError(f"line {lineno}: {exc}") from None
    for a, b, bw, lat in pending_links:
        node_a = _endpoint(grid, a)
        node_b = _endpoint(grid, b)
        grid.topology.add_link(node_a, node_b, bandwidth=bw, latency=lat)
    return grid


def _kv(args: List[str], skip: int = 0) -> Dict[str, str]:
    out = {}
    for item in args[skip:]:
        if "=" not in item:
            raise DMLError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key] = value
    return out


def _parse_arch(grid: Grid, args: List[str]) -> None:
    if not args:
        raise DMLError("arch needs a name")
    name = args[0]
    kv = _kv(args, skip=1)
    if "mflops" not in kv:
        raise DMLError(f"arch {name!r} needs mflops=")
    cache_bytes = int(parse_quantity(kv.get("cache", "512KB"), "size"))
    grid.architectures[name] = Architecture(
        name=name,
        mflops=float(kv["mflops"]),
        isa=kv.get("isa", "ia32"),
        caches=(CacheLevel(size=cache_bytes),),
        memory_bytes=int(parse_quantity(kv.get("memory", "512MB"), "size")),
    )


def _arch(grid: Grid, name: str) -> Architecture:
    try:
        return grid.architectures[name]
    except KeyError:
        raise DMLError(f"unknown arch {name!r}") from None


def _parse_cluster(grid: Grid, sim: Simulator, args: List[str]) -> None:
    if not args:
        raise DMLError("cluster needs a name")
    name = args[0]
    kv = _kv(args, skip=1)
    for req in ("arch", "hosts"):
        if req not in kv:
            raise DMLError(f"cluster {name!r} needs {req}=")
    cluster = Cluster(
        sim, grid.topology, name,
        arch=_arch(grid, kv["arch"]),
        n_hosts=int(kv["hosts"]),
        cores_per_host=int(kv.get("cores", "1")),
        link_bandwidth=parse_quantity(kv.get("nic", "100Mb"), "bandwidth"),
        link_latency=parse_quantity(kv.get("lat", "0.1ms"), "time"),
        site=kv.get("site", ""),
    )
    grid.add_cluster(cluster)


def _parse_host(grid: Grid, sim: Simulator, args: List[str]) -> None:
    if not args:
        raise DMLError("host needs a name")
    name = args[0]
    kv = _kv(args, skip=1)
    if "arch" not in kv:
        raise DMLError(f"host {name!r} needs arch=")
    host = Host(sim, name, _arch(grid, kv["arch"]),
                cores=int(kv.get("cores", "1")))
    grid.add_standalone_host(
        host,
        uplink_bw=parse_quantity(kv.get("nic", "100Mb"), "bandwidth"),
        uplink_lat=parse_quantity(kv.get("lat", "0.1ms"), "time"),
    )


def _parse_link(args: List[str]) -> Tuple[str, str, float, float]:
    if len(args) < 2:
        raise DMLError("link needs two endpoints")
    kv = _kv(args, skip=2)
    for req in ("bw", "lat"):
        if req not in kv:
            raise DMLError(f"link needs {req}=")
    return (args[0], args[1],
            parse_quantity(kv["bw"], "bandwidth"),
            parse_quantity(kv["lat"], "time"))


def _endpoint(grid: Grid, name: str) -> str:
    """Resolve a link endpoint: cluster switch, host uplink, or raw node."""
    if name in grid.clusters:
        return grid.clusters[name].switch
    if name in grid.standalone_hosts:
        return f"{name}.uplink"
    raise DMLError(f"unknown link endpoint {name!r}")
