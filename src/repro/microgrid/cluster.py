"""Cluster construction helpers.

A cluster is a set of identical hosts joined by a local switch node with
uniform intra-cluster links, which matches how the GrADS testbed sites
(UTK, UIUC, UCSD, UH) were built: homogeneous Linux boxes behind one
switched Ethernet or Myrinet fabric.
"""

from __future__ import annotations

from typing import List

from ..sim.kernel import Simulator
from .host import Architecture, Host
from .network import Topology

__all__ = ["Cluster"]


class Cluster:
    """A named set of identical hosts behind a shared switch."""

    def __init__(self, sim: Simulator, topology: Topology, name: str,
                 arch: Architecture, n_hosts: int, cores_per_host: int = 1,
                 link_bandwidth: float = 12.5e6, link_latency: float = 1e-4,
                 site: str = "") -> None:
        """Build the cluster and wire it into ``topology``.

        ``link_bandwidth`` is the per-host NIC capacity in bytes/s
        (100 Mb Ethernet ≈ 12.5e6 B/s, Myrinet 1.28 Gb ≈ 160e6 B/s).
        """
        if n_hosts < 1:
            raise ValueError("a cluster needs at least one host")
        self.sim = sim
        self.topology = topology
        self.name = name
        self.arch = arch
        self.site = site or name
        self.switch = f"{name}.switch"
        topology.add_node(self.switch)
        self.hosts: List[Host] = []
        for i in range(n_hosts):
            host = Host(sim, f"{name}.n{i}", arch, cores=cores_per_host)
            host.cluster_name = name
            host.site = self.site
            topology.attach_host(host)
            topology.add_link(host.name, self.switch,
                              bandwidth=link_bandwidth, latency=link_latency)
            self.hosts.append(host)

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)

    def __getitem__(self, index: int) -> Host:
        return self.hosts[index]

    def host_names(self) -> List[str]:
        return [h.name for h in self.hosts]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cluster {self.name} {len(self.hosts)}x{self.arch.name}"
                f" @{self.arch.mflops:.0f}Mflop/s>")
