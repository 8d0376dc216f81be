"""Grid Information Service (GIS), in the spirit of MDS.

The GrADS scheduler and binder both start by asking "what resources
exist and what is installed where" (§2, §3.1).  This module provides
that directory: resource records for hosts, looked up by name or listed
fastest first, the way MDS's LDAP-style lookups were used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..microgrid.dml import Grid
from ..microgrid.host import Host

__all__ = ["ResourceRecord", "GridInformationService", "GISError"]


class GISError(KeyError):
    """Raised when a lookup cannot be satisfied."""


@dataclass(frozen=True)
class ResourceRecord:
    """Directory entry for one compute resource."""

    name: str
    site: str
    cluster: Optional[str]
    isa: str
    mflops: float
    cores: int
    memory_bytes: int
    cache_bytes: int

    @classmethod
    def from_host(cls, host: Host) -> "ResourceRecord":
        return cls(
            name=host.name,
            site=host.site,
            cluster=host.cluster_name,
            isa=host.arch.isa,
            mflops=host.arch.mflops,
            cores=host.cores,
            memory_bytes=host.arch.memory_bytes,
            cache_bytes=host.arch.caches[0].size if host.arch.caches else 0,
        )


class GridInformationService:
    """An in-memory MDS: register resources, look them up."""

    def __init__(self) -> None:
        self._records: Dict[str, ResourceRecord] = {}
        self._hosts: Dict[str, Host] = {}
        #: each ISA's records (every record under None) in
        #: :meth:`fastest_first` order, built on first use and dropped
        #: whenever a registration changes
        self._by_speed: Dict[Optional[str], List[ResourceRecord]] = {}

    # -- registration ---------------------------------------------------------
    def register_host(self, host: Host) -> ResourceRecord:
        record = ResourceRecord.from_host(host)
        self._records[record.name] = record
        self._hosts[record.name] = host
        self._by_speed.clear()
        return record

    def register_grid(self, grid: Grid) -> None:
        """Register every host of a built grid."""
        for host in grid.all_hosts():
            self.register_host(host)

    def unregister(self, name: str) -> None:
        if name not in self._records:
            raise GISError(f"unknown resource {name!r}")
        del self._records[name]
        del self._hosts[name]
        self._by_speed.clear()

    # -- lookups ----------------------------------------------------------------
    def lookup(self, name: str) -> ResourceRecord:
        try:
            return self._records[name]
        except KeyError:
            raise GISError(f"unknown resource {name!r}") from None

    def host(self, name: str) -> Host:
        """Resolve a record name back to the live host object."""
        try:
            return self._hosts[name]
        except KeyError:
            raise GISError(f"unknown resource {name!r}") from None

    def resources(self) -> List[ResourceRecord]:
        """All registered resources, in a stable (name) order."""
        return [self._records[k] for k in sorted(self._records)]

    def fastest_first(self, isa: Optional[str] = None
                      ) -> List[ResourceRecord]:
        """The registered resources of ``isa`` (of every ISA for None),
        fastest first, then by name.  The list is kept until the next
        registration change, so callers must not modify it."""
        records = self._by_speed.get(isa)
        if records is None:
            records = sorted(
                (r for r in self._records.values()
                 if isa is None or r.isa == isa),
                key=lambda r: (-r.mflops, r.name))
            self._by_speed[isa] = records
        return records

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records
