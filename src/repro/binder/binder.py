"""The distributed GrADS binder (§2).

The binder "executes on all Grid resources specified in the schedule".
The *global* binder queries GIS for the location of all software —
starting with the local binder code itself — then launches a *local*
binder on each scheduled machine.  Each local binder locates the
application libraries, instruments the code with Autopilot sensors,
and configures and compiles the shipped intermediate representation
*on the target*, which is what makes heterogeneous (e.g. IA-32 +
IA-64) resource sets work.

Everything here costs real simulated time: the compilation package is
transferred over the network, and configuring/compiling consume target
CPU, so binding a loaded or slow node is visibly slower — as it was.

The binder does not start the program.  "If the application is an MPI
application, then a global synchronization must be carried out ...
the binder returns control to the application manager which launches
the application after synchronization" (§2): the application's own
manager (:class:`~repro.apps.qr.QrRun`) waits
:data:`MPI_STARTUP_SECONDS` after a bind and then starts its
:class:`~repro.mpi.comm.MpiJob`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..gis.directory import GridInformationService
from ..gis.software import SoftwareNotFound, SoftwareRegistry
from ..microgrid.host import HostFailure
from ..microgrid.network import Topology
from ..sim.events import AllOf, Event
from ..sim.kernel import Simulator
from ..cop.cop import ConfigurableObjectProgram

__all__ = ["BinderError", "BindReport", "DistributedBinder",
           "BINDER_PACKAGE", "MPI_STARTUP_SECONDS",
           "SENSOR_INSTRUMENT_SECONDS"]

#: package name the local binder code is registered under in GIS
BINDER_PACKAGE = "grads-binder"

#: fixed cost of inserting Autopilot sensors into one component
SENSOR_INSTRUMENT_SECONDS = 0.5

#: cost of the MPI global synchronization between bind and launch
MPI_STARTUP_SECONDS = 1.0


class BinderError(RuntimeError):
    """Raised when binding cannot complete (missing software, etc.)."""


@dataclass
class BindReport:
    """Timing breakdown of one bind operation (feeds the Figure 3
    "Grid overhead" bar)."""

    hosts: List[str]
    started_at: float
    finished_at: float
    per_host_seconds: Dict[str, float] = field(default_factory=dict)
    isas: Dict[str, str] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.finished_at - self.started_at


class DistributedBinder:
    """Global binder + per-target local binders."""

    def __init__(self, sim: Simulator, topology: Topology,
                 gis: GridInformationService,
                 software: SoftwareRegistry,
                 package_source: str) -> None:
        """``package_source`` names the host holding the compilation
        package (where the user invoked the application manager)."""
        self.sim = sim
        self.topology = topology
        self.gis = gis
        self.software = software
        self.package_source = package_source

    def bind(self, cop: ConfigurableObjectProgram,
             host_names: Sequence[str]) -> Event:
        """Bind ``cop`` onto the scheduled hosts.

        Returns a process-event whose value is a :class:`BindReport`.
        Fails (raises through the event) if required software is absent
        anywhere — the global binder checks *before* shipping anything.
        """
        if not host_names:
            raise BinderError("empty schedule")
        # Global binder phase: locate the local binder code and all
        # required libraries on every target, via GIS.
        for name in host_names:
            if name not in self.gis:
                raise BinderError(f"host {name!r} not registered in GIS")
            missing = self.software.missing(
                (BINDER_PACKAGE, *cop.package.required_packages), name)
            if missing:
                raise BinderError(
                    f"software missing on {name!r}: {', '.join(missing)}")
        return self.sim.process(self._run(cop, list(host_names)),
                                name=f"binder:{cop.name}")

    def _run(self, cop: ConfigurableObjectProgram, host_names: List[str]):
        # A target that is already down fails the bind before any IR
        # ships; one that dies *during* the bind fails its local binder
        # mid-flight instead.
        for name in host_names:
            host = self.gis.host(name)
            if not host.alive:
                raise HostFailure(host.name)
        report = BindReport(hosts=host_names, started_at=self.sim.now,
                            finished_at=self.sim.now)
        local_binders = [
            self.sim.process(self._local_bind(cop, name, report),
                             name=f"localbinder:{name}")
            for name in host_names
        ]
        try:
            yield AllOf(self.sim, local_binders)
        except Exception:
            # Reap the surviving local binders: once the bind has
            # failed, a sibling failing later would have no waiter and
            # would abort the whole simulation.
            for proc in local_binders:
                proc.kill()
            raise
        report.finished_at = self.sim.now
        return report

    def _local_bind(self, cop: ConfigurableObjectProgram, host_name: str,
                    report: BindReport):
        started = self.sim.now
        host = self.gis.host(host_name)
        # Ship the compilation package (IR + configure script).
        yield self.topology.transfer(self.package_source, host_name,
                                     cop.package.ir_bytes,
                                     tag=f"bind:{cop.name}")
        # Local binder resolves library paths via GIS (zero-cost lookups,
        # but they must succeed — rechecked here in case of races).
        for package in cop.package.required_packages:
            try:
                self.software.locate(package, host_name)
            except SoftwareNotFound as exc:
                raise BinderError(str(exc)) from exc
        # Instrument with Autopilot sensors, then configure and compile
        # on the target machine — target CPU, target ISA.
        yield self.sim.timeout(SENSOR_INSTRUMENT_SECONDS
                               + cop.package.configure_seconds)
        yield host.compute(cop.package.compile_mflop, tag="compile")
        report.per_host_seconds[host_name] = self.sim.now - started
        report.isas[host_name] = host.arch.isa
