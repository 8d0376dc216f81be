"""Configurable Object Programs.

"Applications are encapsulated as configurable object programs (COPs),
which can be optimized rapidly for execution on a specific collection
of Grid resources.  A COP includes code for the application (e.g. an
MPI program), a mapper that determines how to map an application's
tasks to a set of resources, and an executable performance model that
estimates the application's performance on a set of resources." (§1)

Here a COP is what the distributed binder ships: the program's name and
its compilation package (the IR, the software the binder must locate
and the configure/compile costs).  The application's code, mapper and
performance model live with the application itself — for the QR
benchmark, :meth:`~repro.apps.qr.QrRun.make_body`,
:meth:`~repro.apps.qr.QrRun.propose_hosts` and
:meth:`~repro.apps.qr.QrRun.predicted_remaining_seconds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["CompilationPackage", "ConfigurableObjectProgram"]


@dataclass(frozen=True)
class CompilationPackage:
    """What the binder ships to every target machine (§2): the source in
    intermediate representation, required libraries, and a configure
    script — summarized here by their costs."""

    ir_bytes: float = 2e6  # size of the IR + configure script
    required_packages: Tuple[str, ...] = ()
    configure_seconds: float = 2.0  # fixed configure-script time
    compile_mflop: float = 2000.0  # compilation work, runs on the target


@dataclass
class ConfigurableObjectProgram:
    """An application ready for GrADS binding."""

    name: str
    package: CompilationPackage = field(default_factory=CompilationPackage)
