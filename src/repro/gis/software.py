"""Software location registry — the half of GIS the binder talks to.

Section 2: "the global binder queries the GrADS Information Service
(GIS) to locate necessary software on the scheduled node, starting with
the local binder code" and then "queries GIS for the locations of
application-specific libraries".  This registry records which packages
(binder, MPI, application libraries like ScaLAPACK or EMAN kernels) are
installed on which hosts, and at what path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

__all__ = ["SoftwarePackage", "SoftwareRegistry", "SoftwareNotFound"]


class SoftwareNotFound(KeyError):
    """Raised when a required package is not installed on a host."""


@dataclass(frozen=True)
class SoftwarePackage:
    """An installable unit: a library, the binder itself, a toolchain."""

    name: str
    version: str = "1.0"


class SoftwareRegistry:
    """Tracks (package, host) -> install path."""

    def __init__(self) -> None:
        self._installs: Dict[Tuple[str, str], Tuple[SoftwarePackage, str]] = {}

    def install(self, package: SoftwarePackage, host_name: str,
                path: str = "") -> None:
        """Record that ``package`` is available on ``host_name``."""
        path = path or f"/grads/sw/{package.name}-{package.version}"
        self._installs[(package.name, host_name)] = (package, path)

    def install_everywhere(self, package: SoftwarePackage,
                           host_names: Iterable[str]) -> None:
        for name in host_names:
            self.install(package, name)

    def locate(self, package_name: str, host_name: str) -> str:
        """Install path of a package on a host; raises if absent."""
        try:
            return self._installs[(package_name, host_name)][1]
        except KeyError:
            raise SoftwareNotFound(
                f"{package_name!r} is not installed on {host_name!r}") from None

    def is_installed(self, package_name: str, host_name: str) -> bool:
        return (package_name, host_name) in self._installs

    def missing(self, package_names: Iterable[str],
                host_name: str) -> List[str]:
        """Which of ``package_names`` are absent on ``host_name``."""
        return [p for p in package_names
                if not self.is_installed(p, host_name)]
