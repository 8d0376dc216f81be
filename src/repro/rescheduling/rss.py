"""The Runtime Support System (RSS) daemon.

"An external component (e.g., the rescheduler) interacts with a daemon
called Runtime Support System (RSS).  RSS exists for the duration of
the application execution and can span multiple migrations.  Before the
application is started, the launcher initiates the RSS daemon on the
machine where the user invokes the GrADS application manager.  The
actual application, through the SRS, interacts with RSS to perform some
initialization, to check if the application needs to be checkpointed
and stopped, and to store and retrieve checkpointed data." (§4.1.1)

Here the application manager plays the launcher's part:
:meth:`~repro.appmanager.manager.GradsEnvironment.managed_qr` starts
the RSS on the submission host before the run is started.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.kernel import Simulator

__all__ = ["CheckpointLocation", "CheckpointRecord", "RuntimeSupportSystem"]


@dataclass(frozen=True)
class CheckpointLocation:
    """Where one rank's partition of one dataset is stored."""

    rank: int
    depot_host: str
    key: str
    nbytes: float


@dataclass
class CheckpointRecord:
    """Metadata for one consistent application checkpoint."""

    dataset: str
    progress: int  # application-defined resume point (e.g. iteration)
    n_procs: int  # distribution width at checkpoint time
    total_bytes: float
    block_bytes: float
    locations: Dict[int, CheckpointLocation] = field(default_factory=dict)
    stored_at: float = 0.0

    def location(self, rank: int) -> CheckpointLocation:
        try:
            return self.locations[rank]
        except KeyError:
            raise KeyError(f"dataset {self.dataset!r} has no checkpoint "
                           f"partition for rank {rank}") from None


class RuntimeSupportSystem:
    """Stop-flag and checkpoint-metadata service, one per application run."""

    def __init__(self, sim: Simulator, home_host: str) -> None:
        self.sim = sim
        self.home_host = home_host
        self._stop_requested = False
        self._checkpoints: Dict[str, CheckpointRecord] = {}
        self.stop_requests: List[float] = []

    # -- stop flag ------------------------------------------------------------
    def request_stop(self) -> None:
        """Called by the rescheduler; the app polls via SRS."""
        self._stop_requested = True
        self.stop_requests.append(self.sim.now)

    def clear_stop(self) -> None:
        """Reset before (re)starting the application."""
        self._stop_requested = False

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    # -- checkpoint metadata ------------------------------------------------------
    def store_checkpoint(self, record: CheckpointRecord) -> None:
        record.stored_at = self.sim.now
        self._checkpoints[record.dataset] = record

    def checkpoint(self, dataset: str) -> Optional[CheckpointRecord]:
        return self._checkpoints.get(dataset)
