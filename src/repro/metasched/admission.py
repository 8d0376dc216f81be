"""Admission control for the submission service.

Every submission is checked against *live* directory state before it
may queue: the GIS must hold enough registered, currently-alive hosts
matching the job's requirements, the NWS forecasts for those hosts
must show usable capacity, and per-service/per-user queue caps must
hold.  A rejection carries a stable reason string (the trace and the
report group by it).

The same validity predicate (:meth:`AdmissionController.usable_hosts`)
is re-evaluated by the service at every planning round, so a host that
is unregistered or crashes *after* its jobs were admitted is dropped
from candidate sets before any placement happens — stale directory
entries can never be admitted onto (the churn tests pin this).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..gis.directory import GISError, GridInformationService
from ..nws.service import NetworkWeatherService
from .jobs import JobSpec

__all__ = ["AdmissionController"]

#: the CPU forecast the ``n_hosts``-th best usable host must reach; a
#: job whose hosts are all busier than this is rejected as overloaded
MIN_FORECAST = 0.05


class AdmissionController:
    """GIS/NWS-backed admission decisions."""

    def __init__(self, gis: GridInformationService,
                 nws: NetworkWeatherService,
                 max_queue: Optional[int] = None,
                 max_per_user: Optional[int] = None) -> None:
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_per_user is not None and max_per_user < 1:
            raise ValueError("max_per_user must be >= 1")
        self.gis = gis
        self.nws = nws
        self.max_queue = max_queue
        self.max_per_user = max_per_user

    # -- live resource state ------------------------------------------------
    def usable_hosts(self, spec: JobSpec) -> List[str]:
        """Names of registered, alive hosts matching the spec, ordered
        fastest-first (then by name) — the planner's preference order.

        The GIS keeps each ISA's records in that order until a
        registration changes, so a round only filters them by
        liveness, which a crash or recovery flips at any time."""
        usable = []
        for record in self.gis.fastest_first(spec.isa):
            try:
                host = self.gis.host(record.name)
            except GISError:
                continue  # a name that no longer resolves
            if host.alive:
                usable.append(record.name)
        return usable

    # -- the admission rule ---------------------------------------------------
    def admit(self, spec: JobSpec, queue_length: int,
              user_queued: int) -> Tuple[bool, str]:
        """``(admitted, reason)``; reason is "" when admitted.

        The usable hosts' CPU series are replayed together first
        (:meth:`NetworkWeatherService.replay_cpu`), so the one-by-one
        forecast reads after it find them up to date; a host with no
        data yet is still probed by its own read, in host order."""
        if self.max_queue is not None and queue_length >= self.max_queue:
            return False, "queue-full"
        if self.max_per_user is not None and user_queued >= self.max_per_user:
            return False, "user-quota"
        hosts = self.usable_hosts(spec)
        if len(hosts) < spec.n_hosts:
            return False, "insufficient-resources"
        self.nws.replay_cpu(hosts)
        forecasts = sorted(
            (self.nws.cpu_forecast(name) for name in hosts), reverse=True)
        if forecasts[spec.n_hosts - 1] < MIN_FORECAST:
            return False, "resources-overloaded"
        return True, ""
