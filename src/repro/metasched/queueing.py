"""The fair-share submission queue.

Priority is *fair share with aging*: a job's effective priority is its
owner's accumulated resource usage (cpu-seconds, normalized by the
heaviest user) minus an aging credit that grows with time spent
queued.  Light users therefore go first, but nobody starves — any job
eventually ages past the usage spread.  Ties (including the cold-start
case where nobody has usage) break by submission order, which keeps
the queue deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .jobs import JobSpec

__all__ = ["FairShareQueue"]

#: priority credit per second queued; a job gains the full usage
#: spread after ``1/AGING_WEIGHT`` seconds of waiting
AGING_WEIGHT = 1e-4


class FairShareQueue:
    """Queued specs ordered by fair-share priority (lower = sooner)."""

    def __init__(self) -> None:
        #: queued job name -> (ticket, spec), in arrival order
        self._entries: Dict[str, Tuple[int, JobSpec]] = {}
        self._ticket = 0
        #: queued jobs per user (the admission quota reads it)
        self._per_user: Dict[str, int] = {}
        #: cpu-seconds each user has consumed so far
        self.usage: Dict[str, float] = {}
        #: memoized dispatch order; valid until push/remove/charge
        self._order_cache: Optional[List[JobSpec]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def user_queued(self, user: str) -> int:
        return self._per_user.get(user, 0)

    def push(self, spec: JobSpec) -> None:
        if spec.name in self._entries:
            raise ValueError(f"job {spec.name!r} is already queued")
        self._entries[spec.name] = (self._ticket, spec)
        self._ticket += 1
        self._per_user[spec.user] = self._per_user.get(spec.user, 0) + 1
        self._order_cache = None

    def remove(self, name: str) -> JobSpec:
        entry = self._entries.pop(name, None)
        if entry is None:
            raise KeyError(f"job {name!r} is not queued")
        spec = entry[1]
        self._per_user[spec.user] -= 1
        self._order_cache = None
        return spec

    def charge(self, user: str, cpu_seconds: float) -> None:
        """Account completed work against a user's fair share."""
        self.usage[user] = self.usage.get(user, 0.0) + cpu_seconds
        self._order_cache = None

    def ordered(self, now: float) -> List[JobSpec]:
        """Queued specs in dispatch order at simulated time ``now``.

        A job's key is its owner's usage share minus its aging credit
        and priority, ties broken by arrival ticket.  The order is
        memoized between mutations: every queued job's aging credit
        grows at the same :data:`AGING_WEIGHT` rate, so the *relative*
        ranking is invariant in ``now`` while the entry set, priorities
        and usage table are unchanged — only push/remove/charge can
        reorder, and each of those drops the cache.
        """
        order = self._order_cache
        if order is None:
            usage = self.usage
            share = usage.get
            scale = max(max(usage.values(), default=0.0), 1.0)
            ranked = [(share(spec.user, 0.0) / scale
                       - AGING_WEIGHT * max(now - spec.submit_time, 0.0)
                       - spec.priority, seq, spec)
                      for seq, spec in self._entries.values()]
            ranked.sort()
            order = self._order_cache = [spec for _key, _seq, spec in ranked]
        return list(order)
