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

from typing import Dict, List, Optional

from .jobs import JobSpec

__all__ = ["FairShareQueue"]

#: priority credit per second queued; a job gains the full usage
#: spread after ``1/AGING_WEIGHT`` seconds of waiting
AGING_WEIGHT = 1e-4


class FairShareQueue:
    """Queued specs ordered by fair-share priority (lower = sooner)."""

    def __init__(self) -> None:
        self._entries: List[tuple] = []  # (seq, spec)
        self._ticket = 0
        #: cpu-seconds each user has consumed so far
        self.usage: Dict[str, float] = {}
        #: memoized dispatch order; valid until push/remove/charge
        self._order_cache: Optional[List[JobSpec]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def user_queued(self, user: str) -> int:
        return sum(1 for _seq, spec in self._entries if spec.user == user)

    def specs(self) -> List[JobSpec]:
        """Queued specs in arrival order (no priority sort)."""
        return [spec for _seq, spec in self._entries]

    def push(self, spec: JobSpec) -> None:
        self._entries.append((self._ticket, spec))
        self._ticket += 1
        self._order_cache = None

    def remove(self, name: str) -> JobSpec:
        for i, (_seq, spec) in enumerate(self._entries):
            if spec.name == name:
                del self._entries[i]
                self._order_cache = None
                return spec
        raise KeyError(f"job {name!r} is not queued")

    def charge(self, user: str, cpu_seconds: float) -> None:
        """Account completed work against a user's fair share."""
        self.usage[user] = self.usage.get(user, 0.0) + cpu_seconds
        self._order_cache = None

    def _key(self, seq: int, spec: JobSpec, now: float, scale: float):
        share = self.usage.get(spec.user, 0.0) / scale
        aging = AGING_WEIGHT * max(now - spec.submit_time, 0.0)
        return (share - aging - spec.priority, seq)

    def ordered(self, now: float) -> List[JobSpec]:
        """Queued specs in dispatch order at simulated time ``now``.

        The order is memoized between mutations: every queued job's
        aging credit grows at the same :data:`AGING_WEIGHT` rate, so the
        *relative* ranking is invariant in ``now`` while the entry set,
        priorities and usage table are unchanged — only push/remove/
        charge can reorder, and each of those drops the cache.
        """
        cached = self._order_cache
        if cached is not None:
            return list(cached)
        scale = max(max(self.usage.values(), default=0.0), 1.0)
        ranked = sorted(self._entries,
                        key=lambda entry: self._key(entry[0], entry[1],
                                                    now, scale))
        order = [spec for _seq, spec in ranked]
        self._order_cache = order
        return list(order)
