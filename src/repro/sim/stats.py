"""Cheap performance counters for the simulation substrate.

Every :class:`~repro.sim.kernel.Simulator` owns a :class:`KernelStats`
instance (``sim.stats``).  The kernel increments ``events_processed``
per agenda entry; the MicroGrid layers increment the substrate counters
(``reallocations`` on every max-min recomputation, ``wakeups_cancelled``
whenever a stale epoch-guarded completion wake-up fires, and the route
cache hit/miss pair); the workflow scheduler increments the ``sched_*``
trio (list-scheduling rounds, per-cell completion-time evaluations, and
NWS transfer-forecast memo hits); the metascheduler increments the
``meta_*`` family (submissions, rejections, starts, completions,
backfills, reservations, cumulative queue-wait and served
cpu-seconds) plus the ``meta_plan_*`` planner family (rounds,
reservations booked vs those that repeat the job's previous plan,
window feasibility probes, estimate memo hits, scheduled wakes) — the
``meta_plan_*`` counters describe *how* a plan was computed, so they
are flagged diagnostic in ``_COUNTERS`` and collected as
:data:`DIAGNOSTIC_COUNTERS`, the one group excluded from deterministic
experiment reports (window probes and memo hits differ between the
planner and the linear-scan oracle it is tested against by design).
``_COUNTERS`` declares every counter once; ``__slots__``,
:meth:`KernelStats.reset`, :meth:`KernelStats.snapshot` and
:func:`format_stats` are derived from it.  Counters are plain numeric
attributes on a slotted object, so updating one costs a single
attribute store — cheap enough to leave enabled in every run.

These numbers answer the questions the substrate benchmarks ask: how
many agenda entries a workload costs, how much of that is wasted on
stale wake-ups, and whether routing work is being amortised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

__all__ = ["DIAGNOSTIC_COUNTERS", "KernelStats", "format_stats"]

#: Every counter, declared once: (attribute, ``format_stats`` label,
#: format spec, diagnostic?).  Table order is the order of
#: ``__slots__``, ``snapshot()`` and ``format_stats``; a ``.1f`` format
#: marks a float counter (reset to ``0.0``), the rest count integers.
_COUNTERS = (
    ("events_processed", "events processed", "", False),
    ("reallocations", "reallocations", "", False),
    ("wakeups_cancelled", "stale wake-ups", "", False),
    ("route_cache_hits", "route cache hits", "", False),
    ("route_cache_misses", "route cache misses", "", False),
    ("sched_rounds", "scheduler rounds", "", False),
    ("sched_evaluations", "candidate evals", "", False),
    ("sched_memo_hits", "forecast memo hits", "", False),
    ("meta_submitted", "jobs submitted", "", False),
    ("meta_rejected", "jobs rejected", "", False),
    ("meta_started", "jobs started", "", False),
    ("meta_completed", "jobs completed", "", False),
    ("meta_backfilled", "jobs backfilled", "", False),
    ("meta_reservations", "reservations made", "", False),
    ("meta_queue_wait_seconds", "queue-wait seconds", ".1f", False),
    ("meta_cpu_seconds", "cpu-seconds served", ".1f", False),
    ("meta_plan_rounds", "planning rounds", "", True),
    ("meta_plan_kept", "reservations kept", "", True),
    ("meta_plan_rebuilt", "reservations rebuilt", "", True),
    ("meta_plan_window_probes", "window probes", "", True),
    ("meta_plan_estimate_memo_hits", "estimate memo hits", "", True),
    ("meta_plan_wakes", "wakes scheduled", "", True),
)

#: Counters that describe how a result was computed, not the result.
#: Deterministic reports leave them out; :meth:`KernelStats.snapshot`
#: keeps them.
DIAGNOSTIC_COUNTERS = tuple(name for name, _label, _fmt, diagnostic
                            in _COUNTERS if diagnostic)

#: the derived hit rate follows this counter in snapshots and listings
_HIT_RATE_AFTER = "route_cache_misses"


class KernelStats:
    """Per-simulator performance counters (all monotonically increasing)."""

    __slots__ = tuple(name for name, _label, _fmt, _diag in _COUNTERS)

    if TYPE_CHECKING:
        # The counter attributes come from _COUNTERS; let type checkers
        # see them.  Nothing here exists at run time.
        def __getattr__(self, name: str) -> Any:
            ...

        def __setattr__(self, name: str, value: Any) -> None:
            ...

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (e.g. after a warm-up phase)."""
        for name, _label, fmt, _diag in _COUNTERS:
            setattr(self, name, 0.0 if fmt else 0)

    @property
    def route_cache_hit_rate(self) -> float:
        """Fraction of route lookups served from cache (1.0 when idle)."""
        total = self.route_cache_hits + self.route_cache_misses
        if total == 0:
            return 1.0
        return self.route_cache_hits / total

    def snapshot(self) -> Dict[str, float]:
        """Counters as a plain dict (for results objects and the CLI)."""
        out: Dict[str, float] = {}
        for name, _label, _fmt, _diag in _COUNTERS:
            out[name] = getattr(self, name)
            if name == _HIT_RATE_AFTER:
                out["route_cache_hit_rate"] = self.route_cache_hit_rate
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<KernelStats events={self.events_processed}"
                f" reallocs={self.reallocations}"
                f" stale_wakeups={self.wakeups_cancelled}"
                f" route_hit_rate={self.route_cache_hit_rate:.3f}>")


def format_stats(stats: "KernelStats", elapsed_wall: float = 0.0) -> str:
    """Human-readable counter block, optionally with an events/sec rate."""
    lines = []
    for name, label, fmt, _diag in _COUNTERS:
        lines.append(f"{label:<20} : {getattr(stats, name):{fmt}}")
        if name == _HIT_RATE_AFTER:
            lines.append("route cache hit rate : "
                         f"{stats.route_cache_hit_rate:.3f}")
    if elapsed_wall > 0:
        rate = stats.events_processed / elapsed_wall
        lines.append(f"events/sec (wall)    : {rate:,.0f}")
    return "\n".join(lines)
