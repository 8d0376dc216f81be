"""The tracer: sim-time-stamped records with a near-zero disabled path.

Design constraints, in priority order:

1. **Free when absent.**  Instrumentation sites guard on
   ``sim.trace is not None`` (the kernel run loop hoists that check to
   a local boolean outside its hot loop), so an untraced run pays one
   attribute load per hook site and nothing per kernel event.
2. **Cheap when filtered.**  A bound tracer exposes ``active``, a
   frozenset of enabled categories; a hook for a disabled category
   costs one set-membership test and allocates nothing.
3. **Bounded.**  Records land in a ring buffer (``capacity`` entries);
   the oldest records are dropped first and ``dropped`` counts them, so
   a long run can never exhaust memory.
4. **Deterministic.**  Records carry only simulation-derived data
   (virtual timestamps, names, numeric args) — never wall-clock time or
   object ids — so two same-seed runs produce identical traces.

A tracer binds to one :class:`~repro.sim.kernel.Simulator` at a time
via :meth:`Tracer.bind`; rebinding (as the fig3 sweep does, one fresh
simulator per bar) bumps the record ``run`` index so multi-run traces
keep their timelines apart when exported.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["CATEGORIES", "Instant", "Span", "Tracer"]

#: every category the built-in instrumentation emits
CATEGORIES: Tuple[str, ...] = (
    "kernel",      # event dispatch in the simulator run loop
    "network",     # flow add/drop, reallocation epochs, stale wakeups
    "scheduler",   # per-heuristic decision spans and task commits
    "contract",    # ratio samples, violations, migration requests
    "reschedule",  # SRS checkpoint/restart, swaps, rescheduler decisions
    "fault",       # failure injections and every recovery decision
    "metasched",   # submission-service lifecycle (queue/reserve/start/...)
    "meta",        # run markers written by the experiment drivers
)


class Instant:
    """A point event at one simulated time."""

    __slots__ = ("ts", "cat", "name", "args", "run")

    def __init__(self, ts: float, cat: str, name: str,
                 args: Optional[Dict[str, Any]] = None, run: int = 0) -> None:
        self.ts = ts
        self.cat = cat
        self.name = name
        self.args = args
        self.run = run

    def key(self) -> tuple:
        """Comparable identity (used by the determinism diff)."""
        return (self.run, self.ts, 0.0, self.cat, self.name,
                tuple(sorted((self.args or {}).items())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Instant {self.cat}:{self.name} @ {self.ts:.6f}>"


class Span:
    """An interval ``[ts, ts + dur]`` of simulated time."""

    __slots__ = ("ts", "dur", "cat", "name", "args", "run")

    def __init__(self, ts: float, dur: float, cat: str, name: str,
                 args: Optional[Dict[str, Any]] = None, run: int = 0) -> None:
        self.ts = ts
        self.dur = dur
        self.cat = cat
        self.name = name
        self.args = args
        self.run = run

    def key(self) -> tuple:
        return (self.run, self.ts, self.dur, self.cat, self.name,
                tuple(sorted((self.args or {}).items())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.cat}:{self.name} @ {self.ts:.6f} "
                f"+{self.dur:.6f}>")


class Tracer:
    """Collects trace records from one (or a sequence of) simulators."""

    def __init__(self, categories: Optional[Iterable[str]] = None,
                 capacity: int = 1_000_000) -> None:
        """``categories=None`` enables everything in :data:`CATEGORIES`;
        ``categories=()`` builds a tracer whose ``active`` set is empty,
        which is how the overhead benchmark measures the disabled path
        with the hooks still attached."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if categories is not None:
            unknown = set(categories) - set(CATEGORIES)
            if unknown:
                raise ValueError(f"unknown trace categories {sorted(unknown)}; "
                                 f"have {list(CATEGORIES)}")
        self.active: FrozenSet[str] = frozenset(
            CATEGORIES if categories is None else categories)
        self.capacity = capacity
        self.dropped = 0
        self.run = 0
        self._records: deque = deque(maxlen=capacity)
        self._sim = None  # bound Simulator, if any

    # -- binding -----------------------------------------------------------
    def bind(self, sim) -> "Tracer":
        """Attach to a simulator (``sim.trace = self``); returns self.

        Rebinding to a fresh simulator starts a new ``run`` index so the
        timelines of sequential runs stay distinct in exports.
        """
        if self._sim is not None and self._sim is not sim:
            self.run += 1
        self._sim = sim
        sim.trace = self
        return self

    @property
    def now(self) -> float:
        """Current simulated time of the bound simulator."""
        if self._sim is None:
            raise RuntimeError("tracer is not bound to a simulator")
        return self._sim.now

    # -- recording ---------------------------------------------------------
    def _append(self, record) -> None:
        buf = self._records
        if len(buf) == self.capacity:
            self.dropped += 1
        buf.append(record)

    def instant(self, cat: str, name: str, **args: Any) -> None:
        """Record a point event at the current simulated time."""
        if cat in self.active:
            self._append(Instant(self.now, cat, name, args or None, self.run))

    def complete(self, cat: str, name: str, ts: float, dur: float,
                 **args: Any) -> None:
        """Record a span with explicit begin time and duration.

        This is the span form generator-based sim code uses: capture
        ``t0 = sim.now``, let simulated time pass across yields, then
        record ``complete(..., ts=t0, dur=sim.now - t0)``.
        """
        if cat in self.active:
            self._append(Span(ts, dur, cat, name, args or None, self.run))

    def kernel_event(self, ts: float, event) -> None:
        """Fast-path instant for the kernel dispatch loop (no kwargs)."""
        self._append(Instant(ts, "kernel",
                             event.name or type(event).__name__,
                             None, self.run))

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[Any]:
        """Records in arrival order (oldest surviving first)."""
        return list(self._records)

    def select(self, cat: str) -> List[Any]:
        """Records of one category, in arrival order."""
        return [r for r in self._records if r.cat == cat]

    def clear(self) -> None:
        """Drop all records (the ``dropped`` counter is reset too)."""
        self._records.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Tracer records={len(self._records)} dropped={self.dropped}"
                f" active={sorted(self.active)}>")
