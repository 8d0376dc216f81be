"""In-memory spans around the layers' public boundaries.

:class:`SpanRecorder` replaces each boundary in :data:`BOUNDARIES` —
a method on its class, or a module-level function in the namespace
that calls it — with a timing wrapper, for one run only, and restores
the originals on exit.  A span is (boundary, start, end, parent span);
the root span is ``Simulator.run``.  :func:`fold` turns the spans into
per-boundary counts, inclusive time and latency percentiles, and
per-layer self time: a span's duration minus its child spans'.
:class:`InstanceLog` keeps every simulator's counters and every
forecaster built during a run, for snapshots at run end.

Work a kernel callback does outside any wrapped call (the metasched
planning round's own bookkeeping, application models, MPI) lands in
the self time of ``Simulator.run``.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: (span name, layer, module, class or None for a module function,
#: attribute).  Module functions are patched where they are looked up.
BOUNDARIES: Tuple[Tuple[str, str, str, object, str], ...] = (
    ("Simulator.run", "sim", "repro.sim.kernel", "Simulator", "run"),
    ("Topology.transfer", "net", "repro.microgrid.network", "Topology",
     "transfer"),
    ("AdaptiveForecaster.update", "nws", "repro.nws.forecasting",
     "AdaptiveForecaster", "update"),
    ("NetworkWeatherService.cpu_forecast", "nws", "repro.nws.service",
     "NetworkWeatherService", "cpu_forecast"),
    ("NetworkWeatherService.bandwidth_forecast", "nws", "repro.nws.service",
     "NetworkWeatherService", "bandwidth_forecast"),
    ("NetworkWeatherService.transfer_params", "nws", "repro.nws.service",
     "NetworkWeatherService", "transfer_params"),
    ("GradsWorkflowScheduler.schedule", "sched", "repro.scheduler.scheduler",
     "GradsWorkflowScheduler", "schedule"),
    ("MetaScheduler.submit", "meta", "repro.metasched.service",
     "MetaScheduler", "submit"),
    ("ReservationBook.find_window", "meta", "repro.metasched.reservations",
     "ReservationBook", "find_window"),
    ("AdmissionController.admit", "meta", "repro.metasched.admission",
     "AdmissionController", "admit"),
    ("FairShareQueue.ordered", "meta", "repro.metasched.queueing",
     "FairShareQueue", "ordered"),
    ("run_checkpoint_auditors", "soak", "repro.soak.runner", None,
     "run_checkpoint_auditors"),
    ("run_final_auditors", "soak", "repro.soak.runner", None,
     "run_final_auditors"),
    ("chrome_trace", "trace", "repro.soak.invariants", None, "chrome_trace"),
    ("validate_chrome", "trace", "repro.soak.invariants", None,
     "validate_chrome"),
)

LAYERS = ("sim", "net", "nws", "sched", "meta", "soak", "trace")

#: boundary groups whose inclusive time and latencies are reported;
#: a call nested inside another call of the same group counts once
GROUPS: Dict[str, Tuple[str, ...]] = {
    "net.transfer": ("Topology.transfer",),
    "nws.update": ("AdaptiveForecaster.update",),
    "nws.query": ("NetworkWeatherService.cpu_forecast",
                  "NetworkWeatherService.bandwidth_forecast",
                  "NetworkWeatherService.transfer_params"),
    "sched.schedule": ("GradsWorkflowScheduler.schedule",),
    "meta.submit": ("MetaScheduler.submit",),
    "meta.find_window": ("ReservationBook.find_window",),
    "meta.admit": ("AdmissionController.admit",),
    "meta.order": ("FairShareQueue.ordered",),
    "soak.audit": ("run_checkpoint_auditors", "run_final_auditors"),
    "trace.export": ("chrome_trace", "validate_chrome"),
}


class _Patches:
    """Class-level attribute replacements, undone on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, module: str, cls, attr: str, make) -> None:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class InstanceLog(_Patches):
    """Context manager: keeps the ``KernelStats`` of every
    ``Simulator`` and every ``AdaptiveForecaster`` built while active,
    for counter snapshots and history lengths at run end."""

    def __init__(self) -> None:
        super().__init__()
        self.stats: list = []
        self.forecasters: list = []

    def _logging(self, keep):
        def make(init):
            def logged(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                keep(obj)
            return logged
        return make

    def __enter__(self) -> "InstanceLog":
        self.patch("repro.sim.kernel", "Simulator", "__init__",
                   self._logging(lambda sim: self.stats.append(sim.stats)))
        self.patch("repro.nws.forecasting", "AdaptiveForecaster", "__init__",
                   self._logging(self.forecasters.append))
        return self

    def counters(self) -> List[dict]:
        """One ``sim.stats.snapshot()`` per simulator, in build order."""
        return [stats.snapshot() for stats in self.stats]

    def history_len(self) -> int:
        return sum(len(f.history()) for f in self.forecasters)


class SpanRecorder(_Patches):
    """Context manager: wraps every boundary while active.

    ``spans`` holds ``[boundary index, start, end, parent index]``
    lists (parent -1 for a root).
    """

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[list] = []
        self._stack: List[int] = []

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append([index, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[span][2] = clock()
        return wrapper

    def __enter__(self) -> "SpanRecorder":
        for index, (_name, _layer, module, cls, attr) in enumerate(
                BOUNDARIES):
            self.patch(module, cls, attr,
                       lambda fn, index=index: self._wrap(index, fn))
        return self

    def write(self, path: str) -> None:
        """Write the spans as CSV: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (index, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{BOUNDARIES[index][0]},{start:.9f},"
                         f"{end:.9f},{parent}\n")


def _quantile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def fold(spans: List[list]) -> Dict[str, dict]:
    """Per-layer self time and per-group counts, times and latencies."""
    n = len(spans)
    child = [0.0] * n
    for index, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (index, start, end, _parent) in enumerate(spans):
        layer_self[BOUNDARIES[index][1]] += end - start - child[i]

    group_of = {}
    for group, names in GROUPS.items():
        for name in names:
            group_of[name] = group
    calls: Dict[str, List[float]] = {group: [] for group in GROUPS}
    outer: Dict[str, List[float]] = {group: [] for group in GROUPS}
    for index, start, end, parent in spans:
        group = group_of.get(BOUNDARIES[index][0])
        if group is None:
            continue
        calls[group].append(end - start)
        while parent >= 0 and group_of.get(
                BOUNDARIES[spans[parent][0]][0]) != group:
            parent = spans[parent][3]
        if parent < 0:
            outer[group].append(end - start)
    groups = {}
    for group in GROUPS:
        durations = outer[group]
        groups[group] = {
            "n": len(calls[group]),
            "s": sum(durations),
            "p50": _quantile(durations, 0.50),
            "p99": _quantile(durations, 0.99),
        }
    return {"layer_self": layer_self, "groups": groups}
