"""Trace exporter: Chrome trace-event JSON.

The file loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  It is rendered with sorted keys and fixed
separators so a deterministic run produces a byte-identical file — that
property is what ``repro trace diff`` and the CI determinism job lean
on.

Timestamps: records carry simulated *seconds*; Chrome trace events use
microseconds, so export multiplies by 1e6.  Each ``run`` index (one per
simulator a tracer was bound to) becomes a Chrome ``pid`` and each
category a ``tid``, keeping sequential experiment runs on separate
tracks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from .tracer import CATEGORIES, Span, Tracer

__all__ = ["chrome_trace", "validate_chrome", "write_chrome",
           "records_as_dicts", "normalize_records"]

#: stable category -> Chrome tid assignment (1-based, CATEGORIES order)
_TID = {cat: i + 1 for i, cat in enumerate(CATEGORIES)}

_PHASES = frozenset("XiBEMCbens")  # phases we accept when validating


def _records_of(trace: Union[Tracer, Iterable[Any]]) -> List[Any]:
    return trace.records if isinstance(trace, Tracer) else list(trace)


def records_as_dicts(trace: Union[Tracer, Iterable[Any]]
                     ) -> List[Dict[str, Any]]:
    """Records as plain dicts (the diff/analysis currency)."""
    out = []
    for record in _records_of(trace):
        entry: Dict[str, Any] = {
            "ts": record.ts,
            "cat": record.cat,
            "name": record.name,
            "run": record.run,
            "args": record.args or {},
        }
        if isinstance(record, Span):
            entry["dur"] = record.dur
        out.append(entry)
    return out


def normalize_records(trace: Union[Tracer, Iterable[Any]]
                      ) -> List[Dict[str, Any]]:
    """Accept a Tracer, record objects, or record dicts; return dicts."""
    if isinstance(trace, Tracer):
        return records_as_dicts(trace)
    records = list(trace)
    if records and not isinstance(records[0], dict):
        return records_as_dicts(records)
    return records


def chrome_trace(trace: Union[Tracer, Iterable[Any]]) -> Dict[str, Any]:
    """Build the Chrome trace-event JSON object for a tracer's records."""
    events: List[Dict[str, Any]] = []
    runs = set()
    for record in _records_of(trace):
        runs.add(record.run)
        event: Dict[str, Any] = {
            "name": record.name,
            "cat": record.cat,
            "ts": record.ts * 1e6,
            "pid": record.run,
            "tid": _TID.get(record.cat, len(_TID) + 1),
        }
        if record.args:
            event["args"] = record.args
        if isinstance(record, Span):
            event["ph"] = "X"
            event["dur"] = record.dur * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
    # Name the per-category tracks so Perfetto shows readable lanes.
    for run in sorted(runs):
        for cat, tid in _TID.items():
            events.append({"name": "thread_name", "ph": "M", "pid": run,
                           "tid": tid, "args": {"name": cat}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome(obj: Any) -> List[str]:
    """Check an object against the Chrome trace-event schema.

    Returns a list of problems (empty = valid).  This is the validation
    the CI trace-smoke job runs; it covers the subset of the spec the
    exporter uses plus the structural rules every consumer relies on.
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: bad phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if phase != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: missing numeric ts")
            if not isinstance(event.get("cat"), str):
                problems.append(f"{where}: missing cat")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


def write_chrome(trace: Union[Tracer, Iterable[Any]], path: str) -> None:
    """Write Chrome trace-event JSON (deterministic byte layout)."""
    payload = chrome_trace(trace)
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
