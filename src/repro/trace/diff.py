"""Determinism checking: diff two traces, pinpoint the first divergence.

A seeded run of the reproduction is fully deterministic, so two
same-seed runs must emit identical record streams.  This module is the
regression tool that enforces it: ``repro trace diff A B`` exits 0 on
identical traces and prints the first divergent record otherwise —
which, because records arrive in execution order, is the first point
where the two runs' behaviour actually forked (everything before it is
known-equal).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from .export import normalize_records, validate_chrome
from .tracer import Tracer

__all__ = ["Divergence", "first_divergence", "load_trace_file",
           "format_divergence"]


@dataclass(frozen=True)
class Divergence:
    """The first point where two traces disagree.

    ``left``/``right`` are the conflicting record dicts; one of them is
    None when a trace simply ends early (length mismatch).
    """

    index: int
    left: Optional[Dict[str, Any]]
    right: Optional[Dict[str, Any]]

    @property
    def kind(self) -> str:
        if self.left is None or self.right is None:
            return "length"
        return "record"


def _comparable(entry: Dict[str, Any]) -> tuple:
    """A record dict as a canonical comparison key."""
    return (entry.get("run", 0), entry.get("ts"), entry.get("dur", 0.0),
            entry.get("cat"), entry.get("name"),
            tuple(sorted((entry.get("args") or {}).items())))


def first_divergence(a: Union[Tracer, Iterable[Any]],
                     b: Union[Tracer, Iterable[Any]]
                     ) -> Optional[Divergence]:
    """First index where the traces differ, or None when identical."""
    left = normalize_records(a)
    right = normalize_records(b)
    for i, (la, ra) in enumerate(zip(left, right)):
        if _comparable(la) != _comparable(ra):
            return Divergence(index=i, left=la, right=ra)
    if len(left) != len(right):
        i = min(len(left), len(right))
        return Divergence(index=i,
                          left=left[i] if i < len(left) else None,
                          right=right[i] if i < len(right) else None)
    return None


def _chrome_to_records(obj: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Chrome trace-event JSON back into record dicts (metadata dropped)."""
    out = []
    for event in obj.get("traceEvents", []):
        if event.get("ph") == "M":
            continue
        entry: Dict[str, Any] = {
            "ts": event.get("ts", 0.0) / 1e6,
            "cat": event.get("cat"),
            "name": event.get("name"),
            "run": event.get("pid", 0),
            "args": event.get("args") or {},
        }
        if event.get("ph") == "X":
            entry["dur"] = event.get("dur", 0.0) / 1e6
        out.append(entry)
    return out


def load_trace_file(path: str) -> List[Dict[str, Any]]:
    """Load a Chrome trace-event JSON file as record dicts.

    Raises ``ValueError`` naming the first schema problem when the file
    is JSON but not a Chrome trace.
    """
    with open(path) as handle:
        obj = json.load(handle)
    problems = validate_chrome(obj)
    if problems:
        raise ValueError(f"not a Chrome trace: {problems[0]}")
    return _chrome_to_records(obj)


def format_divergence(div: Optional[Divergence],
                      label_a: str = "A", label_b: str = "B") -> str:
    """Human-readable report for the CLI."""
    if div is None:
        return "traces are identical"
    if div.kind == "length":
        present = label_a if div.left is not None else label_b
        record = div.left if div.left is not None else div.right
        return (f"traces diverge at record {div.index}: "
                f"only {present} continues, with "
                f"{record['cat']}:{record['name']} @ t={record['ts']:.6f}")
    def show(entry: Dict[str, Any]) -> str:
        dur = f" dur={entry['dur']:.6f}" if "dur" in entry else ""
        return (f"{entry['cat']}:{entry['name']} @ t={entry['ts']:.6f}"
                f"{dur} args={entry.get('args') or {}}")
    return (f"traces diverge at record {div.index}:\n"
            f"  {label_a}: {show(div.left)}\n"
            f"  {label_b}: {show(div.right)}")
