"""Shared experiment plumbing: result records and table rendering."""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence

__all__ = ["JSON_SCHEMA_VERSION", "format_table", "format_series"]

#: version stamped into every ``--json`` CLI payload as
#: ``schema_version``, so downstream consumers can detect layout
#: changes; bump it whenever a payload's shape changes incompatibly.
JSON_SCHEMA_VERSION = 1


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render an ASCII table (the benches print these, paper-style)."""
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append([_cell(value) for value in row])
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_series(points: Sequence[tuple], x_label: str, y_label: str,
                  title: str = "", max_points: int = 40) -> str:
    """Render an (x, y) series as a table, downsampled for readability."""
    points = list(points)
    if len(points) > max_points:
        stride = max(len(points) // max_points, 1)
        sampled = points[::stride]
        if sampled[-1] != points[-1]:
            sampled.append(points[-1])
        points = sampled
    return format_table([x_label, y_label], points, title=title)

