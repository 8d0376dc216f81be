"""Finding and severity primitives shared across the simlint package.

A :class:`Finding` is one rule violation at one source location.
Findings order by location, then rule, so a sorted report is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ERROR", "WARNING", "SEVERITIES", "Finding"]

#: Severity levels.  Both fail the lint run; severity orders the report
#: and tells a reader how confident the rule is that the finding is a
#: genuine determinism hazard (errors) vs. a discipline smell (warnings).
ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # posix-style path relative to the lint root
    line: int  # 1-based
    col: int  # 0-based, as reported by the ast module
    rule: str  # e.g. "SL003"
    severity: str  # ERROR or WARNING
    message: str  # what is wrong at this site
    hint: str  # the rule's fix-it hint

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"
