"""Text and JSON reporters for simlint findings."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .findings import ERROR, Finding
from .rules import RULES

__all__ = ["render_text", "render_json", "render_github",
           "render_rule_table"]


def _summary(findings: Sequence[Finding]) -> str:
    errors = sum(1 for f in findings if f.severity == ERROR)
    return (f"simlint: {len(findings)} finding(s) "
            f"({errors} error(s), {len(findings) - errors} warning(s))")


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines: List[str] = []
    for finding in findings:
        lines.append(f"{finding.location()}: {finding.rule} "
                     f"[{finding.severity}] {finding.message}")
        lines.append(f"    hint: {finding.hint}")
    lines.append(_summary(findings))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable key order, one JSON object)."""
    def as_dict(finding: Finding) -> Dict:
        return {
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "rule": finding.rule,
            "severity": finding.severity,
            "message": finding.message,
            "hint": finding.hint,
        }

    payload = {
        "version": 2,
        "count": len(findings),
        "findings": [as_dict(f) for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _gh_escape_message(text: str) -> str:
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def _gh_escape_property(text: str) -> str:
    return (_gh_escape_message(text).replace(":", "%3A")
            .replace(",", "%2C"))


def render_github(findings: Sequence[Finding],
                  display_paths: Optional[Dict[str, str]] = None) -> str:
    """GitHub Actions workflow-command annotations, one per finding.

    ``display_paths`` remaps a finding's lint-root-relative path to a
    repository-relative path so the annotation anchors to the real
    file in the PR diff; unmapped paths pass through unchanged.
    """
    lines: List[str] = []
    for finding in findings:
        path = (display_paths or {}).get(finding.path, finding.path)
        level = "error" if finding.severity == ERROR else "warning"
        message = f"{finding.message} — hint: {finding.hint}"
        lines.append(
            f"::{level} file={_gh_escape_property(path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title={_gh_escape_property(f'simlint {finding.rule}')}"
            f"::{_gh_escape_message(message)}")
    lines.append(_summary(findings))
    return "\n".join(lines)


def render_rule_table() -> str:
    """The registered rules, for ``repro lint --list-rules``."""
    lines = []
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        lines.append(f"{rule.id}  [{rule.severity:7s}] {rule.summary}")
    return "\n".join(lines)
