"""repro.simlint — determinism & kernel-discipline static analysis.

An AST-based linter enforcing the invariants the rest of the repository
relies on for byte-identical same-seed runs: no wall-clock reads, no
global RNG state, ordered iteration in placement paths, no id()-based
ordering, kernel state changes only through the public event API.
Every rule (SL000–SL010) checks one parsed file at a time, and the
engine walks each file once for all of them; a suppression comment is
the only way to accept a finding.  Run it with ``repro lint`` (see
``repro lint --list-rules`` for the rule table, DESIGN.md §5 for the
invariant mapping, and AUTHORING.md in this package for how to add a
rule).
"""

from .engine import LintResult, discover_files, lint_source, lint_tree
from .findings import ERROR, WARNING, Finding
from .report import render_github, render_json, render_rule_table, render_text
from .rules import PARSE_ERROR_ID, RULES, Rule

__all__ = [
    "ERROR",
    "Finding",
    "LintResult",
    "PARSE_ERROR_ID",
    "RULES",
    "Rule",
    "WARNING",
    "discover_files",
    "lint_source",
    "lint_tree",
    "render_github",
    "render_json",
    "render_rule_table",
    "render_text",
]
