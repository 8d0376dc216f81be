"""repro.simlint — determinism & kernel-discipline static analysis.

An AST-based linter enforcing the invariants the rest of the repository
relies on for byte-identical same-seed runs: no wall-clock reads, no
global RNG state, ordered iteration in placement paths, no id()-based
ordering, kernel state changes only through the public event API.
Every rule (SL000–SL010) checks one parsed file at a time.  Run it
with ``repro lint`` (see ``repro lint --list-rules`` for the rule
table, DESIGN.md §5 for the invariant mapping, and AUTHORING.md in
this package for how to add a rule).
"""

from .baseline import (
    apply_baseline,
    load_baseline,
    make_baseline,
    write_baseline,
)
from .engine import (
    LintResult,
    UnknownRuleError,
    discover_files,
    lint_paths,
    lint_source,
    lint_tree,
    select_rules,
)
from .findings import ERROR, WARNING, Finding
from .report import render_github, render_json, render_rule_table, render_text
from .rules import ALL_RULE_IDS, PARSE_ERROR_ID, RULES, Rule

__all__ = [
    "ALL_RULE_IDS",
    "ERROR",
    "Finding",
    "LintResult",
    "PARSE_ERROR_ID",
    "RULES",
    "Rule",
    "UnknownRuleError",
    "WARNING",
    "apply_baseline",
    "discover_files",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "load_baseline",
    "make_baseline",
    "render_github",
    "render_json",
    "render_rule_table",
    "render_text",
    "select_rules",
    "write_baseline",
]
