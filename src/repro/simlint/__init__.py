"""repro.simlint — determinism & kernel-discipline static analysis.

An AST-based linter enforcing the invariants the rest of the repository
relies on for byte-identical same-seed runs: no wall-clock reads, no
global RNG state, ordered iteration in placement paths, no id()-based
ordering, kernel state changes only through the public event API.  On
top of the per-statement rules (SL001–SL010), a project symbol graph
(:mod:`repro.simlint.symbols`) and a yield-point dataflow pass
(:mod:`repro.simlint.flow`) catch cross-event interleaving hazards in
simulated-process generators: stale read-modify-writes, containers
mutated under a suspended iteration, shared RNG streams, and stale
cache returns (SL020–SL023).  Run it with ``repro lint`` (see ``repro
lint --list-rules`` for the rule table, DESIGN.md §5 for the invariant
mapping, and AUTHORING.md in this package for how to add a rule).
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
from .symbols import ModuleSymbols, ProjectGraph, build_graph, extract_symbols

__all__ = [
    "ALL_RULE_IDS",
    "ERROR",
    "Finding",
    "LintResult",
    "ModuleSymbols",
    "PARSE_ERROR_ID",
    "ProjectGraph",
    "RULES",
    "Rule",
    "UnknownRuleError",
    "WARNING",
    "apply_baseline",
    "build_graph",
    "discover_files",
    "extract_symbols",
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
