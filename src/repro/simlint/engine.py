"""simlint engine: discovery, suppressions, rule execution.

The engine makes one pass: it parses each file, serially and in
discovery order, and runs the selected rules on it.  Every rule sees
one file at a time, so there is no cross-file state, no cache and no
worker pool.

Findings then pass through two suppression mechanisms:

* **line suppressions** — a trailing comment on the flagged line::

      eid = pending.pop()  # simlint: ignore[SL003] — LIFO order is deterministic

  ``ignore`` without a rule list suppresses every rule on that line.
  Text after the bracket (or after ``ignore``) is a free-form
  justification and is encouraged.  For a *multi-line* statement the
  comment may sit on any line of the statement (e.g. after the
  opening parenthesis of a spread-out call) — it covers findings
  reported on every line the statement spans.

* **file suppressions** — a comment line anywhere in the file (by
  convention near the top)::

      # simlint: ignore-file[SL001] — benchmark harness, wall-clock is the point

Baselines (grandfathered findings) are a third layer handled by
``repro.simlint.baseline`` on top of what this module returns.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .findings import Finding, fingerprint_of
from .rules import PARSE_ERROR_ID, RULES, build_context

__all__ = ["lint_source", "lint_paths", "lint_tree", "discover_files",
           "select_rules", "UnknownRuleError", "SUPPRESS_RE", "LintResult"]

SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>ignore-file|ignore)\s*"
    r"(?:\[(?P<rules>[A-Za-z0-9 ,]*)\])?")


class UnknownRuleError(ValueError):
    """A --select/--ignore list named a rule id that does not exist."""


def select_rules(select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> Tuple[str, ...]:
    """Resolve --select/--ignore lists to an ordered tuple of rule ids."""
    chosen = _validated(select) if select is not None else set(RULES)
    if ignore is not None:
        chosen -= _validated(ignore)
    return tuple(sorted(chosen))


def _validated(ids: Iterable[str]) -> Set[str]:
    result = set()
    for raw in ids:
        rule_id = raw.strip().upper()
        if not rule_id:
            continue
        if rule_id not in RULES:
            known = ", ".join(sorted(RULES))
            raise UnknownRuleError(
                f"unknown rule {rule_id!r} (known: {known})")
        result.add(rule_id)
    return result


def _suppressions(source: str) -> Tuple[Dict[int, Optional[Set[str]]],
                                        Optional[Set[str]]]:
    """Parse suppression comments.

    Returns ``(per_line, file_level)`` where each value is either None
    (suppress everything) or a set of rule ids; ``file_level`` is only
    present when an ignore-file comment exists.  A file without the
    ``simlint:`` marker that :data:`SUPPRESS_RE` needs is not tokenized.
    """
    if "simlint:" not in source:
        return {}, None
    per_line: Dict[int, Optional[Set[str]]] = {}
    file_level: Optional[Set[str]] = None
    file_suppressed_all = False
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # The file does not even tokenize (it will be reported as
        # SL000); fall back to a plain line scan so an ignore-file
        # comment can still suppress the parse-error finding.
        comments = [(i, line) for i, line in
                    enumerate(source.splitlines(), start=1) if "#" in line]
    for line, text in comments:
        match = SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules_text = match.group("rules")
        rule_ids = (None if rules_text is None else
                    {r.strip().upper() for r in rules_text.split(",")
                     if r.strip()})
        if match.group("kind") == "ignore-file":
            if rule_ids is None:
                file_suppressed_all = True
            else:
                file_level = (file_level or set()) | rule_ids
        else:
            existing = per_line.get(line, set())
            if rule_ids is None or existing is None:
                per_line[line] = None
            else:
                per_line[line] = existing | rule_ids
    if file_suppressed_all:
        return per_line, set(RULES)
    return per_line, file_level


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """Line spans of multi-line statements (and compound headers).

    A simple statement spans ``lineno..end_lineno``; a compound
    statement contributes only its *header* (up to the line before its
    first nested statement) — findings inside the body belong to the
    body statements' own spans.
    """

    def child_line(node: ast.AST) -> int:
        lineno = getattr(node, "lineno", None)
        if lineno is not None:
            return lineno
        # match_case carries no lineno of its own.
        pattern = getattr(node, "pattern", None)
        if pattern is not None and hasattr(pattern, "lineno"):
            return pattern.lineno
        body = getattr(node, "body", None)
        if body:
            return body[0].lineno
        return 1

    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        children = [c for c in ast.iter_child_nodes(node)
                    if isinstance(c, (ast.stmt, ast.ExceptHandler))
                    or type(c).__name__ == "match_case"]
        start = node.lineno
        if children:
            end = min(child_line(c) for c in children) - 1
        else:
            end = getattr(node, "end_lineno", None) or start
        if end > start:
            spans.append((start, end))
    return spans


def _expand_suppressions(
        per_line: Dict[int, Optional[Set[str]]],
        tree: ast.Module) -> Dict[int, Optional[Set[str]]]:
    """Spread each suppression over the whole statement it sits in.

    A ``# simlint: ignore[...]`` on any line of a multi-line statement
    covers findings reported on every line of that statement — the
    AST reports a nested expression (a call argument, a comprehension)
    at *its* line, not at the line a human put the comment on.
    """
    if not per_line:
        return per_line
    expanded: Dict[int, Optional[Set[str]]] = dict(per_line)
    for start, end in _statement_spans(tree):
        merged: Set[str] = set()
        found = False
        suppress_all = False
        for line in range(start, end + 1):
            if line in per_line:
                found = True
                value = per_line[line]
                if value is None:
                    suppress_all = True
                else:
                    merged |= value
        if not found:
            continue
        for line in range(start, end + 1):
            existing = expanded.get(line, set())
            if suppress_all or existing is None:
                expanded[line] = None
            else:
                expanded[line] = existing | merged
    return expanded


def lint_source(source: str, relpath: str,
                rule_ids: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one file's text; ``relpath`` appears in the findings."""
    if rule_ids is None:
        rule_ids = tuple(sorted(RULES))
    per_line, file_level = _suppressions(source)
    lines = source.splitlines()

    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        rule = RULES[PARSE_ERROR_ID]
        line = exc.lineno or 1
        if file_level is not None and PARSE_ERROR_ID in file_level:
            return []
        line_rules = per_line.get(line, set())
        if (PARSE_ERROR_ID not in rule_ids or line_rules is None
                or PARSE_ERROR_ID in line_rules):
            return []
        return [Finding(
            path=relpath, line=line, col=(exc.offset or 1) - 1,
            rule=PARSE_ERROR_ID, severity=rule.severity,
            message=f"syntax error: {exc.msg}", hint=rule.hint,
            fingerprint=fingerprint_of(PARSE_ERROR_ID, exc.msg or "", 0))]

    per_line = _expand_suppressions(per_line, tree)

    def suppressed(rule_id: str, line: int) -> bool:
        if file_level is not None and rule_id in file_level:
            return True
        if line in per_line:
            line_rules = per_line[line]
            return line_rules is None or rule_id in line_rules
        return False

    ctx = build_context(relpath, tree)
    raw: List[Tuple[int, int, str, str]] = []
    for rule_id in rule_ids:
        rule = RULES[rule_id]
        for node, message in rule.check(tree, ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            raw.append((line, col, rule_id, message))

    raw.sort()
    occurrences: Dict[Tuple[str, str], int] = {}
    findings: List[Finding] = []
    for line, col, rule_id, message in raw:
        if suppressed(rule_id, line):
            continue
        text = lines[line - 1] if 0 < line <= len(lines) else ""
        key = (rule_id, " ".join(text.split()))
        n = occurrences.get(key, 0)
        occurrences[key] = n + 1
        rule = RULES[rule_id]
        findings.append(Finding(
            path=relpath, line=line, col=col, rule=rule_id,
            severity=rule.severity, message=message, hint=rule.hint,
            fingerprint=fingerprint_of(rule_id, text, n)))
    return findings


def discover_files(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand files/directories to ``(abspath, relpath)`` pairs.

    Relative paths are posix-style, relative to the directory argument
    that contained the file (or the file's own directory for direct
    file arguments), so reports and baselines are location-independent.
    ``paths`` is a sequence of paths; one bare string is refused rather
    than walked character by character.
    """
    if isinstance(paths, str):
        raise TypeError("paths must be a sequence of paths, not one str; "
                        f"wrap it as [{paths!r}]")
    pairs: List[Tuple[str, str]] = []
    for path in paths:
        path = os.path.abspath(path)
        if os.path.isfile(path):
            pairs.append((path, os.path.basename(path)))
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__"
                                 and not d.startswith("."))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    full = os.path.join(dirpath, filename)
                    rel = os.path.relpath(full, path).replace(os.sep, "/")
                    pairs.append((full, rel))
    return pairs


@dataclass
class LintResult:
    """Findings plus bookkeeping from one :func:`lint_tree` run."""

    findings: List[Finding]
    #: relpath (as used in findings) -> path relative to the CWD, for
    #: renderers that must point at real files (GitHub annotations).
    display_paths: Dict[str, str] = field(default_factory=dict)


def lint_tree(paths: Sequence[str],
              select: Optional[Iterable[str]] = None,
              ignore: Optional[Iterable[str]] = None) -> LintResult:
    """Lint every discovered file against the selected rules."""
    rule_ids = select_rules(select, ignore)
    pairs = discover_files(paths)
    findings: List[Finding] = []
    for full, rel in pairs:
        with open(full, "rb") as handle:
            source = handle.read().decode("utf-8")
        findings.extend(lint_source(source, rel, rule_ids))
    findings.sort()
    cwd = os.getcwd()
    display = {rel: os.path.relpath(full, cwd).replace(os.sep, "/")
               for full, rel in pairs}
    return LintResult(findings=findings, display_paths=display)


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint files and directories; returns sorted findings."""
    return lint_tree(paths, select=select, ignore=ignore).findings
