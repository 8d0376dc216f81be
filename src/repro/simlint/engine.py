"""simlint engine: discovery, decoding, one walk per file, suppressions.

The engine lints each file serially, in discovery order.  It decodes
the file the way the interpreter does (a PEP 263 coding cookie, else
UTF-8), parses it, and makes one ``ast.walk`` of the tree, handing each
node to the checks registered for its type.  Every rule sees one file
at a time, so there is no cross-file state, no cache and no worker
pool.  Findings are sorted after collection, so a report does not
depend on the order in which checks ran.

A finding is accepted in one way only, by a suppression comment:

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
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .rules import PARSE_ERROR_ID, RULES, Check, build_context

__all__ = ["lint_source", "lint_tree", "discover_files", "SUPPRESS_RE",
           "LintResult"]

SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>ignore-file|ignore)\s*"
    r"(?:\[(?P<rules>[A-Za-z0-9 ,]*)\])?")

#: node type -> the ``(rule id, check)`` pairs registered for it
_DISPATCH: Dict[type, List[Tuple[str, Check]]] = {}
for _rule in RULES.values():
    for _node_type in _rule.nodes:
        _DISPATCH.setdefault(_node_type, []).append((_rule.id, _rule.check))


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


def _finding(relpath: str, line: int, col: int, rule_id: str,
             message: str) -> Finding:
    rule = RULES[rule_id]
    return Finding(path=relpath, line=line, col=col, rule=rule_id,
                   severity=rule.severity, message=message, hint=rule.hint)


def _parse_error(relpath: str, exc: SyntaxError) -> Finding:
    return _finding(relpath, exc.lineno or 1, (exc.offset or 1) - 1,
                    PARSE_ERROR_ID, f"syntax error: {exc.msg}")


def lint_source(source: str, relpath: str) -> List[Finding]:
    """Lint one file's text; ``relpath`` appears in the findings."""
    per_line, file_level = _suppressions(source)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        hits = [_parse_error(relpath, exc)]
    else:
        per_line = _expand_suppressions(per_line, tree)
        ctx = build_context(relpath, tree)
        hits = []
        for node in ast.walk(tree):
            checks = _DISPATCH.get(type(node))
            if checks is None:
                continue
            for rule_id, check in checks:
                for hit, message in check(node, ctx):
                    hits.append(_finding(
                        relpath, getattr(hit, "lineno", 1),
                        getattr(hit, "col_offset", 0), rule_id, message))

    def suppressed(finding: Finding) -> bool:
        if file_level is not None and finding.rule in file_level:
            return True
        line_rules = per_line.get(finding.line, set())
        return line_rules is None or finding.rule in line_rules

    return sorted(f for f in hits if not suppressed(f))


def _decode(data: bytes) -> str:
    """``data`` as text, decoded the way ``tokenize.open`` does: by its
    BOM or PEP 263 coding cookie, else as UTF-8.  Bytes the interpreter
    could not decode raise SyntaxError, as they do for ``python``."""
    encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise SyntaxError(
            f"cannot decode byte {data[exc.start]:#04x} as {encoding}",
            (None, data.count(b"\n", 0, exc.start) + 1,
             exc.start - line_start + 1, None)) from None


def discover_files(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """Expand files/directories to ``(abspath, relpath)`` pairs.

    Relative paths are posix-style, relative to the directory argument
    that contained the file (or the file's own directory for direct
    file arguments), so reports are location-independent.
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


def lint_tree(paths: Sequence[str]) -> LintResult:
    """Lint every discovered file against every rule."""
    pairs = discover_files(paths)
    findings: List[Finding] = []
    for full, rel in pairs:
        with open(full, "rb") as handle:
            data = handle.read()
        try:
            source = _decode(data)
        except SyntaxError as exc:
            findings.append(_parse_error(rel, exc))
            continue
        findings.extend(lint_source(source, rel))
    findings.sort()
    cwd = os.getcwd()
    display = {rel: os.path.relpath(full, cwd).replace(os.sep, "/")
               for full, rel in pairs}
    return LintResult(findings=findings, display_paths=display)
