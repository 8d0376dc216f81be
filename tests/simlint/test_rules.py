"""Per-rule fixture checks.

Each ``fixtures/slNNN.py`` module is a lint *input*: lines a rule must
flag carry an ``# EXPECT[SLNNN]`` marker, everything else (the negative
examples) must stay silent under the *full* rule set.  The test runs
all rules over each fixture and requires the flagged ``(line, rule)``
pairs to equal the markers exactly — so every rule has demonstrated
true positives AND demonstrated non-firing on the look-alike negatives.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.simlint import PARSE_ERROR_ID, RULES, lint_source, lint_tree
from repro.simlint.findings import SEVERITIES

FIXTURES = Path(__file__).parent / "fixtures"
EXPECT_RE = re.compile(r"#\s*EXPECT\[([A-Z0-9,]+)\]")

RULE_IDS_WITH_FIXTURES = tuple(
    rule_id for rule_id in sorted(RULES) if rule_id != PARSE_ERROR_ID)


def expected_pairs(path: Path):
    pairs = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        match = EXPECT_RE.search(text)
        if match:
            for rule_id in match.group(1).split(","):
                pairs.add((lineno, rule_id))
    return pairs


def test_every_rule_has_a_fixture():
    for rule_id in RULE_IDS_WITH_FIXTURES:
        assert (FIXTURES / f"{rule_id.lower()}.py").is_file(), (
            f"missing fixture module for {rule_id}")


def test_rule_metadata_is_complete():
    for rule in RULES.values():
        assert re.fullmatch(r"SL\d{3}", rule.id)
        assert rule.severity in SEVERITIES
        assert rule.summary and rule.hint
        assert callable(rule.check)
        assert all(issubclass(t, ast.AST) for t in rule.nodes)
        assert rule.nodes or rule.id == PARSE_ERROR_ID


@pytest.mark.parametrize("rule_id", RULE_IDS_WITH_FIXTURES)
def test_fixture_findings_match_expect_markers(rule_id):
    path = FIXTURES / f"{rule_id.lower()}.py"
    expected = expected_pairs(path)
    assert any(marker_rule == rule_id for _, marker_rule in expected), (
        f"{path.name} declares no positive for {rule_id}")
    findings = lint_source(path.read_text(), path.name)
    actual = {(f.line, f.rule) for f in findings}
    assert actual == expected
    assert all(f.severity == RULES[f.rule].severity for f in findings)


def test_syntax_error_fixture_reports_sl000():
    path = FIXTURES / "sl000.py"
    findings = lint_source(path.read_text(), path.name)
    assert [f.rule for f in findings] == [PARSE_ERROR_ID]
    assert "syntax error" in findings[0].message


def test_fixture_tree_trips_every_rule():
    findings = lint_tree([str(FIXTURES)]).findings
    assert {f.rule for f in findings} == set(RULES)


def test_findings_are_sorted():
    findings = lint_tree([str(FIXTURES)]).findings
    assert findings == sorted(findings)


def test_bare_string_path_rejected():
    # A str is a sequence of one-character paths; an absolute one
    # would start by walking "/".
    with pytest.raises(TypeError, match="not one str"):
        lint_tree("tests/simlint/fixtures")


def test_one_tree_walk_for_all_rules(monkeypatch):
    # The engine's dispatching walk plus build_context's import scan;
    # no rule walks the tree on its own.  (A file with a simlint:
    # comment may add one more, for its statement spans.)
    calls = []
    walk = ast.walk

    def counting_walk(node):
        calls.append(type(node).__name__)
        return walk(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    for rule_id in RULE_IDS_WITH_FIXTURES:
        source = (FIXTURES / f"{rule_id.lower()}.py").read_text()
        assert "simlint:" not in source
        calls.clear()
        assert lint_source(source, "mod.py")
        assert len(calls) <= 2, (rule_id, calls)
