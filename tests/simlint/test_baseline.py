"""Baseline round-trips: grandfather findings, fail only on new ones."""

import json
from pathlib import Path

import pytest

from repro.simlint import (
    apply_baseline,
    lint_paths,
    load_baseline,
    make_baseline,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "fixtures"

DIRTY = """\
import time


def run(sim):
    return time.time()
"""


def make_tree(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "dirty.py").write_text(DIRTY)
    (tree / "clean.py").write_text("def run(sim):\n    return sim.now\n")
    return tree


def test_round_trip_suppresses_everything(tmp_path):
    tree = make_tree(tmp_path)
    findings = lint_paths([str(tree)])
    assert findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(str(baseline_path), make_baseline(findings))
    doc = load_baseline(str(baseline_path))
    new, old = apply_baseline(lint_paths([str(tree)]), doc)
    assert new == []
    assert sorted(old) == sorted(findings)


def test_new_violation_not_covered_by_baseline(tmp_path):
    tree = make_tree(tmp_path)
    baseline = make_baseline(lint_paths([str(tree)]))
    (tree / "clean.py").write_text(
        "import random\n\n\ndef run(sim):\n    return random.random()\n")
    new, old = apply_baseline(lint_paths([str(tree)]), baseline)
    assert {f.rule for f in new} == {"SL002"}
    assert all(f.path == "clean.py" for f in new)
    assert old  # the grandfathered finding is still recognized


def test_fingerprints_survive_line_shifts(tmp_path):
    tree = make_tree(tmp_path)
    baseline = make_baseline(lint_paths([str(tree)]))
    shifted = "# a new leading comment\n\n" + DIRTY
    (tree / "dirty.py").write_text(shifted)
    new, old = apply_baseline(lint_paths([str(tree)]), baseline)
    assert new == []
    assert old


def test_editing_the_flagged_line_invalidates_the_entry(tmp_path):
    tree = make_tree(tmp_path)
    baseline = make_baseline(lint_paths([str(tree)]))
    (tree / "dirty.py").write_text(DIRTY.replace(
        "return time.time()", "return time.time() + 1.0"))
    new, _old = apply_baseline(lint_paths([str(tree)]), baseline)
    assert {f.rule for f in new} == {"SL001"}


def test_identical_lines_get_distinct_fingerprints(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "twice.py").write_text(
        "import time\n\n\ndef run(sim):\n"
        "    a = time.time()\n"
        "    a = time.time()\n"
        "    return a\n")
    findings = lint_paths([str(tree)], select=["SL001"])
    assert len(findings) == 2
    assert findings[0].fingerprint != findings[1].fingerprint
    # Baselining both really covers both.
    new, old = apply_baseline(findings, make_baseline(findings))
    assert new == [] and len(old) == 2


def test_bare_string_path_rejected():
    # A str is a sequence of one-character paths; an absolute one
    # would start by walking "/".
    with pytest.raises(TypeError, match="not one str"):
        lint_paths("tests/simlint/fixtures")


def test_load_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 99, "findings": {}}))
    with pytest.raises(ValueError, match="version"):
        load_baseline(str(bad))
    bad.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ValueError, match="findings"):
        load_baseline(str(bad))


def test_shipped_baseline_schema(tmp_path):
    # The committed repo baseline stays loadable and (currently) empty:
    # the tree is clean, with deliberate exceptions suppressed in-file.
    repo_baseline = Path(__file__).resolve().parents[2] / (
        "simlint-baseline.json")
    doc = load_baseline(str(repo_baseline))
    assert doc["findings"] == {}
