"""Repeated lint runs never serve stale cross-file facts.

The engine keeps no state between ``lint_tree`` calls: every run
rebuilds the project symbol graph from the sources on disk.  The test
below pins that contract, so a future cache cannot reintroduce stale
flow findings after an edit in *another* file shifts the cross-file
facts a file's findings depend on.
"""

import textwrap

import pytest

from repro.simlint.engine import lint_tree

CLEAN = """\
    class App:
        def __init__(self, sim):
            self.sim = sim
            sim.process(self.run(), name="app")

        def run(self):
            while True:
                yield self.sim.timeout(1.0)
"""

STALE_RMW = """\
    class Meter:
        def __init__(self, sim):
            self.sim = sim
            self.total = 0
            sim.process(self.bump(), name="meter")

        def bump(self):
            total = self.total
            yield self.sim.timeout(1.0)
            self.total = total + 1
"""


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "app.py").write_text(textwrap.dedent(CLEAN))
    (src / "meter.py").write_text(textwrap.dedent(STALE_RMW))
    (src / "util.py").write_text("def helper():\n    return 1\n")
    return src


class TestCacheRoundTrip:
    def test_symbol_shifting_edit_invalidates_cross_file_facts(self, tree):
        (tree / "walker.py").write_text(textwrap.dedent("""\
            class Walker:
                def __init__(self, sim):
                    self.sim = sim
                    self.jobs = {}
                    sim.process(self.walk(), name="walk")

                def walk(self):
                    for job in self.jobs.values():
                        yield self.sim.timeout(1.0)
        """))
        before = lint_tree([str(tree)])
        assert ("walker.py", "SL021") not in {
            (f.path, f.rule) for f in before.findings}
        # A *different file* grows a mutator of Walker.jobs: walker.py
        # itself is untouched, but the next run must see the new
        # cross-file fact rather than repeat the earlier verdict.
        (tree / "pruner.py").write_text(textwrap.dedent("""\
            class Walker:
                def prune(self, name):
                    self.jobs.pop(name, None)
        """))
        after = lint_tree([str(tree)])
        assert ("walker.py", "SL021") in {
            (f.path, f.rule) for f in after.findings}
