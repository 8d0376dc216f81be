"""Suppression-comment behaviour: per-line, per-file, with rule lists."""

import textwrap

from repro.simlint import lint_source


def lint(src, name="mod.py"):
    return lint_source(textwrap.dedent(src), name)


VIOLATION = """\
    import time

    def run(sim):
        return time.time()
"""


def test_unsuppressed_baseline_case():
    findings = lint(VIOLATION)
    assert [f.rule for f in findings] == ["SL001"]


def test_line_suppression_with_rule_list():
    findings = lint("""\
        import time

        def run(sim):
            return time.time()  # simlint: ignore[SL001]
    """)
    assert findings == []


def test_line_suppression_with_justification_text():
    findings = lint("""\
        import time

        def run(sim):
            return time.time()  # simlint: ignore[SL001] — harness wall time
    """)
    assert findings == []


def test_line_suppression_without_rule_list_suppresses_all():
    findings = lint("""\
        import time

        def run(sim, items=[]):  # simlint: ignore
            return time.time()  # simlint: ignore
    """)
    assert findings == []


def test_line_suppression_for_other_rule_does_not_apply():
    findings = lint("""\
        import time

        def run(sim):
            return time.time()  # simlint: ignore[SL003]
    """)
    assert [f.rule for f in findings] == ["SL001"]


def test_suppression_only_covers_its_own_line():
    findings = lint("""\
        import time

        def run(sim):
            a = time.time()  # simlint: ignore[SL001]
            b = time.time()
            return a, b
    """)
    assert [(f.rule, f.line) for f in findings] == [("SL001", 5)]


def test_file_suppression_with_rule_list():
    findings = lint("""\
        # simlint: ignore-file[SL001] — benchmark harness, wall time is the point
        import time

        def run(sim, items=[]):
            return time.time()
    """)
    assert [f.rule for f in findings] == ["SL008"]


def test_file_suppression_without_rule_list_suppresses_everything():
    findings = lint("""\
        # simlint: ignore-file
        import time

        def run(sim, items=[]):
            return time.time()
    """)
    assert findings == []


def test_multiple_rules_in_one_comment():
    findings = lint("""\
        import time

        def run(sim, items=[]):  # simlint: ignore[SL008, SL001]
            return time.time()
    """)
    assert [f.rule for f in findings] == ["SL001"]
    assert findings[0].line == 4


def test_suppressing_parse_errors_is_possible_per_file():
    findings = lint("""\
        # simlint: ignore-file[SL000]
        def broken(:
    """)
    assert findings == []


# --- multi-line statements -------------------------------------------------
#
# A finding inside a spread-out call is reported at the *inner* node's
# line; the suppression comment may sit on any line of the statement.

MULTILINE_VIOLATION = """\
    def order(hosts):
        names = {h.name for h in hosts}
        return pick(
            list(names),
            fallback=None)
"""


def test_multiline_statement_unsuppressed():
    findings = lint(MULTILINE_VIOLATION)
    assert [(f.rule, f.line) for f in findings] == [("SL003", 4)]


def test_suppression_on_first_line_of_multiline_statement():
    findings = lint("""\
        def order(hosts):
            names = {h.name for h in hosts}
            return pick(  # simlint: ignore[SL003] — copy is order-stable
                list(names),
                fallback=None)
    """)
    assert findings == []


def test_suppression_on_last_line_of_multiline_statement():
    findings = lint("""\
        def order(hosts):
            names = {h.name for h in hosts}
            return pick(
                list(names),
                fallback=None)  # simlint: ignore[SL003]
    """)
    assert findings == []


def test_multiline_suppression_does_not_leak_to_neighbours():
    findings = lint("""\
        def order(hosts):
            names = {h.name for h in hosts}
            first = pick(  # simlint: ignore[SL003]
                list(names),
                fallback=None)
            second = pick(
                list(names),
                fallback=None)
            return first, second
    """)
    assert [(f.rule, f.line) for f in findings] == [("SL003", 7)]


def test_multiline_suppression_respects_rule_list():
    findings = lint("""\
        def order(hosts):
            names = {h.name for h in hosts}
            return pick(  # simlint: ignore[SL001]
                list(names),
                fallback=None)
    """)
    assert [(f.rule, f.line) for f in findings] == [("SL003", 4)]


def test_compound_header_suppression_covers_header_only():
    findings = lint("""\
        def scan(hosts):
            names = {h.name for h in hosts}
            for name in list(  # simlint: ignore[SL003]
                    names):
                use(list(names))
    """)
    assert [(f.rule, f.line) for f in findings] == [("SL003", 5)]
