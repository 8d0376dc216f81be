"""The project symbol graph, CFG, and SL020–SL023 dataflow behaviour.

The fixture-based positives live in ``fixtures/sl02*.py`` and run
through ``test_rules.py`` like every other rule; this module covers
the machinery those rules sit on — process-generator reachability,
CFG shape, the re-read exoneration, and the cross-file facts that
only show up when two modules are linted together.
"""

import ast
import textwrap

from repro.simlint import build_graph, extract_symbols, lint_source
from repro.simlint.cfg import build_cfg
from repro.simlint.engine import lint_tree
from repro.simlint.symbols import single_file_graph


def graph_of(source, relpath="mod.py"):
    tree = ast.parse(textwrap.dedent(source))
    return single_file_graph(tree, relpath)


def lint(source, name="mod.py", **kwargs):
    return lint_source(textwrap.dedent(source), name, **kwargs)


class TestProcessGeneratorDetection:
    def test_spawned_method_is_a_process_generator(self):
        graph = graph_of("""\
            class App:
                def start(self, sim):
                    sim.process(self._run(), name="app")

                def _run(self):
                    yield self.sim.timeout(1.0)
        """)
        assert "mod.py::App._run" in graph.process_generators
        assert "mod.py::App.start" not in graph.process_generators

    def test_yield_from_delegation_closes_over(self):
        graph = graph_of("""\
            class App:
                def start(self, sim):
                    sim.process(self._run(), name="app")

                def _run(self):
                    yield self.sim.timeout(1.0)
                    yield from self._drain()

                def _drain(self):
                    yield self.sim.timeout(2.0)
        """)
        assert "mod.py::App._drain" in graph.process_generators

    def test_escaping_generator_is_seeded(self):
        # The rank-body pattern: a nested generator returned by name
        # and spawned by whoever receives it.
        graph = graph_of("""\
            def make_body(srs):
                def body(ctx):
                    yield from srs.restore(ctx)
                return body
        """)
        assert "mod.py::make_body.body" in graph.process_generators

    def test_plain_data_iterator_is_not_a_process_generator(self):
        graph = graph_of("""\
            class Table:
                def rows(self):
                    for row in self._rows:
                        yield row
        """)
        assert "mod.py::Table.rows" not in graph.process_generators

    def test_event_factory_yields_seed_without_spawn_site(self):
        graph = graph_of("""\
            def loop(sim):
                while True:
                    yield sim.timeout(1.0)
        """)
        assert "mod.py::loop" in graph.process_generators


class TestSymbolExtraction:
    def test_mutations_and_rng_draws_are_indexed(self):
        tree = ast.parse(textwrap.dedent("""\
            from numpy.random import default_rng

            class Pool:
                def __init__(self):
                    self.rng = default_rng(0)
                    self.jobs = {}

                def admit(self, job):
                    self.jobs[job.name] = job

                def evict(self, name):
                    del self.jobs[name]

                def jitter(self):
                    return self.rng.normal()
        """))
        mod = extract_symbols(tree, "pool.py")
        graph = build_graph({"pool.py": mod})
        mutators = graph.self_mutators[("Pool", "jobs")]
        names = {qual for qual, _ in mutators}
        assert names == {"pool.py::Pool.admit", "pool.py::Pool.evict"}
        assert ("Pool", "rng") in graph.rng_class_attrs


class TestCfg:
    def cfg(self, source):
        tree = ast.parse(textwrap.dedent(source))
        return build_cfg(tree.body[0])

    def test_if_has_two_way_branch(self):
        nodes = self.cfg("""\
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
        """)
        header = nodes[0]
        assert len(header.succs) == 2

    def test_loop_edges_back_to_header(self):
        nodes = self.cfg("""\
            def f(xs):
                for x in xs:
                    use(x)
        """)
        header, body = nodes[0], nodes[1]
        assert body.idx in header.succs
        assert header.idx in body.succs

    def test_try_body_edges_to_handler(self):
        nodes = self.cfg("""\
            def f():
                try:
                    risky()
                except ValueError:
                    recover()
        """)
        handler_idxs = [n.idx for n in nodes
                        if isinstance(n.stmt, ast.ExceptHandler)]
        body_nodes = [n for n in nodes
                      if isinstance(n.stmt, ast.Expr)
                      and isinstance(n.stmt.value, ast.Call)
                      and n.stmt.value.func.id == "risky"]
        assert handler_idxs and body_nodes
        assert any(h in body_nodes[0].succs for h in handler_idxs)

    def test_yield_statement_is_marked(self):
        nodes = self.cfg("""\
            def f(sim):
                yield sim.timeout(1.0)
                done()
        """)
        assert nodes[0].has_yield
        assert not nodes[1].has_yield


class TestSl020Behaviour:
    def test_reread_after_yield_exonerates(self):
        findings = lint("""\
            class App:
                def start(self, sim):
                    sim.process(self._run(), name="app")

                def _run(self):
                    count = self.slots.get("n", 0)
                    yield self.sim.timeout(1.0)
                    if "n" in self.slots:
                        self.slots["n"] = count
        """)
        assert findings == []

    def test_write_without_yield_in_between_is_clean(self):
        findings = lint("""\
            class App:
                def start(self, sim):
                    sim.process(self._run(), name="app")

                def _run(self):
                    count = self.count
                    self.count = count + 1
                    yield self.sim.timeout(1.0)
        """)
        assert findings == []

    def test_value_refreshed_from_yield_is_clean(self):
        findings = lint("""\
            class App:
                def start(self, sim):
                    sim.process(self._run(), name="app")

                def _run(self):
                    count = self.count
                    count = yield self.sim.timeout(1.0)
                    self.count = count
        """)
        assert findings == []

    def test_stale_write_in_loop_is_flagged(self):
        findings = lint("""\
            class App:
                def start(self, sim):
                    sim.process(self._run(), name="app")

                def _run(self):
                    while True:
                        backlog = self.backlog
                        yield self.sim.timeout(1.0)
                        self.backlog = backlog - 1
        """)
        assert [(f.rule, f.line) for f in findings] == [("SL020", 9)]

    def test_module_global_alias_is_tracked(self):
        findings = lint("""\
            PENDING = {}

            def drain(sim):
                queue = PENDING
                yield sim.timeout(1.0)
                queue.clear()
        """)
        assert [(f.rule, f.line) for f in findings] == [("SL020", 6)]

    def test_non_process_generator_is_not_analyzed(self):
        # Same shape as the fixture positive, but nothing spawns it
        # and it never yields an Event — a plain data generator.
        findings = lint("""\
            class Table:
                def rows(self):
                    snapshot = self.rows_cached
                    yield snapshot
                    self.rows_cached = snapshot
        """)
        assert findings == []


class TestSl021Behaviour:
    def test_snapshot_iteration_is_clean(self):
        findings = lint("""\
            class Registry:
                def __init__(self, sim):
                    sim.process(self.scan(), name="scan")
                    sim.process(self.reap(), name="reap")

                def scan(self):
                    for name in list(self.jobs):
                        yield self.sim.timeout(1.0)

                def reap(self):
                    yield self.sim.timeout(5.0)
                    self.jobs.clear()
        """)
        assert findings == []

    def test_no_yield_in_loop_body_is_clean(self):
        findings = lint("""\
            class Registry:
                def __init__(self, sim):
                    sim.process(self.scan(), name="scan")
                    sim.process(self.reap(), name="reap")

                def scan(self):
                    yield self.sim.timeout(1.0)
                    for name in self.jobs:
                        touch(name)

                def reap(self):
                    yield self.sim.timeout(5.0)
                    self.jobs.clear()
        """)
        assert findings == []

    def test_unmutated_container_is_clean(self):
        findings = lint("""\
            class Registry:
                def __init__(self, sim):
                    sim.process(self.scan(), name="scan")

                def scan(self):
                    for name in self.jobs:
                        yield self.sim.timeout(1.0)
        """)
        assert findings == []

    def test_cross_file_mutation_is_detected(self, tmp_path):
        (tmp_path / "walker.py").write_text(textwrap.dedent("""\
            class Walker:
                def __init__(self, sim, registry):
                    self.sim = sim
                    self.jobs = registry.jobs
                    sim.process(self.walk(), name="walk")

                def walk(self):
                    for job in self.jobs.values():
                        yield self.sim.timeout(1.0)
        """))
        (tmp_path / "mutator.py").write_text(textwrap.dedent("""\
            class Walker:
                def prune(self, name):
                    self.jobs.pop(name, None)
        """))
        result = lint_tree([str(tmp_path)])
        hits = [(f.path, f.rule) for f in result.findings]
        assert ("walker.py", "SL021") in hits
        # Removing the mutator file clears the finding: the facts are
        # genuinely cross-file.
        (tmp_path / "mutator.py").unlink()
        result = lint_tree([str(tmp_path)])
        assert [(f.path, f.rule) for f in result.findings] == []


class TestSl022Behaviour:
    def test_single_drawer_stream_is_clean(self):
        findings = lint("""\
            from numpy.random import default_rng

            class Loadgen:
                def __init__(self, sim):
                    self.rng = default_rng(3)
                    sim.process(self.drive(), name="drive")

                def drive(self):
                    while True:
                        yield self.sim.timeout(self.rng.exponential(9.0))
        """)
        assert findings == []

    def test_draw_outside_process_generator_is_clean(self):
        findings = lint("""\
            from numpy.random import default_rng

            class Sensor:
                def __init__(self, sim):
                    self.rng = default_rng(3)
                    sim.process(self.run(), name="run")

                def run(self):
                    while True:
                        yield self.sim.timeout(10.0)
                        self.measure()

                def measure(self):
                    return self.rng.normal()
        """)
        assert findings == []

    def test_registry_stream_attr_counts(self):
        findings = lint("""\
            class Churny:
                def __init__(self, sim, rngs):
                    self.stream = rngs.stream("churn")
                    sim.process(self.up(), name="up")
                    sim.process(self.down(), name="down")

                def up(self):
                    yield self.sim.timeout(self.stream.exponential(2.0))

                def down(self):
                    yield self.sim.timeout(self.stream.exponential(4.0))
        """)
        assert {(f.rule, f.line) for f in findings} == {
            ("SL022", 8), ("SL022", 11)}


class TestSl023Behaviour:
    def test_reread_cache_after_yield_is_clean(self):
        findings = lint("""\
            class Board:
                def __init__(self, sim):
                    sim.process(self.serve(), name="serve")

                def serve(self):
                    order = self._order_cache
                    yield self.sim.timeout(1.0)
                    order = self._order_cache
                    return order
        """)
        assert findings == []

    def test_return_before_yield_is_clean(self):
        findings = lint("""\
            class Board:
                def __init__(self, sim):
                    sim.process(self.serve(), name="serve")

                def serve(self):
                    order = self._order_cache
                    if order is not None:
                        return order
                    yield self.sim.timeout(1.0)
        """)
        assert findings == []


class TestFlowSuppression:
    def test_flow_findings_respect_line_suppression(self):
        findings = lint("""\
            class Tally:
                def __init__(self, sim):
                    sim.process(self.add(), name="add")

                def add(self):
                    total = self.total
                    yield self.sim.timeout(1.0)
                    self.total = total + 1  # simlint: ignore[SL020] — single writer
        """)
        assert findings == []
