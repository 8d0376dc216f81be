"""Tests for the workflow DAG model."""

import pytest

from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import Task, Workflow, WorkflowComponent, WorkflowError


def comp(name, mflop=100.0, n_tasks=1, size=1.0, in_bytes=0.0, out_bytes=0.0):
    return WorkflowComponent(
        name=name,
        model=AnalyticComponentModel(mflop_fn=lambda n, m=mflop: m * n),
        problem_size=size,
        n_tasks=n_tasks,
        input_bytes_per_task=in_bytes,
        output_bytes_per_task=out_bytes,
    )


def linear_workflow(names=("a", "b", "c")):
    wf = Workflow("linear")
    for name in names:
        wf.add_component(comp(name))
    for prev, nxt in zip(names, names[1:]):
        wf.add_dependence(prev, nxt)
    return wf


class TestWorkflow:
    def test_components_topological_order(self):
        wf = linear_workflow()
        assert [c.name for c in wf.components()] == ["a", "b", "c"]

    def test_duplicate_component_rejected(self):
        wf = Workflow()
        wf.add_component(comp("a"))
        with pytest.raises(WorkflowError):
            wf.add_component(comp("a"))

    def test_dependence_unknown_component_rejected(self):
        wf = Workflow()
        wf.add_component(comp("a"))
        with pytest.raises(WorkflowError):
            wf.add_dependence("a", "ghost")

    def test_cycle_rejected_and_rolled_back(self):
        wf = linear_workflow()
        with pytest.raises(WorkflowError, match="cycle"):
            wf.add_dependence("c", "a")
        # the offending edge must not remain
        assert [c.name for c in wf.components()] == ["a", "b", "c"]

    def test_predecessors_successors(self):
        wf = linear_workflow()
        assert [c.name for c in wf.predecessors("b")] == ["a"]
        assert [c.name for c in wf.successors("b")] == ["c"]
        assert wf.predecessors("a") == []
        assert wf.successors("c") == []

    def test_parallel_component_expands_to_tasks(self):
        wf = Workflow()
        wf.add_component(comp("par", n_tasks=4))
        tasks = wf.tasks()
        assert [t.name for t in tasks] == [
            "par[0]", "par[1]", "par[2]", "par[3]"]

    def test_task_mflop_divides_component_work(self):
        c = comp("par", mflop=100.0, n_tasks=4, size=2.0)
        assert Task(c, 0).mflop() == pytest.approx(50.0)

    def test_total_and_critical_path_mflop(self):
        wf = Workflow()
        wf.add_component(comp("a", mflop=100.0))
        wf.add_component(comp("b", mflop=300.0, n_tasks=3))
        wf.add_dependence("a", "b")
        assert wf.total_mflop() == pytest.approx(400.0)
        # critical path: a (100) + one b task (100)
        assert wf.critical_path_mflop() == pytest.approx(200.0)

    def test_component_validation(self):
        with pytest.raises(WorkflowError):
            comp("bad", n_tasks=0)
        with pytest.raises(WorkflowError):
            comp("bad", size=-1.0)

    def test_contains_and_len(self):
        wf = linear_workflow()
        assert "a" in wf and "ghost" not in wf
        assert len(wf) == 3

    def test_unknown_component_lookup(self):
        wf = linear_workflow()
        with pytest.raises(WorkflowError):
            wf.component("ghost")
