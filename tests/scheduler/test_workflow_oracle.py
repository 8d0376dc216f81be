"""Workflow-order differential: in-tree Kahn's algorithm against networkx.

:meth:`Workflow.components` must equal networkx's
``lexicographical_topological_sort`` and :meth:`Workflow.levels` its
``topological_generations`` (each sorted by name), and a dependence
that would close a cycle must be rejected exactly when networkx finds
one, leaving the order unchanged.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    EmanParameters,
    LigoParameters,
    eman_refinement_workflow,
    ligo_pulsar_search_workflow,
)
from repro.metasched.jobs import JobSpec, build_workflow
from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import Workflow, WorkflowComponent, WorkflowError
from tests.oracles.graphs import (
    reference_add_dependence,
    reference_generations,
    reference_topological_order,
    workflow_digraph,
)


def names(components):
    return [c.name for c in components]


def assert_orders_match(workflow, graph):
    assert names(workflow.components()) == reference_topological_order(graph)
    assert [names(level) for level in workflow.levels()] \
        == reference_generations(graph)


def component(name):
    return WorkflowComponent(
        name=name, model=AnalyticComponentModel(mflop_fn=lambda n: n),
        problem_size=1.0)


APP_WORKFLOWS = {
    "eman": lambda: eman_refinement_workflow(EmanParameters()),
    "ligo": lambda: ligo_pulsar_search_workflow(LigoParameters()),
}


@pytest.mark.parametrize("build", APP_WORKFLOWS.values(),
                         ids=APP_WORKFLOWS.keys())
def test_app_workflow_orders_match_networkx(build):
    workflow = build()
    assert_orders_match(workflow, workflow_digraph(workflow))


@pytest.mark.parametrize("kind", ["qr", "eman", "nbody"])
def test_metasched_job_workflow_orders_match_networkx(kind):
    workflow = build_workflow(JobSpec(name="j0", user="u0", kind=kind,
                                      submit_time=0.0, n_hosts=4, size=1000))
    assert_orders_match(workflow, workflow_digraph(workflow))


# Names whose lexicographic order differs from insertion order.
NAMES = st.sampled_from(["b", "a", "c10", "c2", "stage", "Stage", "z",
                         "m", "a1", "a0"])
OPS = st.lists(st.one_of(
    st.tuples(st.just("component"), NAMES),
    st.tuples(st.just("dependence"), NAMES, NAMES),
    st.tuples(st.just("query"))), max_size=40)


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_random_dag_orders_match_networkx(ops):
    workflow, graph = Workflow(), nx.DiGraph()
    for op in ops:
        if op[0] == "component":
            if op[1] in workflow:
                continue
            workflow.add_component(component(op[1]))
            graph.add_node(op[1])
        elif op[0] == "dependence":
            producer, consumer = op[1:]
            if producer not in workflow or consumer not in workflow:
                continue
            before = names(workflow.components())
            if reference_add_dependence(graph, producer, consumer):
                workflow.add_dependence(producer, consumer)
            else:
                with pytest.raises(WorkflowError, match="cycle"):
                    workflow.add_dependence(producer, consumer)
                assert names(workflow.components()) == before
        else:
            assert_orders_match(workflow, graph)
    assert_orders_match(workflow, graph)
    for name in graph:
        assert names(workflow.predecessors(name)) \
            == sorted(graph.predecessors(name))
        assert names(workflow.successors(name)) \
            == sorted(graph.successors(name))
