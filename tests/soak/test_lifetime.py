"""A soak scenario whose processes failed frees itself.

Reproducer: seed-0 scenarios 0, 20 and 30 of the ``soak-50`` sweep
store failed-process exceptions.  Their tracebacks held the frames that
raised them (``Process._resume``, the body generators, and for an
error the harness caught, ``run_scenario`` itself), whose locals held
the processes, the simulator and the tracer, so each such scenario
stayed in memory until the cyclic collector ran.
"""

import gc

import pytest

from repro.sim import Simulator
from repro.soak import run_scenario, sample_scenario
from repro.soak import runner
from repro.trace import Tracer


def survivors():
    return [type(obj).__name__ for obj in gc.get_objects()
            if isinstance(obj, (Simulator, Tracer))]


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("index", [0, 20, 30])
def test_scenario_with_failed_processes_frees_itself(index, no_collector):
    spec = sample_scenario(0, index)
    assert spec.trace_check
    outcome = run_scenario(spec, tracer=Tracer())
    assert outcome.quiesced
    del outcome
    assert survivors() == []


def test_a_caught_harness_error_frees_its_run(monkeypatch, no_collector):
    testbed = runner.fig3_testbed

    def testbed_with_a_crashing_process(sim):
        def crash():
            yield sim.timeout(5.0)
            raise ValueError("boom")

        sim.process(crash(), name="crash")
        return testbed(sim)

    monkeypatch.setattr(runner, "fig3_testbed",
                        testbed_with_a_crashing_process)
    outcome = run_scenario(sample_scenario(0, 1), tracer=Tracer())
    assert [v.detail for v in outcome.violations
            if v.invariant == "unhandled-error"] == ["ValueError: boom"]
    del outcome
    assert survivors() == []
