"""End-to-end scenario execution: lanes, determinism, planner oracle."""

import gc
import json
import weakref

import pytest

from repro.experiments.soak import run_soak
from repro.soak import (run_scenario, run_with_checks, sample_mtbf_scenario,
                        sample_scenario)
from repro.soak import runner as soak_runner
from repro.soak.scenario import ScenarioSpec
from repro.trace.tracer import Tracer
from tests.oracles.metasched import reference_planner

#: planner counters the oracle must reproduce exactly
SHARED_PLAN_COUNTERS = ("meta_plan_rounds", "meta_plan_kept",
                        "meta_plan_rebuilt", "meta_plan_wakes")


def _report_and_plan_counters(spec):
    """``run_scenario``'s report plus the shared ``meta_plan_*``
    counters of the metascheduler it built (reports leave them out)."""
    services = []

    class Recording(soak_runner.MetaScheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            services.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soak_runner, "MetaScheduler", Recording)
        report = run_scenario(spec).report()
    (service,) = services
    return report, {name: getattr(service.sim.stats, name)
                    for name in SHARED_PLAN_COUNTERS}


def _clean_smoke_spec():
    # one of everything, deterministic, fast: a couple of jobs, a
    # crash/recover window, a burst, a WAN re-provision, and a swap
    # lane that gets stopped mid-run
    return ScenarioSpec(
        index=0, seed=3, duration=240.0,
        jobs=[
            {"name": "u0-j0", "user": "u0", "kind": "qr",
             "submit_time": 5.0, "n_hosts": 2, "size": 800.0},
            {"name": "u1-j1", "user": "u1", "kind": "eman",
             "submit_time": 30.0, "n_hosts": 1, "size": 2500.0},
        ],
        faults=[{"host": "uiuc.n3", "at": 40.0, "recover_at": 100.0}],
        bursts=[{"host": "utk.n2", "at": 20.0, "until": 90.0,
                 "nprocs": 2}],
        links=[{"a": "utk.switch", "b": "uiuc.switch", "via": None,
                "bandwidth": 4e6, "latency": 0.01, "at": 60.0}],
        swap={"n_bodies": 8000, "n_iterations": 40, "policy": "gang",
              "period": 10.0, "improvement": 1.05, "stop_at": 35.0},
    )


class TestRunScenario:
    def test_smoke_scenario_runs_clean(self):
        outcome = run_scenario(_clean_smoke_spec())
        assert outcome.violations == []
        assert outcome.quiesced
        assert outcome.lanes["metasched"] == "ok"
        assert outcome.lanes["swap"] == "ok"
        assert outcome.lanes["srs"] == "absent"
        assert len(outcome.jobs) == 2
        assert outcome.counters["meta_submitted"] == 2

    def test_report_is_deterministic(self):
        a = run_scenario(_clean_smoke_spec()).report()
        b = run_scenario(_clean_smoke_spec()).report()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_fast_and_reference_engines_agree(self):
        spec = _clean_smoke_spec()
        fast = _report_and_plan_counters(spec)
        with reference_planner():
            ref = _report_and_plan_counters(spec)
        assert fast == ref


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_reports_match_reference_planner(seed):
    """The planner and the linear-scan oracle produce equal reports and
    equal shared planner counters on every scenario of a 12-scenario
    sweep."""
    for index in range(12):
        spec = sample_scenario(seed, index)
        fast = _report_and_plan_counters(spec)
        with reference_planner():
            ref = _report_and_plan_counters(spec)
        assert fast == ref, (seed, index)


class TestRunWithChecks:
    def test_sampled_scenarios_run_clean(self):
        for index in range(4):
            result = run_with_checks(sample_scenario(11, index))
            assert result["violations"] == [], (index, result["violations"])
            assert result["quiesced"], index

    def test_same_seed_reports_byte_identical(self):
        spec = sample_scenario(7, 2)
        a = json.dumps(run_with_checks(spec), sort_keys=True)
        b = json.dumps(run_with_checks(spec), sort_keys=True)
        assert a == b

    def test_finished_scenario_frees_its_tracer_by_refcount(self):
        """The runner detaches the tracer at the end, so the
        simulator <-> tracer cycle does not outlive the scenario."""
        spec = sample_scenario(0, 10)
        assert spec.trace_check and not spec.faults
        tracer = Tracer()
        alive = weakref.ref(tracer)
        gc.disable()
        try:
            outcome = run_scenario(spec, tracer=tracer)
            assert tracer.run == 0 and len(tracer) > 0
            del tracer
            assert alive() is None
        finally:
            gc.enable()
        assert outcome.quiesced and outcome.violations == []


class TestMtbfPreset:
    """``repro soak run --preset mtbf``: the MTBF/MTTR sweep."""

    @staticmethod
    def _sweep():
        return run_soak(seed=0, scenarios=2, sampler=sample_mtbf_scenario)

    @pytest.fixture(scope="class")
    def sweep(self):
        return self._sweep()

    def test_sweep_audits_clean(self, sweep):
        # srs-hygiene among the audits: no migration token leaks
        report = sweep.report()
        assert report["params"] == {"seed": 0, "scenarios": 2}
        assert report["summary"]["violations"] == 0
        assert all(r["quiesced"] and r["lanes"]["srs"] == "ok"
                   for r in report["scenarios"])

    def test_same_seed_report_byte_identical(self, sweep):
        assert self._sweep().to_json().encode() == sweep.to_json().encode()
