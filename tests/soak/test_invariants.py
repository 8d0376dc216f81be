"""The invariant auditor registry, the canary violation and the SRS
lane's ``expect`` floors."""

import os

from repro.soak import (
    CHECKPOINT_AUDITORS,
    FINAL_AUDITORS,
    FIG3_HOSTS,
    SUBMISSION_HOST,
    ScenarioSpec,
    Violation,
    load_reproducer,
    run_scenario,
)

CHURN_SPEC = os.path.join(os.path.dirname(__file__), "reproducers",
                          "kill-crash-recover-churn.json")


class TestRegistry:
    def test_expected_auditors_registered(self):
        assert set(CHECKPOINT_AUDITORS) == {
            "flow-capacity", "host-hygiene", "resource-bounds",
            "reservation-calendar",
        }
        assert {"quiesce", "unhandled-error", "stats-consistency",
                "services-conservation", "swap-hygiene", "srs-hygiene",
                "flows-drained", "trace-wellformed",
                "marker-canary"} <= set(FINAL_AUDITORS)

    def test_violation_round_trips_to_dict(self):
        violation = Violation(invariant="x", time=1.5, detail="boom")
        assert violation.to_dict() == {
            "invariant": "x", "time": 1.5, "detail": "boom"}


class TestMarkerCanary:
    """The permanent known-violation hook used by tests and CI."""

    def test_complementary_markers_flag(self):
        spec = ScenarioSpec(index=0, seed=0, duration=60.0,
                            markers=[60, 13, 40, 27])
        outcome = run_scenario(spec)
        canary = [v for v in outcome.violations
                  if v.invariant == "marker-canary"]
        assert len(canary) == 1
        assert "markers[0]=60 and markers[2]=40" in canary[0].detail

    def test_non_complementary_markers_stay_quiet(self):
        spec = ScenarioSpec(index=0, seed=0, duration=60.0,
                            markers=[60, 13, 41, 27])
        outcome = run_scenario(spec)
        assert not [v for v in outcome.violations
                    if v.invariant == "marker-canary"]

    def test_empty_scenario_is_clean(self):
        outcome = run_scenario(ScenarioSpec(index=0, seed=0, duration=60.0))
        assert outcome.violations == []
        assert outcome.quiesced


class TestSrsExpectFloors:
    """``srs.expect`` turns the srs-hygiene auditor into a recovery
    assertion: lane ``ok`` and every named counter at its floor."""

    @staticmethod
    def _srs_violations(spec):
        return [v.detail for v in run_scenario(spec).violations
                if v.invariant == "srs-hygiene"]

    def test_unmet_floor_flags(self):
        spec = load_reproducer(CHURN_SPEC)
        spec.trace_check = False
        spec.srs["expect"] = {"failures_recovered": 4, "retry_waits": 0}
        assert self._srs_violations(spec) == [
            "failures_recovered=3 below the expected floor 4"]

    def test_lane_without_expect_only_checks_leaks(self):
        spec = load_reproducer(CHURN_SPEC)
        spec.trace_check = False
        del spec.srs["expect"]
        spec.faults = []
        assert self._srs_violations(spec) == []

    def test_failed_lane_flags_when_expected(self):
        # every host but the submission host dies for good: the run's
        # bounded retry gives up, which only an expecting lane reports
        doomed = [h for h in FIG3_HOSTS if h != SUBMISSION_HOST]
        spec = ScenarioSpec(
            index=0, seed=0, duration=60.0,
            faults=[{"host": h, "at": 10.0, "recover_at": 2000.0}
                    for h in doomed],
            srs={"n": 1500, "checkpoint_every": 4})
        assert self._srs_violations(spec) == []
        spec.srs["expect"] = {}
        (detail,) = self._srs_violations(spec)
        assert detail.startswith("lane finished 'failed: RuntimeError")
