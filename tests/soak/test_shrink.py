"""Greedy delta-debugging over scenario element lists."""

import os

import pytest

from repro.soak import (
    ScenarioSpec,
    load_reproducer,
    sample_scenario,
    shrink_scenario,
    violated_invariants,
    write_reproducer,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "known_violation.json")


class TestShrink:
    def test_known_violation_shrinks_to_marker_core(self):
        spec = load_reproducer(FIXTURE)
        assert spec.markers == [60, 13, 40, 27]
        result = shrink_scenario(spec)
        assert result.targets == frozenset({"marker-canary"})
        # the violation needs exactly the two complementary markers
        assert sorted(result.minimal.markers) == [40, 60]
        assert result.minimal.jobs == []
        assert result.minimal.duration <= spec.duration
        assert result.runs > 0

    def test_minimal_spec_still_violates(self):
        result = shrink_scenario(load_reproducer(FIXTURE))
        from repro.soak import run_with_checks
        replay = run_with_checks(result.minimal)
        assert "marker-canary" in violated_invariants(replay)

    def test_clean_scenario_raises(self):
        with pytest.raises(ValueError, match="does not violate"):
            shrink_scenario(sample_scenario(7, 1))


class TestReproducerIO:
    def test_write_load_round_trip(self, tmp_path):
        spec = sample_scenario(7, 3)
        path = tmp_path / "repro.json"
        write_reproducer(spec, str(path))
        assert load_reproducer(str(path)) == spec
        # byte-stable on disk: single JSON line, trailing newline
        text = path.read_text()
        assert text.endswith("\n")
        assert text.count("\n") == 1

    def test_load_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 2, "index": 0, "seed": 0, '
                        '"duration": 10.0, "mystery": true}\n')
        with pytest.raises(ValueError, match="unknown scenario fields"):
            load_reproducer(str(path))


def test_violated_invariants_extracts_names():
    report = {"violations": [{"invariant": "a", "time": 0.0, "detail": ""},
                             {"invariant": "b", "time": 1.0, "detail": ""},
                             {"invariant": "a", "time": 2.0, "detail": ""}]}
    assert violated_invariants(report) == frozenset({"a", "b"})


def test_scenariospec_shrink_clone_is_independent():
    spec = sample_scenario(7, 0)
    clone = ScenarioSpec.from_dict(spec.to_dict())
    clone.jobs.clear()
    assert spec.jobs  # mutating the clone must not touch the original
