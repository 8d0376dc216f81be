"""Scenario sampling and serialization determinism."""

import hashlib
import json

import pytest

from repro.soak import (FIG3_HOSTS, SUBMISSION_HOST, ScenarioSpec,
                        sample_mtbf_scenario, sample_scenario)


class TestSampling:
    def test_same_seed_index_is_identical(self):
        a = sample_scenario(7, 3)
        b = sample_scenario(7, 3)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_index_independent_of_sweep_size(self):
        # scenario k must not depend on how many scenarios the sweep
        # draws before or after it
        alone = sample_scenario(7, 5)
        in_sweep = [sample_scenario(7, i) for i in range(8)][5]
        assert alone == in_sweep

    def test_different_seeds_differ(self):
        assert sample_scenario(0, 0) != sample_scenario(1, 0)

    def test_different_indices_differ(self):
        assert sample_scenario(7, 0) != sample_scenario(7, 1)

    def test_sampled_elements_are_sane(self):
        for index in range(30):
            spec = sample_scenario(7, index)
            assert spec.duration > 0
            for fault in spec.faults:
                assert fault["host"] in FIG3_HOSTS
                assert fault["host"] != SUBMISSION_HOST
                assert fault["recover_at"] > fault["at"]
            for burst in spec.bursts:
                assert burst["until"] > burst["at"]

    def test_check_flags_follow_index(self):
        assert sample_scenario(7, 0).trace_check
        assert sample_scenario(7, 5).trace_check

    def test_draw_order_is_pinned(self):
        """Scenarios 0-199 of seeds 0 and 7 hash to a fixed digest.

        The digest was computed from the sampler as it was before the
        Store/Semaphore ``services`` lane was deleted: each of those
        specs' ``to_dict()`` with ``services`` dropped and
        ``schema_version`` set to 2, dumped with ``sort_keys=True`` and
        fed to sha256 one line (text + newline) at a time, seed 0
        first.  The sampler still makes that lane's draws, so every
        other lane must come out unchanged; consuming the retired draws
        in any other way moves the swap and SRS lanes and this digest.
        """
        digest = hashlib.sha256()
        for seed in (0, 7):
            for index in range(200):
                digest.update(sample_scenario(seed, index).to_json().encode()
                              + b"\n")
        assert digest.hexdigest() == (
            "ba6ce0ad0293eee81f47d86bdbed4bb86ad01d3fd5616c5424c97e1911bba264")


class TestMtbfSampling:
    """The MTBF/MTTR preset: pre-sampled host churn under an SRS lane."""

    def test_same_seed_index_is_identical(self):
        assert sample_mtbf_scenario(0, 3).to_json() == \
            sample_mtbf_scenario(0, 3).to_json()

    def test_different_seeds_differ(self):
        assert sample_mtbf_scenario(0, 0) != sample_mtbf_scenario(1, 0)

    def test_different_indices_differ(self):
        # same grid cell, next trial: a fresh named stream
        assert sample_mtbf_scenario(0, 0) != sample_mtbf_scenario(0, 2)

    def test_index_cycles_grid_cells(self):
        # even indices are the MTBF 400 s cell, odd ones MTBF 1200 s:
        # the harsher cell crashes hosts far more often
        counts = [len(sample_mtbf_scenario(0, i).faults) for i in range(12)]
        assert min(counts[0::2]) > max(counts[1::2])

    def test_windows_alternate_and_spare_submission_host(self):
        for index in range(6):
            spec = sample_mtbf_scenario(7, index)
            assert spec.srs == {"n": 6000, "checkpoint_every": 5}
            assert spec.faults
            by_host = {}
            for fault in spec.faults:
                assert fault["host"] != SUBMISSION_HOST
                assert fault["recover_at"] > fault["at"]
                by_host.setdefault(fault["host"], []).append(fault)
            for windows in by_host.values():
                for prev, nxt in zip(windows, windows[1:]):
                    assert nxt["at"] > prev["recover_at"]


class TestSerialization:
    def test_json_round_trip_byte_identical(self):
        spec = sample_scenario(7, 2)
        text = spec.to_json()
        assert ScenarioSpec.from_json(text).to_json() == text

    def test_round_trip_preserves_equality(self):
        spec = sample_scenario(7, 4)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        # old scenario files carrying the retired engine_check flag must
        # not load silently
        for field in ("bogus", "engine_check"):
            data = sample_scenario(0, 0).to_dict()
            data[field] = False
            with pytest.raises(ValueError, match="unknown scenario fields"):
                ScenarioSpec.from_dict(data)

    def test_unsupported_schema_rejected(self):
        data = sample_scenario(0, 0).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema"):
            ScenarioSpec.from_dict(data)

    def test_json_is_sorted(self):
        obj = json.loads(sample_scenario(0, 0).to_json())
        assert list(obj) == sorted(obj)


class TestValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            ScenarioSpec(index=0, seed=0, duration=-1.0)

    def test_unknown_job_kind_rejected(self):
        with pytest.raises(ValueError, match="job kind"):
            ScenarioSpec(index=0, seed=0, duration=10.0,
                         jobs=[{"kind": "nope", "submit_time": 0.0}])

    def test_unknown_fault_host_rejected(self):
        with pytest.raises(ValueError, match="fault host"):
            ScenarioSpec(index=0, seed=0, duration=10.0,
                         faults=[{"host": "mars.n0", "at": 1.0,
                                  "recover_at": 2.0}])

    def test_fault_recovery_must_follow_crash(self):
        with pytest.raises(ValueError, match="recovery"):
            ScenarioSpec(index=0, seed=0, duration=10.0,
                         faults=[{"host": FIG3_HOSTS[1], "at": 5.0,
                                  "recover_at": 5.0}])

    def test_unknown_swap_policy_rejected(self):
        with pytest.raises(ValueError, match="swap policy"):
            ScenarioSpec(index=0, seed=0, duration=10.0,
                         swap={"policy": "chaotic"})

    def test_unknown_srs_mode_rejected(self):
        with pytest.raises(ValueError, match="srs mode"):
            ScenarioSpec(index=0, seed=0, duration=10.0,
                         srs={"n": 1500, "checkpoint_every": 4,
                              "mode": "sideways"})

    def test_unknown_srs_expect_counter_rejected(self):
        with pytest.raises(ValueError, match="expect counters"):
            ScenarioSpec(index=0, seed=0, duration=10.0,
                         srs={"n": 1500, "checkpoint_every": 4,
                              "expect": {"migrations": 1}})
