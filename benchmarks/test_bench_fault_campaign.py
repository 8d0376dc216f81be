"""Benchmark: the MTBF/MTTR fault campaign as a soak preset.

Four ``sample_mtbf_scenario`` scenarios (both grid cells, two trials
each): a checkpointed QR run under pre-sampled host churn.  Prints the
soak tables and re-checks that the report is deterministic under a
fixed seed.
"""

import pytest

from repro.experiments.soak import run_soak, soak_tables
from repro.soak import sample_mtbf_scenario


def _campaign():
    return run_soak(seed=0, scenarios=4, sampler=sample_mtbf_scenario)


@pytest.fixture(scope="module")
def campaign():
    return _campaign()


def test_bench_fault_campaign(benchmark):
    result = benchmark.pedantic(_campaign, rounds=1, iterations=1)
    assert len(result.results) == 4


class TestCampaignReport:
    def test_print_report(self, campaign):
        print()
        print(soak_tables(campaign.report()))

    def test_no_trial_leaks_inflight_migrations(self, campaign):
        by_invariant = campaign.report()["summary"]["by_invariant"]
        assert "srs-hygiene" not in by_invariant, by_invariant

    def test_all_scenarios_pass(self, campaign):
        for result in campaign.results:
            assert result["quiesced"], result["index"]
            assert result["violations"] == [], result["violations"]

    def test_report_is_deterministic(self, campaign):
        assert _campaign().to_json() == campaign.to_json()
