"""Tests for the LIGO pulsar-search workflow."""

import pytest

from repro.sim import Simulator
from repro.microgrid import grads_macrogrid
from repro.gis import GridInformationService
from repro.nws import NetworkWeatherService
from repro.apps import LIGO_STAGES, LigoParameters, ligo_pulsar_search_workflow
from repro.scheduler import GradsWorkflowScheduler, WorkflowExecutor
from tests.oracles.graphs import reference_generations, workflow_digraph


class TestLigoParameters:
    def test_defaults_plausible(self):
        params = LigoParameters()
        assert params.n_sfts == 20  # 10 h of 30-minute SFTs
        assert params.sft_samples == int(1800 * 16384)

    def test_search_dominates(self):
        params = LigoParameters()
        total = (params.frame_extract_mflop() + params.make_sfts_mflop()
                 + params.pulsar_search_mflop() + params.sift_mflop()
                 + params.coincidence_mflop())
        assert params.pulsar_search_mflop() / total > 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            LigoParameters(observation_hours=0.0)
        with pytest.raises(ValueError):
            LigoParameters(n_sky_points=0)
        with pytest.raises(ValueError):
            LigoParameters(band_bins=0)

    def test_candidates_scale_with_search_volume(self):
        small = LigoParameters(n_sky_points=10)
        big = LigoParameters(n_sky_points=1000)
        assert big.expected_candidates() > small.expected_candidates()


class TestLigoWorkflow:
    def test_stage_order_linear(self):
        wf = ligo_pulsar_search_workflow(LigoParameters())
        assert [c.name for c in wf.components()] == list(LIGO_STAGES)
        generations = reference_generations(workflow_digraph(wf))
        assert len(generations) == len(LIGO_STAGES)

    def test_parallel_stage_expansion(self):
        wf = ligo_pulsar_search_workflow(LigoParameters(),
                                         search_tasks=40, sft_tasks=8)
        assert len(wf.tasks()) == 1 + 8 + 40 + 1 + 1

    def test_task_count_validation(self):
        with pytest.raises(ValueError):
            ligo_pulsar_search_workflow(LigoParameters(), search_tasks=0)

    def test_schedules_and_executes_on_macrogrid(self):
        """End to end on the full MacroGrid: schedule with the GrADS
        scheduler, execute, verify the estimate tracks the measurement."""
        sim = Simulator()
        grid = grads_macrogrid(sim)
        gis = GridInformationService()
        gis.register_grid(grid)
        nws = NetworkWeatherService(sim, grid)
        params = LigoParameters(n_sky_points=100, band_bins=50_000)
        wf = ligo_pulsar_search_workflow(params, search_tasks=24)
        result = GradsWorkflowScheduler(gis, nws).schedule(
            wf, data_sources={"frame_extract": ["ucsd.n0"]})
        assert result.best.makespan > 0
        trace_event = WorkflowExecutor(sim, grid.topology, gis).execute(
            wf, result.best)
        sim.run(stop_event=trace_event)
        trace = trace_event.value
        # The schedule estimate ignores transfer contention (as real
        # GrADS estimates did), so with a multi-GB SFT database fanned
        # out over a shared WAN it is a lower bound, not a prediction.
        assert trace.makespan >= result.best.makespan * 0.9
        assert trace.makespan <= result.best.makespan * 10
        # the fan-out stage spreads across many machines
        search_hosts = {trace.tasks[f"pulsar_search[{i}]"].resource
                        for i in range(24)}
        assert len(search_hosts) >= 10

    def test_data_aware_entry_placement(self):
        """With the frames pinned at UCSD, the entry stage should land
        near the data rather than on a random fast node."""
        sim = Simulator()
        grid = grads_macrogrid(sim)
        gis = GridInformationService()
        gis.register_grid(grid)
        nws = NetworkWeatherService(sim, grid)
        params = LigoParameters(n_sky_points=50, band_bins=20_000,
                                observation_hours=20.0)
        wf = ligo_pulsar_search_workflow(params, search_tasks=8)
        result = GradsWorkflowScheduler(gis, nws).schedule(
            wf, data_sources={"frame_extract": ["ucsd.n0"]})
        entry_host = result.best.placements["frame_extract[0]"].resource
        assert entry_host.startswith("ucsd.")
