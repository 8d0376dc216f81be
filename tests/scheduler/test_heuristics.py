"""Tests for ranking and the scheduling heuristics."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry, Simulator
from repro.microgrid import fig3_testbed, heterogeneous_testbed
from repro.gis import GridInformationService
from repro.nws import NetworkWeatherService
from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import (
    GradsWorkflowScheduler,
    HEURISTICS,
    ScheduleError,
    Workflow,
    WorkflowComponent,
    build_rank_matrix,
    dcost,
    ecost,
    fifo_schedule,
    heft_schedule,
    max_min,
    min_min,
    random_schedule,
    sufferage,
)
from repro.scheduler.ranking import RANK_W1, RANK_W2


def env(grid_fn=fig3_testbed):
    sim = Simulator()
    grid = grid_fn(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
    return sim, grid, gis, nws


def comp(name, mflop_total=1000.0, n_tasks=1, in_bytes=0.0,
         memory_required=0.0):
    return WorkflowComponent(
        name=name,
        model=AnalyticComponentModel(
            mflop_fn=lambda n, m=mflop_total: m,
            memory_fn=lambda n, mem=memory_required: mem),
        problem_size=1.0,
        n_tasks=n_tasks,
        input_bytes_per_task=in_bytes,
    )


def fan_workflow(width=8, mflop=1000.0):
    """entry -> width parallel tasks -> exit (EMAN-shaped)."""
    wf = Workflow("fan")
    wf.add_component(comp("entry", mflop_total=mflop / 10))
    wf.add_component(comp("par", mflop_total=mflop * width, n_tasks=width))
    wf.add_component(comp("exit", mflop_total=mflop / 10))
    wf.add_dependence("entry", "par")
    wf.add_dependence("par", "exit")
    return wf


class TestRankMatrix:
    def test_shape_and_finiteness(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=4)
        matrix = build_rank_matrix(wf, gis, nws)
        assert matrix.shape == (6, 12)  # 1 + 4 + 1 tasks, 12 hosts
        assert np.isfinite(matrix.values).all()

    def test_faster_resource_lower_rank(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=2)
        matrix = build_rank_matrix(wf, gis, nws)
        names = [r.name for r in matrix.resources]
        utk = names.index("utk.n0")
        uiuc = names.index("uiuc.n0")
        assert matrix.values[0, utk] < matrix.values[0, uiuc]

    def test_ineligible_resource_infinite_rank(self):
        sim, grid, gis, nws = env()
        wf = Workflow("mem")
        wf.add_component(comp("big", memory_required=1 << 62))
        matrix = build_rank_matrix(wf, gis, nws)
        assert np.isinf(matrix.values).all()
        assert matrix.eligible_resources(0) == []

    def test_dcost_included_with_data_sources(self):
        sim, grid, gis, nws = env()
        wf = Workflow("data")
        wf.add_component(comp("c", in_bytes=50e6))
        bare = build_rank_matrix(wf, gis, nws)
        with_data = build_rank_matrix(
            wf, gis, nws, data_sources={"c": ["utk.n0"]})
        names = [r.name for r in with_data.resources]
        uiuc = names.index("uiuc.n0")
        utk = names.index("utk.n1")
        # pulling 50 MB across the 5 MB/s WAN adds ~10 s to UIUC's rank
        assert with_data.values[0, uiuc] - bare.values[0, uiuc] > 5.0
        # while a LAN pull is much cheaper
        assert with_data.values[0, utk] - bare.values[0, utk] < 5.0

    def test_weights_scale_components(self):
        """rank = RANK_W1 * ecost + RANK_W2 * dcost with both weights 1,
        so the matrix is the exact sum of its two components."""
        sim, grid, gis, nws = env()
        wf = Workflow("w")
        wf.add_component(comp("c", in_bytes=10e6))
        wf.add_component(comp("big", memory_required=600 << 20))
        matrix = build_rank_matrix(wf, gis, nws,
                                   data_sources={"c": ["utk.n0"]})
        assert RANK_W1 == RANK_W2 == 1.0
        assert np.isinf(matrix.values).any()
        assert np.array_equal(matrix.values, matrix.ecosts + matrix.dcosts)

    def test_no_resources_rejected(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(2)
        with pytest.raises(ValueError):
            build_rank_matrix(wf, GridInformationService(), nws)


class CountingNws:
    """An NWS stand-in that counts ``cpu_forecast`` reads per host."""

    def __init__(self, nws):
        self._nws = nws
        self.cpu_reads = Counter()

    def cpu_forecast(self, host_name):
        self.cpu_reads[host_name] += 1
        return self._nws.cpu_forecast(host_name)

    def __getattr__(self, name):
        return getattr(self._nws, name)


class TestRankMatrixForecastReads:
    """One CPU forecast read per eligible resource per build, and cells
    equal to the per-cell ``ecost``/``dcost`` bit for bit."""

    @staticmethod
    def mixed_workflow():
        # "big" needs 600 MB, so the 512 MB UIUC hosts are ineligible
        # for its rows and first become eligible in "small"'s rows.
        wf = Workflow("mixed")
        wf.add_component(comp("big", n_tasks=2, in_bytes=3e6,
                              memory_required=600 << 20))
        wf.add_component(comp("small", n_tasks=3, in_bytes=2e6))
        wf.add_dependence("big", "small")
        return wf

    @staticmethod
    def assert_cells_match(matrix, nws, sources):
        for i, task in enumerate(matrix.tasks):
            srcs = sources.get(task.component.name, [])
            for j, record in enumerate(matrix.resources):
                e = ecost(task, record, nws)
                d = dcost(task, record, nws, srcs)
                assert matrix.ecosts[i, j] == e, (task.name, record.name)
                assert matrix.dcosts[i, j] == d, (task.name, record.name)
                assert matrix.values[i, j] == e + d, (task.name, record.name)

    def test_one_read_per_eligible_resource(self):
        sim, grid, gis, nws = env()
        wf = self.mixed_workflow()
        sources = {"big": ["utk.n0"]}
        hosts = [r.name for r in gis.resources()]
        # No sweep has run: every first read is an on-demand probe.
        assert all(nws.cpu_forecaster(h).predict() is None for h in hosts)
        for _build in range(2):  # probes first, then forecasts
            counting = CountingNws(nws)
            matrix = build_rank_matrix(wf, gis, counting,
                                       data_sources=sources)
            assert counting.cpu_reads == Counter(hosts)
            self.assert_cells_match(matrix, nws, sources)
        assert all(nws.cpu_forecaster(h).predict() is not None
                   for h in hosts)

    def test_ineligible_resources_are_not_read(self):
        sim, grid, gis, nws = env()
        wf = Workflow("big")
        wf.add_component(comp("big", n_tasks=3,
                              memory_required=600 << 20))
        counting = CountingNws(nws)
        matrix = build_rank_matrix(wf, gis, counting)
        eligible = {matrix.resources[j].name
                    for i in range(len(matrix.tasks))
                    for j in matrix.eligible_resources(i)}
        assert eligible and len(eligible) < len(matrix.resources)
        assert counting.cpu_reads == Counter(eligible)
        self.assert_cells_match(matrix, nws, {})


class TestHeuristics:
    @pytest.mark.parametrize("heuristic", [min_min, max_min, sufferage,
                                           fifo_schedule, heft_schedule])
    def test_schedule_is_complete_and_consistent(self, heuristic):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=8)
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = heuristic(wf, matrix, nws)
        assert len(schedule.placements) == len(wf.tasks())
        # no two tasks overlap on one resource
        for record in matrix.resources:
            placements = sorted(
                (p for p in schedule.placements.values()
                 if p.resource == record.name),
                key=lambda p: p.est_start)
            for a, b in zip(placements, placements[1:]):
                assert b.est_start >= a.est_finish - 1e-9
        # dependences respected in estimated timelines
        for t in wf.tasks():
            p = schedule.placements[t.name]
            for pred in wf.predecessors(t.component.name):
                for i in range(pred.n_tasks):
                    pp = schedule.placements[f"{pred.name}[{i}]"]
                    assert p.est_start >= pp.est_finish - 1e-9

    def test_min_min_uses_fast_hosts(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=4)
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = min_min(wf, matrix, nws)
        used = {p.resource for p in schedule.placements.values()}
        assert any(name.startswith("utk.") for name in used)

    def test_heuristics_spread_wide_fan(self):
        """12 independent equal tasks across 12 hosts must not pile onto
        one machine under any informed heuristic."""
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=12)
        matrix = build_rank_matrix(wf, gis, nws)
        for heuristic in (min_min, max_min, sufferage):
            schedule = heuristic(wf, matrix, nws)
            used = {schedule.placements[f"par[{i}]"].resource
                    for i in range(12)}
            assert len(used) >= 6, schedule.heuristic

    def test_informed_heuristics_beat_random(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=10)
        matrix = build_rank_matrix(wf, gis, nws)
        rng = RngRegistry(seed=11).stream("sched")
        random_spans = [random_schedule(wf, matrix, nws, rng).makespan
                        for _ in range(10)]
        informed = min(h(wf, matrix, nws).makespan
                       for h in (min_min, max_min, sufferage))
        assert informed <= min(random_spans) + 1e-9
        assert informed < float(np.mean(random_spans))

    def test_informed_heuristics_beat_fifo_on_heterogeneous_grid(self):
        """FIFO ignores speeds; on a 2x-heterogeneous grid the informed
        heuristics must win."""
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=8)
        matrix = build_rank_matrix(wf, gis, nws)
        fifo_span = fifo_schedule(wf, matrix, nws).makespan
        informed = min(h(wf, matrix, nws).makespan
                       for h in (min_min, max_min, sufferage))
        assert informed <= fifo_span + 1e-9

    def test_sufferage_prefers_contested_resources(self):
        """Sufferage's defining behaviour: tasks that lose a lot without
        their best host get it first."""
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=4)
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = sufferage(wf, matrix, nws)
        assert schedule.heuristic == "sufferage"
        assert schedule.makespan > 0

    def test_ineligible_everywhere_raises(self):
        sim, grid, gis, nws = env()
        wf = Workflow("mem")
        wf.add_component(comp("big", memory_required=1 << 62))
        matrix = build_rank_matrix(wf, gis, nws)
        for heuristic in (min_min, max_min, sufferage, fifo_schedule,
                          heft_schedule):
            with pytest.raises(ScheduleError):
                heuristic(wf, matrix, nws)

    def test_random_schedule_deterministic_with_seed(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=6)
        matrix = build_rank_matrix(wf, gis, nws)
        s1 = random_schedule(wf, matrix, nws,
                             RngRegistry(seed=5).stream("x"))
        s2 = random_schedule(wf, matrix, nws,
                             RngRegistry(seed=5).stream("x"))
        assert {k: v.resource for k, v in s1.placements.items()} == \
               {k: v.resource for k, v in s2.placements.items()}

    def test_random_baseline_registered(self):
        """Regression: sweeps iterating HEURISTICS silently skipped the
        documented random baseline because it was missing from the
        registry."""
        assert "random" in HEURISTICS
        assert HEURISTICS["random"] is random_schedule

    def test_random_registry_entry_is_deterministic(self):
        """The registry call signature (no rng) must still be stable."""
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=5)
        matrix = build_rank_matrix(wf, gis, nws)
        s1 = HEURISTICS["random"](wf, matrix, nws)
        s2 = HEURISTICS["random"](wf, matrix, nws)
        assert {k: v.resource for k, v in s1.placements.items()} == \
               {k: v.resource for k, v in s2.placements.items()}
        assert s1.heuristic == "random"

    def test_every_registry_entry_runs_with_common_signature(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=3)
        matrix = build_rank_matrix(wf, gis, nws)
        for name, heuristic in HEURISTICS.items():
            schedule = heuristic(wf, matrix, nws)
            assert len(schedule.placements) == 5, name


class TestComponentResources:
    def test_ordered_by_task_index_beyond_ten(self):
        """Regression: sorting placements by *name* put par[10] before
        par[2], so any component with >= 10 tasks got its per-task
        resource list scrambled."""
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=12)
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = min_min(wf, matrix, nws)
        resources = schedule.component_resources("par")
        assert len(resources) == 12
        expected = [schedule.placements[f"par[{i}]"].resource
                    for i in range(12)]
        assert resources == expected

    def test_matches_single_task_component(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=3)
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = min_min(wf, matrix, nws)
        assert schedule.component_resources("entry") == \
            [schedule.placements["entry[0]"].resource]


class TestSchedulerCounters:
    def test_counters_accumulate_on_sim_stats(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=6)
        matrix = build_rank_matrix(wf, gis, nws)
        sim.stats.reset()
        min_min(wf, matrix, nws)
        snap = sim.stats.snapshot()
        # one round per committed task
        assert snap["sched_rounds"] == len(wf.tasks())
        assert snap["sched_evaluations"] > 0

    def test_memo_hits_on_shared_sources(self):
        """Two consumers pulling from the same producer location must
        hit the per-builder forecast memo, not re-query the NWS."""
        sim, grid, gis, nws = env()
        wf = Workflow("split")
        wf.add_component(comp("entry", mflop_total=100.0))
        wf.add_component(comp("left", mflop_total=2000.0, n_tasks=2,
                              in_bytes=4e6))
        wf.add_component(comp("right", mflop_total=2000.0, n_tasks=2,
                              in_bytes=4e6))
        wf.add_dependence("entry", "left")
        wf.add_dependence("entry", "right")
        matrix = build_rank_matrix(wf, gis, nws)
        sim.stats.reset()
        min_min(wf, matrix, nws)
        assert sim.stats.snapshot()["sched_memo_hits"] > 0

    def test_reference_engine_counts_more_evaluations(self):
        from tests.oracles.heuristics import reference_min_min
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=8)
        matrix = build_rank_matrix(wf, gis, nws)
        sim.stats.reset()
        min_min(wf, matrix, nws)
        fast_evals = sim.stats.snapshot()["sched_evaluations"]
        sim.stats.reset()
        reference_min_min(wf, matrix, nws)
        ref_evals = sim.stats.snapshot()["sched_evaluations"]
        assert 0 < fast_evals < ref_evals


class TestTieBreakDirection:
    """max-min and sufferage must break score ties toward the smallest
    task name, the same direction as min-min (regression: they used the
    largest, so schedules flipped under task renaming)."""

    @staticmethod
    def _tied_bag():
        wf = Workflow("bag")
        wf.add_component(comp("aaa", mflop_total=1000.0))
        wf.add_component(comp("zzz", mflop_total=1000.0))
        return wf

    def _first_committed(self, schedule):
        return min(schedule.placements.values(),
                   key=lambda p: (p.est_finish, p.task.name)).task.name

    def test_max_min_prefers_smallest_name_on_tie(self):
        sim, grid, gis, nws = env()
        wf = self._tied_bag()
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = max_min(wf, matrix, nws)
        # Identical tasks: the first commit (earliest finish on the best
        # resource) must be the lexicographically smallest name.
        assert self._first_committed(schedule) == "aaa[0]"

    def test_sufferage_prefers_smallest_name_on_tie(self):
        sim, grid, gis, nws = env()
        wf = self._tied_bag()
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = sufferage(wf, matrix, nws)
        assert self._first_committed(schedule) == "aaa[0]"

    def test_min_min_agrees_with_max_min_on_identical_tasks(self):
        sim, grid, gis, nws = env()
        wf = self._tied_bag()
        matrix = build_rank_matrix(wf, gis, nws)
        a = {k: v.resource for k, v in min_min(wf, matrix, nws)
             .placements.items()}
        b = {k: v.resource for k, v in max_min(wf, matrix, nws)
             .placements.items()}
        assert a == b


class TestGradsScheduler:
    def test_picks_min_makespan_of_three(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=8)
        result = GradsWorkflowScheduler(gis, nws).schedule(wf)
        assert set(result.candidates) == {"min-min", "max-min", "sufferage"}
        assert result.best.makespan == min(result.makespans().values())

    def test_respects_resource_subset(self):
        sim, grid, gis, nws = env()
        wf = fan_workflow(width=4)
        subset = [r for r in gis.resources() if r.cluster == "uiuc"]
        result = GradsWorkflowScheduler(gis, nws).schedule(
            wf, resources=subset)
        used = {p.resource for p in result.best.placements.values()}
        assert all(name.startswith("uiuc.") for name in used)

    def test_heterogeneous_grid_schedules(self):
        sim, grid, gis, nws = env(grid_fn=heterogeneous_testbed)
        wf = fan_workflow(width=10)
        result = GradsWorkflowScheduler(gis, nws).schedule(wf)
        used_isas = {gis.lookup(p.resource).isa
                     for p in result.best.placements.values()}
        # fast IA-64 nodes must attract work alongside IA-32
        assert "ia64" in used_isas


@settings(max_examples=15, deadline=None)
@given(width=st.integers(min_value=1, max_value=12),
       heuristic_name=st.sampled_from(["min-min", "max-min", "sufferage",
                                       "fifo", "heft"]))
def test_property_schedules_complete_and_dependence_safe(width, heuristic_name):
    sim, grid, gis, nws = env()
    wf = fan_workflow(width=width)
    matrix = build_rank_matrix(wf, gis, nws)
    schedule = HEURISTICS[heuristic_name](wf, matrix, nws)
    assert len(schedule.placements) == width + 2
    entry_finish = schedule.placements["entry[0]"].est_finish
    exit_start = schedule.placements["exit[0]"].est_start
    for i in range(width):
        p = schedule.placements[f"par[{i}]"]
        assert p.est_start >= entry_finish - 1e-9
        assert exit_start >= p.est_finish - 1e-9
