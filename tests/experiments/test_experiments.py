"""Integration tests over the experiment drivers.

These check the *shapes* the paper reports (see EXPERIMENTS.md), at
reduced problem sizes so the suite stays fast; the benchmarks under
``benchmarks/`` regenerate the full-size figures.
"""

import pytest

from repro.appmanager import GradsEnvironment
from repro.apps.qr import QrBenchmark
from repro.experiments import (
    run_eman_demo,
    run_fig3_point,
    run_fig3,
    run_fig4,
)
from repro.experiments.common import bar_chart, format_series, format_table
from repro.microgrid import fig3_testbed
from repro.microgrid.loadgen import ScheduledLoad
from repro.sim import Simulator


class TestCommon:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xxx", 0.001]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_bad_row(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_downsamples(self):
        text = format_series([(float(i), i) for i in range(200)],
                             "t", "i", max_points=10)
        assert len(text.splitlines()) < 20

    def test_bar_chart(self):
        text = bar_chart(["x", "y"], [1.0, 2.0])
        assert text.splitlines()[1].count("#") > text.splitlines()[0].count("#")
        with pytest.raises(ValueError):
            bar_chart(["x"], [1.0, 2.0])


class TestFig3:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            run_fig3_point(4000, "sideways")

    def test_small_sweep_shapes(self):
        result = run_fig3(sizes=(4000, 9000), nb=200, load_at=120.0)
        # small problem: rescheduling does not pay (or is a wash)
        stay4, move4 = result.pair(4000)
        # large problem: rescheduling wins clearly
        stay9, move9 = result.pair(9000)
        assert move9.total_seconds < stay9.total_seconds
        assert move9.migrations == 1
        # checkpoint read dominates write wherever a migration happened
        assert move9.phase("checkpoint_read_2") > \
            5 * move9.phase("checkpoint_write_1")
        # tables render
        assert "Figure 3" in result.to_table()
        assert "decisions" in result.decision_table()

    def test_no_reschedule_never_migrates(self):
        point = run_fig3_point(5000, "no-reschedule", load_at=60.0)
        assert point.migrations == 0
        assert point.phase("checkpoint_read_2") == 0.0

    def test_message_path_counters_pinned(self):
        """The kernel and network counters of one forced migration, as
        ``run_fig3_point(5000, "reschedule", load_at=120.0)`` builds it.
        The fig3 golden carries no ``sim.stats``; these pin what the QR
        message path costs in events, reallocations and route lookups,
        migration traffic included."""
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid, submission_host="utk.n0")
        run, _monitor, _rescheduler = env.managed_qr(
            QrBenchmark(n=5000, nb=200),
            initial_hosts=grid.clusters["utk"].host_names(),
            rescheduler_mode="force-migrate",
            worst_case_migration_seconds=None)
        ScheduledLoad(host=grid.clusters["utk"][0], at=120.0,
                      nprocs=8).install(sim)
        sim.run(stop_event=run.start())
        assert run.migrations == 1
        stats = sim.stats
        assert (stats.events_processed, stats.reallocations,
                stats.wakeups_cancelled, stats.route_cache_hits,
                stats.route_cache_misses) == (2468, 634, 185, 941, 12)


class TestFig4:
    def test_progress_dips_and_recovers(self):
        result = run_fig4(n_iterations=80)
        pre = result.rate_between(10.0, 80.0)
        swapped = result.all_swaps_done_by()
        assert swapped is not None and swapped < 150.0  # paper: by ~150 s
        loaded = result.rate_between(80.0, swapped)
        post = result.rate_between(swapped + 5.0, result.finished_at)
        assert loaded < pre * 0.5  # visible dip
        assert post > loaded * 2  # visible recovery
        assert post > pre * 0.6  # back near the original slope

    def test_gang_policy_moves_all_three_to_uiuc(self):
        result = run_fig4(n_iterations=60)
        assert len(result.swap_times) == 3
        assert all(name.startswith("uiuc.") for name in result.swapped_to)

    def test_swapping_beats_baseline(self):
        swap = run_fig4(n_iterations=60)
        base = run_fig4(n_iterations=60, with_swapping=False)
        assert swap.finished_at < base.finished_at
        assert base.swap_times == []

    def test_series_renders(self):
        result = run_fig4(n_iterations=30)
        assert "Figure 4" in result.to_series()


class TestEman:
    def test_demo_shapes(self):
        result = run_eman_demo(n_random=3)
        # informed beats random by a wide margin on a heterogeneous grid
        informed = min(result.estimated[name]
                       for name in ("min-min", "max-min", "sufferage"))
        assert informed < result.estimated["random(mean)"]
        assert informed <= result.estimated["fifo"] + 1e-9
        # the chosen schedule executes and uses both ISAs
        assert result.isas_used == ["ia32", "ia64"]
        assert result.measured_makespan == pytest.approx(
            result.estimated[result.chosen_heuristic], rel=0.5)
        assert "EMAN" in result.to_table()
