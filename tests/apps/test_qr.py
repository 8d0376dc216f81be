"""Tests for the QR benchmark and its managed GrADS lifecycle."""

import pytest

from repro.sim import Simulator
from repro.microgrid import ScheduledLoad, fig3_testbed
from repro.appmanager import GradsEnvironment
from repro.apps import QrBenchmark, qr_steps, qr_step_mflop, qr_total_mflop


def build(n=2000, nb=100, internet_bw=5e6, **kwargs):
    sim = Simulator()
    grid = fig3_testbed(sim, internet_bw=internet_bw)
    env = GradsEnvironment(sim, grid, submission_host="utk.n0")
    benchmark = QrBenchmark(n=n, nb=nb)
    run, monitor, rescheduler = env.managed_qr(
        benchmark, initial_hosts=grid.clusters["utk"].host_names(), **kwargs)
    return sim, grid, env, run, monitor, rescheduler


class TestKernels:
    def test_step_series_sums_to_total(self):
        n, nb = 3000, 64
        total = sum(qr_step_mflop(n, nb, j) for j in range(qr_steps(n, nb)))
        assert total == pytest.approx(qr_total_mflop(n), rel=0.15)

    def test_steps_shrink(self):
        n, nb = 1000, 100
        costs = [qr_step_mflop(n, nb, j) for j in range(qr_steps(n, nb))]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            qr_step_mflop(100, 10, 99)
        with pytest.raises(ValueError):
            qr_steps(100, 0)
        with pytest.raises(ValueError):
            QrBenchmark(n=0)


class TestQrRunNoMigration:
    def test_completes_with_phase_ledger(self):
        sim, grid, env, run, monitor, rescheduler = build(n=1500)
        finished = run.start()
        sim.run(stop_event=finished)
        timings = finished.value
        for phase in ("resource_selection_1", "performance_modeling_1",
                      "grid_overhead_1", "application_start_1",
                      "application_duration_1"):
            assert timings[phase] > 0, phase
        assert run.migrations == 0
        assert run.progress == run.benchmark.steps
        assert "checkpoint_write_1" not in timings

    def test_progress_tracks_steps(self):
        sim, grid, env, run, monitor, rescheduler = build(n=1000, nb=250)
        finished = run.start()
        sim.run(stop_event=finished)
        assert run.progress == 4

    def test_duration_close_to_model_prediction(self):
        sim, grid, env, run, monitor, rescheduler = build(n=2000)
        predicted = run.predicted_remaining_seconds(run.current_hosts())
        finished = run.start()
        sim.run(stop_event=finished)
        measured = finished.value["application_duration_1"]
        assert measured == pytest.approx(predicted, rel=0.35)

    def test_contract_quiet_on_unloaded_grid(self):
        sim, grid, env, run, monitor, rescheduler = build(n=1500)
        finished = run.start()
        sim.run(stop_event=finished)
        assert monitor.requests == []

    def test_double_start_rejected(self):
        sim, grid, env, run, monitor, rescheduler = build(n=800)
        run.start()
        with pytest.raises(RuntimeError):
            run.start()


class TestQrRunMigration:
    def build_loaded(self, n=4000, mode="default", worst_case=None,
                     load_at=60.0, nprocs=8):
        sim, grid, env, run, monitor, rescheduler = build(
            n=n, rescheduler_mode=mode,
            worst_case_migration_seconds=worst_case)
        # Artificial load on one UTK node, paper-style.
        ScheduledLoad(host=grid.clusters["utk"][0], at=load_at,
                      nprocs=nprocs).install(sim)
        return sim, grid, env, run, monitor, rescheduler

    def test_load_triggers_contract_violation(self):
        sim, grid, env, run, monitor, rescheduler = self.build_loaded(
            mode="force-stay")
        finished = run.start()
        sim.run(stop_event=finished)
        assert len(monitor.requests) >= 1
        assert run.migrations == 0  # force-stay never migrates

    def test_force_migrate_moves_to_uiuc(self):
        sim, grid, env, run, monitor, rescheduler = self.build_loaded(
            mode="force-migrate")
        finished = run.start()
        sim.run(stop_event=finished)
        assert run.migrations == 1
        assert all(h.startswith("uiuc.") for h in run.current_hosts())
        assert run.progress == run.benchmark.steps
        timings = finished.value
        assert timings["checkpoint_write_1"] > 0
        assert timings["checkpoint_read_2"] > 0
        assert timings["application_duration_2"] > 0
        # The checkpoint read crosses the Internet and dwarfs the write.
        assert timings["checkpoint_read_2"] > 3 * timings["checkpoint_write_1"]

    def test_default_mode_migrates_large_problem(self):
        """For a big matrix the remaining-time gain dominates the
        (accurately estimated) migration cost."""
        sim, grid, env, run, monitor, rescheduler = self.build_loaded(
            n=6000, mode="default", worst_case=None)
        finished = run.start()
        sim.run(stop_event=finished)
        assert run.migrations == 1
        assert rescheduler.decisions
        assert rescheduler.decisions[0].evaluation.profitable

    def test_pessimistic_worst_case_blocks_small_problem(self):
        """With the paper's 900 s worst-case cost, a small problem's
        benefit cannot justify migration — the §4.1.2 wrong-decision
        mechanism."""
        sim, grid, env, run, monitor, rescheduler = self.build_loaded(
            n=3000, mode="default", worst_case=900.0, load_at=20.0)
        finished = run.start()
        sim.run(stop_event=finished)
        assert run.migrations == 0
        assert any(not d.migrated for d in rescheduler.decisions)
        # The monitor raised its tolerance after the declined request.
        assert monitor.upper > 1.5

    def test_migration_event_value_is_new_hosts(self):
        sim, grid, env, run, monitor, rescheduler = self.build_loaded(
            mode="force-migrate")
        finished = run.start()
        captured = []
        orig_migrate = run.migrate

        def spy(new_hosts):
            ev = orig_migrate(new_hosts)
            ev.add_callback(lambda e: captured.append(e.value))
            return ev

        run.migrate = spy
        sim.run(stop_event=finished)
        assert captured and all(h.startswith("uiuc.") for h in captured[0])

    def test_migrated_run_result_matches_problem(self):
        """End-to-end conservation: total compute done across both
        segments covers the full factorization."""
        sim, grid, env, run, monitor, rescheduler = self.build_loaded(
            mode="force-migrate")
        finished = run.start()
        sim.run(stop_event=finished)
        total_done = sum(h.mflop_done for h in grid.all_hosts())
        # >= because background load doesn't count, binder compile does.
        assert total_done >= qr_total_mflop(run.benchmark.n) * 0.65


class TestBindEstimate:
    @pytest.mark.parametrize("host", ["utk.n2", "uiuc.n5"])
    def test_estimate_matches_binder_cost_on_idle_grid(self, host):
        """The rescheduler's bind-cost estimate is the binder's own
        per-host cost: IR shipping, Autopilot instrumentation,
        configure and compile."""
        sim, grid, env, run, _monitor, _rescheduler = build()
        estimate = run._bind_estimate([host])
        bound = env.binder.bind(run._cop, [host])
        sim.run(stop_event=bound)
        assert estimate == pytest.approx(bound.value.per_host_seconds[host])
