"""Tests for performance contracts and the contract monitor."""

import pytest

from repro.sim import Simulator
from repro.contracts import ContractMonitor, PerformanceContract


def contract(predicted=10.0, upper=1.5, lower=0.5):
    return PerformanceContract(predicted_fn=lambda phase: predicted,
                               upper=upper, lower=lower)


class TestPerformanceContract:
    def test_ratio(self):
        c = contract(predicted=10.0)
        assert c.ratio(0, 15.0) == pytest.approx(1.5)

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            contract(upper=0.5, lower=0.5)
        with pytest.raises(ValueError):
            contract(upper=1.5, lower=0.0)

    def test_nonpositive_prediction_rejected(self):
        c = PerformanceContract(predicted_fn=lambda p: 0.0)
        with pytest.raises(ValueError):
            c.ratio(0, 1.0)

    def test_negative_measurement_rejected(self):
        c = contract()
        with pytest.raises(ValueError):
            c.ratio(0, -1.0)

    def test_update_terms(self):
        c = contract(predicted=10.0)
        c.update_terms(lambda p: 20.0)
        assert c.ratio(0, 20.0) == pytest.approx(1.0)


class TestContractMonitor:
    def test_no_violation_within_band(self):
        sim = Simulator()
        monitor = ContractMonitor(sim, contract())
        for phase in range(10):
            monitor.report_phase(phase, 11.0)  # ratio 1.1
        assert monitor.requests == []
        assert monitor.contract.violations == []

    def test_single_spike_not_confirmed(self):
        """One bad phase must not trigger migration: the average of the
        recent ratios stays in band."""
        sim = Simulator()
        monitor = ContractMonitor(sim, contract(), window=5)
        for phase in range(4):
            monitor.report_phase(phase, 10.0)
        monitor.report_phase(4, 25.0)  # ratio 2.5 but avg 1.3
        assert monitor.requests == []

    def test_sustained_slowdown_confirmed_and_requested(self):
        sim = Simulator()
        calls = []
        monitor = ContractMonitor(sim, contract(), window=3,
                                  rescheduler=lambda req: calls.append(req) or True)
        for phase in range(5):
            monitor.report_phase(phase, 30.0)  # ratio 3.0
        assert len(calls) >= 1
        assert calls[0].average_ratio > 1.5
        assert 0.0 < calls[0].severity <= 1.0

    def test_declined_migration_raises_tolerance(self):
        sim = Simulator()
        monitor = ContractMonitor(sim, contract(), window=3,
                                  rescheduler=lambda req: False)
        for phase in range(3):
            monitor.report_phase(phase, 30.0)
        assert monitor.upper > 1.5
        assert monitor.limit_adjustments
        # With the adjusted limit, the same ratios no longer re-fire.
        n_requests = len(monitor.requests)
        monitor.report_phase(3, 30.0)
        assert len(monitor.requests) == n_requests

    def test_accepted_migration_does_not_adjust(self):
        sim = Simulator()
        monitor = ContractMonitor(sim, contract(), window=1,
                                  rescheduler=lambda req: True)
        monitor.report_phase(0, 30.0)
        assert monitor.upper == 1.5
        assert monitor.limit_adjustments == []

    def test_fast_run_lowers_limits(self):
        sim = Simulator()
        monitor = ContractMonitor(sim, contract(), window=2)
        for phase in range(4):
            monitor.report_phase(phase, 2.0)  # ratio 0.2, well below 0.5
        assert monitor.lower < 0.5
        assert monitor.upper < 1.5
        assert any(v.kind == "fast" for v in monitor.contract.violations)

    def test_suspend_resume(self):
        sim = Simulator()
        monitor = ContractMonitor(sim, contract(), window=1,
                                  rescheduler=lambda req: True)
        monitor.suspend()
        monitor.report_phase(0, 100.0)
        assert monitor.requests == []
        monitor.resume()
        monitor.report_phase(1, 100.0)
        assert len(monitor.requests) == 1

    def test_resume_clears_history(self):
        sim = Simulator()
        monitor = ContractMonitor(sim, contract(), window=5)
        for phase in range(3):
            monitor.report_phase(phase, 30.0)
        monitor.suspend()
        monitor.resume(clear_history=True)
        assert monitor.ratios == []

    def test_constructor_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ContractMonitor(sim, contract(), window=0)

    def test_attach_job_reports_slowest_rank(self):
        """Bulk-synchronous phases are as slow as the slowest rank."""
        from repro.microgrid import Architecture, Host, Topology
        from repro.mpi import MpiJob
        sim = Simulator()
        topo = Topology(sim)
        arch = Architecture(name="t", mflops=100.0)
        hosts = []
        topo.add_node("sw")
        for i in range(2):
            h = Host(sim, f"h{i}", arch)
            topo.attach_host(h)
            topo.add_link(h.name, "sw", bandwidth=1e8, latency=1e-4)
            hosts.append(h)
        job = MpiJob(sim, topo, hosts)
        c = PerformanceContract(predicted_fn=lambda p: 1.0)
        monitor = ContractMonitor(sim, c, window=1)
        monitor.attach_job(job)

        def body(ctx):
            # rank 1 takes 3x longer each iteration
            for it in range(3):
                start = ctx.sim.now
                yield ctx.compute(100.0 * (1 + 2 * ctx.rank))
                ctx.report_iteration(it, ctx.sim.now - start)

        done = job.launch(body)
        sim.run(stop_event=done)
        # each phase's recorded ratio is the slowest rank's 3.0
        assert all(r == pytest.approx(3.0) for r in monitor.ratios)


class FakeJob:
    """Stand-in for MpiJob's iteration-sensor interface."""

    def __init__(self, size):
        self.size = size
        self._callbacks = []

    def on_iteration(self, callback):
        self._callbacks.append(callback)

    def report(self, rank, iteration, seconds):
        for callback in self._callbacks:
            callback(rank, iteration, seconds)


class TestAttachJobHardening:
    """Sensor-stream hardening: checkpoint restarts replay iterations,
    so ranks may re-report phases the monitor already evaluated."""

    def attach(self, size=2):
        sim = Simulator()
        monitor = ContractMonitor(sim, contract(predicted=1.0), window=1)
        job = FakeJob(size=size)
        monitor.attach_job(job)
        return monitor, job

    def test_duplicate_rank_report_cannot_complete_a_phase(self):
        monitor, job = self.attach(size=2)
        job.report(0, 0, 1.0)
        job.report(0, 0, 5.0)  # same rank again: must not count twice
        assert monitor.ratios == []
        job.report(1, 0, 3.0)
        assert monitor.ratios == [pytest.approx(3.0)]

    def test_duplicate_report_does_not_update_worst(self):
        monitor, job = self.attach(size=2)
        job.report(0, 0, 1.0)
        job.report(0, 0, 99.0)  # stale duplicate with a bogus time
        job.report(1, 0, 2.0)
        assert monitor.ratios == [pytest.approx(2.0)]

    def test_stale_rereport_of_evaluated_phase_ignored(self):
        monitor, job = self.attach(size=2)
        job.report(0, 0, 1.0)
        job.report(1, 0, 1.0)
        assert len(monitor.ratios) == 1
        # an SRS restart replays phase 0 from both ranks
        job.report(0, 0, 9.0)
        job.report(1, 0, 9.0)
        assert len(monitor.ratios) == 1

    def test_evaluated_phases_are_popped(self):
        """The pending map must stay bounded over a long run."""
        monitor, job = self.attach(size=1)
        for phase in range(50):
            job.report(0, phase, 1.0)
        assert len(monitor.ratios) == 50
        # nothing is left pending: a fresh rank-0 report for any old
        # phase is recognized as stale, not a new partial phase
        job.report(0, 10, 7.0)
        assert len(monitor.ratios) == 50
