"""The ScaLAPACK QR factorization benchmark (§4.1.2).

An SRS-instrumented, block-cyclic, bulk-synchronous QR factorization:
each panel step factors a panel, broadcasts it, and updates the
trailing matrix; the matrix A and right-hand side B are registered with
SRS, the stop flag is polled at step boundaries, and a stop triggers a
consistent checkpoint to local IBP depots.

:class:`QrRun` is the full GrADS lifecycle driver — resource selection,
performance modeling, binding, launching, monitoring, migration — and
implements :class:`~repro.rescheduling.rescheduler.MigratableApp`, so
the generic rescheduler can move it.  Its phase-time ledger is exactly
the stacked-bar breakdown of Figure 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..binder.binder import MPI_STARTUP_SECONDS, DistributedBinder
from ..cop.cop import CompilationPackage, ConfigurableObjectProgram
from ..contracts.monitor import ContractMonitor
from ..gis.directory import GridInformationService
from ..microgrid.dml import Grid
from ..microgrid.host import HostFailure
from ..mpi.comm import MpiContext, MpiJob
from ..nws.service import NetworkWeatherService
from ..rescheduling.rescheduler import MigratableApp
from ..rescheduling.rss import RuntimeSupportSystem
from ..rescheduling.srs import RegisteredData, SRSLibrary
from ..sim.events import Event
from ..sim.kernel import Simulator
from .kernels import (
    BYTES_PER_ELEMENT,
    qr_matrix_bytes,
    qr_panel_bytes,
    qr_step_mflop,
    qr_steps,
)

__all__ = ["QrBenchmark", "QrRun", "qr_cop", "PERF_MODELING_SECONDS",
           "RESOURCE_SELECTION_SECONDS"]

#: fixed service costs charged per (re)schedule, visible as the small
#: "performance modeling" and "resource selection" bars in Figure 3
PERF_MODELING_SECONDS = 3.0
RESOURCE_SELECTION_SECONDS = 2.0


@dataclass(frozen=True)
class QrBenchmark:
    """Static description of one QR problem."""

    n: int
    nb: int = 64

    def __post_init__(self) -> None:
        if self.n < 1 or self.nb < 1:
            raise ValueError("need n >= 1 and nb >= 1")

    @property
    def steps(self) -> int:
        return qr_steps(self.n, self.nb)

    @property
    def checkpoint_bytes(self) -> float:
        return qr_matrix_bytes(self.n)

    def step_mflop(self, step: int) -> float:
        return qr_step_mflop(self.n, self.nb, step)

    def registered_data(self) -> List[RegisteredData]:
        """Matrix A and vector B, dealt block-cyclically by columns."""
        col_block_bytes = self.n * self.nb * BYTES_PER_ELEMENT
        return [
            RegisteredData("A", total_bytes=float(self.n * self.n
                                                  * BYTES_PER_ELEMENT),
                           block_bytes=float(col_block_bytes)),
            RegisteredData("B", total_bytes=float(self.n * BYTES_PER_ELEMENT),
                           block_bytes=float(self.nb * BYTES_PER_ELEMENT)),
        ]


def qr_cop(benchmark: QrBenchmark) -> ConfigurableObjectProgram:
    """Package the benchmark as a COP for the binder.  Its code, mapper
    and performance model are :class:`QrRun`'s ``make_body``,
    ``propose_hosts`` and ``predicted_remaining_seconds``."""
    return ConfigurableObjectProgram(
        name=f"scalapack-qr-{benchmark.n}",
        package=CompilationPackage(required_packages=("scalapack", "mpi")),
    )


class QrRun(MigratableApp):
    """One managed execution of the QR benchmark on a grid."""

    def __init__(self, sim: Simulator, grid: Grid,
                 gis: GridInformationService, nws: NetworkWeatherService,
                 binder: DistributedBinder, rss: RuntimeSupportSystem,
                 srs: SRSLibrary, benchmark: QrBenchmark,
                 initial_hosts: Sequence[str],
                 monitor: Optional[ContractMonitor] = None,
                 checkpoint_every: Optional[int] = None,
                 max_restart_attempts: int = 8,
                 retry_backoff_seconds: float = 5.0) -> None:
        """``checkpoint_every`` enables periodic SRS checkpoints every k
        panel steps, which is what makes crash recovery (the VGrADS
        fault-tolerance extension) possible: after a host failure the
        manager restarts from the last periodic checkpoint instead of
        from scratch.

        ``max_restart_attempts`` bounds *consecutive* failed restart
        attempts (the counter resets each time a segment launches
        successfully), so a run wedged against dead resources gives up
        with a RuntimeError instead of spinning forever;
        ``retry_backoff_seconds`` is the base of the exponential
        backoff between those attempts."""
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if max_restart_attempts < 1:
            raise ValueError("max_restart_attempts must be >= 1")
        if retry_backoff_seconds <= 0:
            raise ValueError("retry_backoff_seconds must be positive")
        self.sim = sim
        self.grid = grid
        self.gis = gis
        self.nws = nws
        self.binder = binder
        self.rss = rss
        self.srs = srs
        self.benchmark = benchmark
        self.name = f"qr-{benchmark.n}"
        self.monitor = monitor
        self._hosts: List[str] = list(initial_hosts)
        self._cop = qr_cop(benchmark)
        for data in benchmark.registered_data():
            srs.register_data(data)
        self.checkpoint_every = checkpoint_every
        self.max_restart_attempts = max_restart_attempts
        self.retry_backoff_seconds = retry_backoff_seconds
        #: completed panel steps (all ranks past this step)
        self.progress = 0
        #: Figure 3 ledger: phase name -> seconds
        self.timings: Dict[str, float] = {}
        self.migrations = 0
        #: host failures the manager recovered from
        self.failures_recovered = 0
        #: per-recovery log: {"segment", "crashed_at", "restarted_at"}
        self.recoveries: List[Dict[str, float]] = []
        #: backoff waits taken because no candidate resources existed
        self.retry_waits = 0
        self._migration_target: Optional[List[str]] = None
        self._migration_done: Optional[Event] = None
        self._finished: Optional[Event] = None
        self._job: Optional[MpiJob] = None
        self._ckpt_write_secs: Dict[int, float] = {}
        self._ckpt_read_secs: Dict[int, float] = {}

    # -- MigratableApp interface ---------------------------------------------------
    def current_hosts(self) -> List[str]:
        return list(self._hosts)

    def propose_hosts(self, exclude: Sequence[str] = ()) -> List[str]:
        """Best whole cluster by predicted remaining time: the QR COP's
        mapper, ranking clusters with the app's own cost model."""
        banned = set(exclude)
        best_hosts: Optional[List[str]] = None
        best_seconds = math.inf
        by_cluster: Dict[str, List[str]] = {}
        for record in self.gis.resources():
            if record.cluster is None or record.name in banned:
                continue
            if not self.gis.host(record.name).alive:
                continue
            by_cluster.setdefault(record.cluster, []).append(record.name)
        for cluster in sorted(by_cluster):
            hosts = sorted(by_cluster[cluster])
            if len(hosts) < 2:
                continue
            seconds = self.predicted_remaining_seconds(hosts)
            if seconds < best_seconds:
                best_seconds = seconds
                best_hosts = hosts
        if best_hosts is None:
            raise RuntimeError("no candidate cluster for QR")
        return best_hosts

    def predicted_remaining_seconds(self, host_names: Sequence[str]) -> float:
        """Sum the per-step model over the remaining panel steps, on
        one live CPU forecast per host."""
        if not host_names:
            return math.inf
        availability = {name: self.nws.cpu_forecast(name)
                        for name in host_names}
        steps = range(self.progress, self.benchmark.steps)
        if not steps:
            return 0  # an empty sum, even when a host offers no CPU
        # The frozen forecasts fix the host speeds, so they and the
        # slowest are computed once, not once per step.
        speeds = []
        for name in host_names:
            record = self.gis.lookup(name)
            avail = availability[name]
            if avail <= 0:
                return math.inf
            speeds.append(record.mflops * avail)
        slowest = min(speeds)
        return sum(self._step_seconds(j, host_names, slowest) for j in steps)

    def predicted_step_seconds(self, step: int,
                               host_names: Sequence[str],
                               availability: Optional[Dict[str, float]] = None
                               ) -> float:
        """Contract prediction for one step on the given hosts.

        Bulk-synchronous: the slowest host gates each step; the panel
        broadcast crosses the cluster fabric log2(P) times.

        ``availability`` freezes the CPU forecasts (contract terms are
        negotiated once, at launch); None queries NWS live, which is
        what rescheduling cost/benefit evaluation wants.
        """
        speeds = []
        for name in host_names:
            record = self.gis.lookup(name)
            avail = (availability[name] if availability is not None
                     else self.nws.cpu_forecast(name))
            if avail <= 0:
                return math.inf
            speeds.append(record.mflops * avail)
        return self._step_seconds(step, host_names, min(speeds))

    def _step_seconds(self, step: int, host_names: Sequence[str],
                      slowest: float) -> float:
        """One step's flop time on the slowest host plus its panel
        broadcast."""
        p = len(host_names)
        flop_seconds = self.benchmark.step_mflop(step) / p / slowest
        comm_seconds = 0.0
        if p > 1:
            panel = qr_panel_bytes(self.benchmark.n, self.benchmark.nb, step)
            pair = self.nws.transfer_forecast(host_names[0], host_names[1],
                                              panel)
            comm_seconds = pair * math.ceil(math.log2(p))
        return flop_seconds + comm_seconds

    def migration_cost_estimate(self, new_hosts: Sequence[str]) -> float:
        """Checkpoint write + cross-grid read/redistribution + restart."""
        data = self.benchmark.checkpoint_bytes
        p = max(len(self._hosts), 1)
        q = max(len(new_hosts), 1)
        write_seconds = (data / p) / self._min_disk_bw(self._hosts, "write")
        # Read: every byte moves from the old depots to the new hosts.
        # The old ranks stream in parallel, but cross-site streams share
        # the same WAN path, so the aggregate is volume / path bandwidth.
        bw = self.nws.bandwidth_forecast(self._hosts[0], new_hosts[0])
        if self._hosts[0].split(".")[0] == new_hosts[0].split(".")[0]:
            read_seconds = (data / q) / self._min_disk_bw(new_hosts, "read")
        else:
            read_seconds = data / bw
        overhead = (RESOURCE_SELECTION_SECONDS + PERF_MODELING_SECONDS
                    + self._bind_estimate(new_hosts) + MPI_STARTUP_SECONDS)
        return write_seconds + read_seconds + overhead

    def _min_disk_bw(self, hosts: Sequence[str], kind: str) -> float:
        values = []
        for name in hosts:
            host = self.gis.host(name)
            values.append(host.disk_write_bw if kind == "write"
                          else host.disk_read_bw)
        return min(values) if values else 30e6

    def _bind_estimate(self, hosts: Sequence[str]) -> float:
        pkg = self._cop.package
        slowest = min(self.gis.lookup(name).mflops for name in hosts)
        return (pkg.configure_seconds + 0.5
                + pkg.compile_mflop / slowest
                + self.nws.transfer_forecast(self.binder.package_source,
                                             hosts[0], pkg.ir_bytes))

    def migrate(self, new_hosts: Sequence[str]) -> Event:
        """Stop/checkpoint, then restart on ``new_hosts`` (§4.1)."""
        if self._migration_target is not None:
            raise RuntimeError("migration already in progress")
        self._migration_target = list(new_hosts)
        self._migration_done = self.sim.event(name=f"{self.name}:migrated")
        if self.monitor is not None:
            self.monitor.suspend()
        self.rss.request_stop()
        return self._migration_done

    @property
    def finished(self) -> Optional[Event]:
        return self._finished

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> Event:
        """Run the whole GrADS cycle; the event triggers at completion
        with the phase-time ledger as its value."""
        if self._finished is not None:
            raise RuntimeError("QR run already started")
        self._finished = self.sim.process(self._lifecycle(),
                                          name=f"{self.name}:manager")
        return self._finished

    def _lifecycle(self):
        segment = 1
        attempt = 0  # consecutive failed restarts (resets on launch)
        while True:
            hosts = self._hosts
            suffix = f"_{segment}"
            seg_t0 = self.sim.now
            job: Optional[MpiJob] = None
            launch_t0: Optional[float] = None
            try:
                # Resource selection + performance modeling service time.
                yield self.sim.timeout(RESOURCE_SELECTION_SECONDS)
                self.timings[f"resource_selection{suffix}"] = \
                    RESOURCE_SELECTION_SECONDS
                yield self.sim.timeout(PERF_MODELING_SECONDS)
                self.timings[f"performance_modeling{suffix}"] = \
                    PERF_MODELING_SECONDS
                # Grid overhead: the distributed binder.
                t0 = self.sim.now
                report = yield self.binder.bind(self._cop, hosts)
                self.timings[f"grid_overhead{suffix}"] = self.sim.now - t0
                # Application start: MPI synchronization.
                t0 = self.sim.now
                yield self.sim.timeout(MPI_STARTUP_SECONDS)
                self.timings[f"application_start{suffix}"] = \
                    self.sim.now - t0
                # Renegotiate the contract for this segment's resources,
                # freezing the CPU availability terms as of launch time —
                # a contract that tracked live NWS data would adapt itself
                # to any slowdown and never register a violation.
                if self.monitor is not None:
                    frozen = {name: self.nws.cpu_forecast(name)
                              for name in hosts}
                    self.monitor.contract.update_terms(
                        lambda step, h=tuple(hosts), a=frozen:
                        max(self.predicted_step_seconds(step, list(h),
                                                        availability=a),
                            1e-9))
                    self.monitor.resume()
                # Run the application segment.
                self._ckpt_write_secs.clear()
                self._ckpt_read_secs.clear()
                live_hosts = [self.gis.host(name) for name in hosts]
                job = MpiJob(self.sim, self.grid.topology, live_hosts,
                             name=f"{self.name}:seg{segment}")
                self._job = job
                if self.monitor is not None:
                    self.monitor.attach_job(job)
                self._track_progress(job)
                launch_t0 = self.sim.now
                done = job.launch(self.make_body())
                attempt = 0
                if self.recoveries and \
                        self.recoveries[-1].get("restarted_at") is None:
                    self.recoveries[-1]["restarted_at"] = self.sim.now
                yield done
            except HostFailure as exc:
                # Fault tolerance (the VGrADS extension): reap any
                # surviving ranks, drop the dead machines, and restart
                # the segment from the last SRS checkpoint.  The try
                # covers the *whole* segment — a target host dying
                # during bind or launch lands here too, instead of
                # killing the manager process.
                attempt += 1
                yield from self._recover(exc, segment, job,
                                         seg_t0 if launch_t0 is None
                                         else launch_t0, attempt)
                segment += 1
                continue
            elapsed = self.sim.now - launch_t0
            ckpt_read = max(self._ckpt_read_secs.values(), default=0.0)
            ckpt_write = max(self._ckpt_write_secs.values(), default=0.0)
            if ckpt_read > 0:
                self.timings[f"checkpoint_read_{segment}"] = ckpt_read
            self.timings[f"application_duration{suffix}"] = \
                elapsed - ckpt_read - ckpt_write
            if self._migration_target is None:
                return self.timings
            # Migration: account the write, switch hosts, loop.
            self.timings[f"checkpoint_write_{segment}"] = ckpt_write
            self._hosts = self._migration_target
            self._migration_target = None
            self.rss.clear_stop()
            self.migrations += 1
            segment += 1
            done_event, self._migration_done = self._migration_done, None
            done_event.succeed(self._hosts)

    def _recover(self, exc: HostFailure, segment: int,
                 job: Optional[MpiJob], billed_from: float, attempt: int):
        """Clean up after a HostFailure and pick restart resources.

        Generator (it may sleep between resource-selection retries);
        raises RuntimeError once ``max_restart_attempts`` consecutive
        attempts could not produce a running segment.
        """
        if job is not None:
            for proc in job._procs:
                proc.kill()
        if self.monitor is not None:
            self.monitor.suspend()
        self.timings[f"failure_recovery_{segment}"] = \
            self.timings.get(f"failure_recovery_{segment}", 0.0) \
            + (self.sim.now - billed_from)
        self.failures_recovered += 1
        self.recoveries.append({"segment": float(segment),
                                "crashed_at": self.sim.now,
                                "restarted_at": None})
        trace = self.sim.trace
        if trace is not None and "fault" in trace.active:
            trace.instant("fault", "restart", app=self.name,
                          segment=segment, host=exc.host_name,
                          attempt=attempt)
        # A migration that was in flight is dead: fail its event so the
        # rescheduler abandons the attempt (unblocking future
        # rescheduling) instead of waiting forever.
        self.rss.clear_stop()
        self._migration_target = None
        done_event, self._migration_done = self._migration_done, None
        if done_event is not None and not done_event.triggered:
            done_event.fail(exc)
            if trace is not None and "fault" in trace.active:
                trace.instant("fault", "migration-aborted", app=self.name,
                              segment=segment)
        if attempt > self.max_restart_attempts:
            raise RuntimeError(
                f"{self.name}: giving up after {attempt - 1} consecutive "
                f"failed restart attempts")
        # Exponential backoff on repeated consecutive failures: do not
        # hammer a grid that keeps killing us the moment we launch.
        if attempt >= 2:
            wait = self.retry_backoff_seconds * 2 ** (attempt - 2)
            self.retry_waits += 1
            if trace is not None and "fault" in trace.active:
                trace.instant("fault", "retry-wait", app=self.name,
                              seconds=wait, attempt=attempt)
            yield self.sim.timeout(wait)
        # Pick restart resources, waiting out total outages: when every
        # candidate cluster is down propose_hosts raises, and we retry on
        # the same bounded/backed-off budget until something recovers.
        while True:
            dead = [name for name in self._hosts
                    if not self.gis.host(name).alive]
            try:
                self._hosts = self.propose_hosts(exclude=dead)
                return
            except RuntimeError:
                attempt += 1
                if attempt > self.max_restart_attempts:
                    raise RuntimeError(
                        f"{self.name}: no candidate resources after "
                        f"{self.max_restart_attempts} attempts")
                wait = self.retry_backoff_seconds * 2 ** max(attempt - 2, 0)
                self.retry_waits += 1
                if trace is not None and "fault" in trace.active:
                    trace.instant("fault", "retry-wait", app=self.name,
                                  seconds=wait, attempt=attempt)
                yield self.sim.timeout(wait)

    def _track_progress(self, job: MpiJob) -> None:
        per_step: Dict[int, int] = {}

        def on_iteration(rank: int, iteration: int, seconds: float) -> None:
            per_step[iteration] = per_step.get(iteration, 0) + 1
            if per_step[iteration] == job.size:
                self.progress = max(self.progress, iteration + 1)

        job.on_iteration(on_iteration)

    # -- the instrumented rank body ------------------------------------------------
    def make_body(self):
        benchmark = self.benchmark
        srs = self.srs

        def body(ctx: MpiContext):
            n_procs = ctx.comm.size
            t0 = self.sim.now
            progress = yield from srs.restore(ctx, "A", n_procs)
            yield from srs.restore(ctx, "B", n_procs)
            read_secs = self.sim.now - t0
            if read_secs > 0:
                self._ckpt_read_secs[ctx.rank] = read_secs
            start_step = progress or 0
            for step in range(start_step, benchmark.steps):
                step_t0 = self.sim.now
                # Panel factorization + trailing update, split over ranks.
                yield ctx.compute(benchmark.step_mflop(step) / n_procs,
                                  tag=f"step{step}")
                # Panel broadcast from the owner of this step's columns.
                if n_procs > 1:
                    panel = qr_panel_bytes(benchmark.n, benchmark.nb, step)
                    yield from ctx.comm.bcast(ctx.rank, step % n_procs,
                                              nbytes=panel)
                ctx.report_iteration(step, self.sim.now - step_t0)
                # SRS stop check: the decision must be consistent across
                # ranks (real SRS coordinates through RSS).  Ranks can be
                # skewed by a step — the bcast root runs ahead — so a
                # tiny allreduce agrees on stopping at this same step.
                stop_votes = 0.0
                if n_procs > 1:
                    stop_votes = yield from ctx.comm.allreduce(
                        ctx.rank, nbytes=8,
                        value=1.0 if srs.should_stop() else 0.0,
                        op=max)
                else:
                    stop_votes = 1.0 if srs.should_stop() else 0.0
                if stop_votes > 0:
                    t1 = self.sim.now
                    yield from srs.checkpoint(ctx, "A", step + 1, n_procs)
                    yield from srs.checkpoint(ctx, "B", step + 1, n_procs)
                    self._ckpt_write_secs[ctx.rank] = self.sim.now - t1
                    return "stopped"
                # Periodic checkpoint (fault-tolerance extension): the
                # step number makes the decision consistent across
                # ranks without extra coordination.
                if self.checkpoint_every is not None \
                        and (step + 1) % self.checkpoint_every == 0:
                    yield from srs.checkpoint(ctx, "A", step + 1, n_procs)
                    yield from srs.checkpoint(ctx, "B", step + 1, n_procs)
            return "done"

        return body
