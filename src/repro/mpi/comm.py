"""Simulated MPI: jobs, ranks, point-to-point messaging.

GrADS applications are MPI programs; their communication costs shape
every scheduling and rescheduling decision in the paper.  This module
runs MPI-style rank bodies as simulation processes.  Messages travel
through the real topology (so they contend for links like everything
else).  The Autopilot sensors the binder inserts (§5: "captured via
PAPI and the MPI profiling interface with automatically-inserted
sensors") are the iteration listeners of :meth:`MpiJob.on_iteration`,
which rank bodies feed through :meth:`MpiContext.report_iteration`.

A rank body is a generator function ``body(ctx)`` receiving an
:class:`MpiContext`; it yields events, e.g.::

    def body(ctx):
        yield ctx.compute(250.0)                  # 250 Mflop locally
        yield ctx.send(dst=1, nbytes=8e6)         # point-to-point
        msg = yield ctx.recv(src=1)
        yield from ctx.comm.barrier(ctx.rank)     # collective

Rank-to-host mapping is looked up *per call*, which is the hook the
process-swapping reschedul er uses (:mod:`repro.mpi.swap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from ..microgrid.host import Host, HostFailure
from ..microgrid.network import Topology
from ..sim.events import AllOf, Event
from ..sim.kernel import Simulator

__all__ = ["Message", "MpiError", "MpiJob", "Communicator", "MpiContext",
           "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1


class MpiError(RuntimeError):
    """Raised for misuse of the simulated MPI layer."""


class Message(NamedTuple):
    """A delivered point-to-point message (immutable; a plain tuple
    underneath, so building one costs no per-field ``__setattr__``)."""

    src: int
    dst: int
    tag: int
    nbytes: float
    payload: Any = None


@dataclass
class _PendingRecv:
    src: int
    tag: int
    event: Event


class MpiJob:
    """One parallel program instance: a set of ranks mapped onto hosts."""

    def __init__(self, sim: Simulator, topology: Topology,
                 hosts: List[Host], name: str = "mpijob") -> None:
        if not hosts:
            raise MpiError("an MPI job needs at least one host")
        self.sim = sim
        self.topology = topology
        self.name = name
        self._rank_hosts: List[Host] = list(hosts)
        self.world = Communicator(self)
        self._iteration_listeners: List[Callable[[int, int, float], None]] = []
        self._procs: List = []
        #: ranks launched and not yet ended
        self._running = 0
        self._watched_hosts: List[Host] = []
        self.finished: Optional[Event] = None

    @property
    def size(self) -> int:
        return len(self._rank_hosts)

    def rank_host(self, rank: int) -> Host:
        _check_rank(self._rank_hosts, rank)
        return self._rank_hosts[rank]

    def set_rank_host(self, rank: int, host: Host) -> None:
        """Re-map a rank to a different host (used by process swapping)."""
        _check_rank(self._rank_hosts, rank)
        self._rank_hosts[rank] = host
        if self._running:
            self._watch_host(host)

    # -- launch -------------------------------------------------------------
    def launch(self, body: Callable[["MpiContext"], Any]) -> Event:
        """Start ``body(ctx)`` on every rank; the returned event triggers
        when all ranks have finished (like mpirun's exit)."""
        if self.finished is not None:
            raise MpiError("job already launched")
        for rank in range(self.size):
            ctx = MpiContext(self, rank)
            proc = self.sim.process(body(ctx), name=f"{self.name}:r{rank}")
            proc.add_callback(self._rank_ended)
            self._procs.append(proc)
        self._running = self.size
        self.sim.track(self)
        for host in self._rank_hosts:
            self._watch_host(host)
        self.finished = AllOf(self.sim, self._procs,
                              name=f"{self.name}:finished")
        return self.finished

    def _watch_host(self, host: Host) -> None:
        """Arrange for this host's crashes to kill the ranks on it.

        A failing compute task already reaches its rank, but a rank
        blocked on a transfer, a recv, or a collective has nothing on
        the host's CPU — without the watch it would sail through its
        own machine's death (e.g. keep checkpointing off a dead node).
        """
        if any(h is host for h in self._watched_hosts):
            return
        self._watched_hosts.append(host)
        host.on_fail(self._on_host_fail)

    def _on_host_fail(self, host: Host) -> None:
        for rank, rank_host in enumerate(self._rank_hosts):
            if rank_host is host and rank < len(self._procs):
                proc = self._procs[rank]
                if proc.is_alive:
                    proc.throw(HostFailure(host.name))

    def _rank_ended(self, _proc) -> None:
        """Once every rank has ended, nothing is left to kill or to
        report: drop the host watches and the iteration listeners, so
        a host keeps no listener of a finished job and the job no
        closure of its watchers."""
        self._running -= 1
        if not self._running:
            self._cut()

    def _cut(self) -> None:
        # Also what Simulator.close() calls while ranks still run.
        self.sim.untrack(self)
        for host in self._watched_hosts:
            host.off_fail(self._on_host_fail)
        self._watched_hosts = []
        self._iteration_listeners = []

    # -- instrumentation -------------------------------------------------------
    def on_iteration(self, listener: Callable[[int, int, float], None]) -> None:
        """Register ``listener(rank, iteration, seconds)`` — the hook the
        Autopilot sensors attach to."""
        self._iteration_listeners.append(listener)

    def report_iteration(self, rank: int, iteration: int,
                         seconds: float) -> None:
        for listener in self._iteration_listeners:
            listener(rank, iteration, seconds)


def _check_rank(rank_hosts: List[Host], rank: int) -> None:
    if not 0 <= rank < len(rank_hosts):
        raise MpiError(f"rank {rank} out of range for job of size "
                       f"{len(rank_hosts)}")


class Communicator:
    """Point-to-point mailboxes plus SPMD collectives for one job.

    It shares the job's rank-to-host list (a swap re-maps a rank in
    place) instead of holding the job, which holds it as ``world``.
    """

    def __init__(self, job: MpiJob) -> None:
        self.sim = job.sim
        self.topology = job.topology
        self.name = job.name
        self._rank_hosts = job._rank_hosts
        self._mailboxes: Dict[int, List[Message]] = {}
        self._waiting: Dict[int, List[_PendingRecv]] = {}
        # per-rank collective sequence numbers; SPMD programs call
        # collectives in the same order on every rank, which makes the
        # derived tags match up.
        self._coll_seq: List[int] = [0] * job.size

    @property
    def size(self) -> int:
        return len(self._rank_hosts)

    # -- point to point -------------------------------------------------------
    def send(self, src: int, dst: int, nbytes: float, tag: int = 0,
             payload: Any = None) -> Event:
        """Send; the event triggers when the message is delivered."""
        rank_hosts = self._rank_hosts
        size = len(rank_hosts)
        if not (0 <= src < size and 0 <= dst < size):
            _check_rank(rank_hosts, src)
            _check_rank(rank_hosts, dst)
        if nbytes < 0:
            raise MpiError("negative message size")
        if tag < 0:
            raise MpiError("tags must be non-negative (negatives are wildcards)")
        message = Message(src=src, dst=dst, tag=tag, nbytes=nbytes,
                          payload=payload)
        name = self.name
        transfer = self.topology.transfer(
            rank_hosts[src].name, rank_hosts[dst].name, nbytes,
            tag=f"{name}:{src}->{dst}")
        done = Event(self.sim, name=f"{name}:send:{src}->{dst}")

        def deliver(_ev: Event) -> None:
            self._deposit(message)
            done.succeed(message)

        transfer.add_callback(deliver)
        return done

    def recv(self, rank: int, src: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Event:
        """Receive; the event's value is the matching :class:`Message`."""
        if not 0 <= rank < len(self._rank_hosts):
            _check_rank(self._rank_hosts, rank)
        ev = Event(self.sim, name=f"{self.name}:recv:{rank}")
        queue = self._mailboxes.setdefault(rank, [])
        for i, message in enumerate(queue):
            if ((src == ANY_SOURCE or message.src == src)
                    and (tag == ANY_TAG or message.tag == tag)):
                queue.pop(i)
                ev.succeed(message)
                return ev
        self._waiting.setdefault(rank, []).append(
            _PendingRecv(src=src, tag=tag, event=ev))
        return ev

    def _deposit(self, message: Message) -> None:
        msg_src, msg_tag = message.src, message.tag
        waiters = self._waiting.get(message.dst, [])
        for i, pending in enumerate(waiters):
            src, tag = pending.src, pending.tag
            if ((src == ANY_SOURCE or msg_src == src)
                    and (tag == ANY_TAG or msg_tag == tag)):
                waiters.pop(i)
                pending.event.succeed(message)
                return
        self._mailboxes.setdefault(message.dst, []).append(message)

    # -- collectives (SPMD: every rank must call, in the same order) -----------
    def _next_tag(self, rank: int, kind: int) -> int:
        seq = self._coll_seq[rank]
        self._coll_seq[rank] += 1
        # fold the collective kind and sequence into a reserved tag space;
        # kinds: barrier 0, bcast 1, allgather 3, allreduce 4
        return 1_000_000 + seq * 8 + kind

    def barrier(self, rank: int):
        """Generator collective: central-counter barrier via rank 0."""
        tag = self._next_tag(rank, 0)
        if rank == 0:
            for _ in range(self.size - 1):
                yield self.recv(0, tag=tag)
            for other in range(1, self.size):
                yield self.send(0, other, nbytes=1.0, tag=tag + 1)
        else:
            yield self.send(rank, 0, nbytes=1.0, tag=tag)
            yield self.recv(rank, src=0, tag=tag + 1)

    def bcast(self, rank: int, root: int, nbytes: float, payload: Any = None):
        """Binomial-tree broadcast (the MPICH algorithm); returns the
        payload on every rank."""
        _check_rank(self._rank_hosts, root)
        tag = self._next_tag(rank, 1)
        size = self.size
        rel = (rank - root) % size  # rank relative to the root
        value = payload
        # Receive from the parent (clear my lowest set bit), unless root.
        mask = 1
        while mask < size:
            if rel & mask:
                parent = (rel - mask + root) % size
                msg = yield self.recv(rank, src=parent, tag=tag)
                value = msg.payload
                break
            mask <<= 1
        # Forward to children below my lowest set bit.
        mask >>= 1
        while mask > 0:
            if rel + mask < size:
                child = (rel + mask + root) % size
                yield self.send(rank, child, nbytes=nbytes, tag=tag,
                                payload=value)
            mask >>= 1
        return value

    def allgather(self, rank: int, nbytes: float, payload: Any = None):
        """Ring allgather: size-1 steps, each moving ``nbytes``."""
        tag = self._next_tag(rank, 3)
        size = self.size
        values: List[Any] = [None] * size
        values[rank] = payload
        right = (rank + 1) % size
        carried_index, carried_value = rank, payload
        for _step in range(size - 1):
            send_ev = self.send(rank, right, nbytes=nbytes, tag=tag,
                                payload=(carried_index, carried_value))
            msg = yield self.recv(rank, tag=tag)
            yield send_ev
            carried_index, carried_value = msg.payload
            values[carried_index] = carried_value
        return values

    def allreduce(self, rank: int, nbytes: float, value: float = 0.0,
                  op: Callable[[float, float], float] = lambda a, b: a + b):
        """Reduce-to-root then broadcast (the classic composition)."""
        tag = self._next_tag(rank, 4)
        if rank == 0:
            acc = value
            for _ in range(self.size - 1):
                msg = yield self.recv(0, tag=tag)
                acc = op(acc, msg.payload)
            for other in range(1, self.size):
                yield self.send(0, other, nbytes=nbytes, tag=tag + 1,
                                payload=acc)
            return acc
        yield self.send(rank, 0, nbytes=nbytes, tag=tag, payload=value)
        msg = yield self.recv(rank, src=0, tag=tag + 1)
        return msg.payload


class MpiContext:
    """What a rank body sees: its rank, communicator, and local ops."""

    def __init__(self, job: MpiJob, rank: int) -> None:
        self.job = job
        self.rank = rank
        self.comm = job.world

    @property
    def sim(self) -> Simulator:
        return self.job.sim

    @property
    def host(self) -> Host:
        """The host this rank currently runs on (changes after a swap)."""
        return self.job.rank_host(self.rank)

    def compute(self, mflop: float, tag: str = "") -> Event:
        """Run local work on whatever host the rank currently occupies."""
        return self.host.compute(mflop, tag=tag or f"r{self.rank}")

    def send(self, dst: int, nbytes: float, tag: int = 0,
             payload: Any = None) -> Event:
        return self.comm.send(self.rank, dst, nbytes, tag=tag, payload=payload)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        return self.comm.recv(self.rank, src=src, tag=tag)

    def report_iteration(self, iteration: int, seconds: float) -> None:
        """Feed the instrumentation inserted by the binder."""
        self.job.report_iteration(self.rank, iteration, seconds)
