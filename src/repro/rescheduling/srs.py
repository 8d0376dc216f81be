"""SRS — the Stop Restart Software checkpoint library (§4.1.1).

"Via calls to SRS, the application can checkpoint data, be stopped at a
particular execution point, be restarted later on a different processor
configuration and be continued from the previous point of execution."

The library is used from inside MPI rank bodies:

* ``should_stop()`` — poll the RSS stop flag at safe execution points.
* ``checkpoint(ctx, dataset, progress, n_procs)`` — write this rank's
  block-cyclic partition to an IBP depot on its local disk (cheap) and
  register the location with RSS.
* ``restore(ctx, dataset, new_n_procs)`` — on restart, pull the blocks
  this rank owns under the *new* distribution from wherever the old
  ranks checkpointed them (expensive across the Internet): the
  transparent N-to-M block-cyclic redistribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ibp.depot import Depot
from ..microgrid.host import Host
from ..microgrid.network import Topology
from ..mpi.comm import MpiContext
from ..sim.events import AllOf, Event
from ..sim.kernel import Simulator
from .rss import CheckpointLocation, CheckpointRecord, RuntimeSupportSystem

__all__ = ["SRSLibrary", "RegisteredData", "partition_bytes", "restore_plan"]


@dataclass(frozen=True)
class RegisteredData:
    """One array registered for checkpointing (e.g. matrix A, vector B)."""

    name: str
    total_bytes: float
    block_bytes: float  # block-cyclic deal unit

    def __post_init__(self) -> None:
        if self.total_bytes < 0 or self.block_bytes <= 0:
            raise ValueError("data sizes must be positive")


def partition_bytes(total_bytes: float, block_bytes: float,
                    rank: int, n_procs: int) -> float:
    """Bytes a given rank owns under 1-D block-cyclic distribution."""
    if rank < 0 or rank >= n_procs:
        raise ValueError(f"rank {rank} out of range for {n_procs} procs")
    if total_bytes < 0 or block_bytes <= 0:
        raise ValueError("sizes must be positive")
    n_blocks = int(math.ceil(total_bytes / block_bytes))
    owned = 0.0
    remaining = total_bytes
    for k in range(n_blocks):
        size = min(block_bytes, remaining)
        remaining -= size
        if k % n_procs == rank:
            owned += size
    return owned


def restore_plan(total_bytes: float, block_bytes: float,
                 p: int, q: int, dst_rank: int) -> Dict[int, float]:
    """Bytes new rank ``dst_rank`` (of ``q``) must pull from each old
    rank's checkpoint (of ``p``).  All blocks are pulled — a restarted
    process starts with no data, even for blocks whose old and new rank
    numbers coincide."""
    if p < 1 or q < 1:
        raise ValueError("process counts must be >= 1")
    if not 0 <= dst_rank < q:
        raise ValueError(f"rank {dst_rank} out of range for {q}")
    n_blocks = int(math.ceil(total_bytes / block_bytes)) if total_bytes else 0
    need: Dict[int, float] = {}
    remaining = total_bytes
    for k in range(n_blocks):
        size = min(block_bytes, remaining)
        remaining -= size
        if k % q == dst_rank:
            src = k % p
            need[src] = need.get(src, 0.0) + size
    return need


class SRSLibrary:
    """Checkpoint/restart services shared by all ranks of one app."""

    def __init__(self, sim: Simulator, topology: Topology,
                 rss: RuntimeSupportSystem,
                 stable_host: Optional[Host] = None) -> None:
        """``stable_host`` redirects checkpoints to one depot on that
        host instead of each rank's local disk.  Local-disk checkpoints
        (the paper's configuration) are cheap to write but die with the
        machine; stable-storage checkpoints pay a network transfer but
        survive host failures — the trade the fault-tolerance extension
        needs."""
        self.sim = sim
        self.topology = topology
        self.rss = rss
        self.stable_host = stable_host
        self._registered: Dict[str, RegisteredData] = {}
        self._depots: Dict[str, Depot] = {}
        self._pending: Dict[str, CheckpointRecord] = {}

    # -- registration ------------------------------------------------------------
    def register_data(self, data: RegisteredData) -> None:
        self._registered[data.name] = data

    def registered(self, name: str) -> RegisteredData:
        try:
            return self._registered[name]
        except KeyError:
            raise KeyError(f"data {name!r} was never registered") from None

    def depot_on(self, host: Host) -> Depot:
        """The IBP depot on a host's local disk (created on first use)."""
        depot = self._depots.get(host.name)
        if depot is None:
            depot = Depot(self.sim, self.topology, host)
            self._depots[host.name] = depot
        return depot

    # -- stop flag ----------------------------------------------------------------
    def should_stop(self) -> bool:
        """Poll at safe points; mirrors SRS_Check."""
        return self.rss.stop_requested

    # -- checkpoint --------------------------------------------------------------
    def checkpoint(self, ctx: MpiContext, dataset: str, progress: int,
                   n_procs: int):
        """Generator: write this rank's partition to local IBP storage.

        Every rank calls this.  The checkpoint record is assembled
        cooperatively and published to RSS once the last rank's write
        lands, so a partially written checkpoint is never visible.
        """
        data = self.registered(dataset)
        # Key pending records by (dataset, progress): ranks arriving with
        # different progress values build separate candidate checkpoints
        # instead of corrupting each other's.
        pending_key = f"{dataset}@{progress}"
        pending = self._pending.get(pending_key)
        if pending is None:
            pending = CheckpointRecord(
                dataset=dataset, progress=progress, n_procs=n_procs,
                total_bytes=data.total_bytes, block_bytes=data.block_bytes)
            self._pending[pending_key] = pending
        my_bytes = partition_bytes(data.total_bytes, data.block_bytes,
                                   ctx.rank, n_procs)
        target = self.stable_host if self.stable_host is not None \
            else ctx.host
        depot = self.depot_on(target)
        key = f"{dataset}:ckpt:{progress}:r{ctx.rank}"
        if depot.has(key):
            depot.delete(key)
        t0 = self.sim.now
        yield depot.write(ctx.host.name, key, my_bytes)
        trace = self.sim.trace
        if trace is not None and "reschedule" in trace.active:
            trace.complete("reschedule", "checkpoint", ts=t0,
                           dur=self.sim.now - t0, dataset=dataset,
                           rank=ctx.rank, progress=progress,
                           bytes=my_bytes, host=ctx.host.name)
        # `pending` cannot go stale across the depot write: the record
        # is only dropped from _pending by the last rank to land (the
        # branch below), and that branch cannot have run yet while this
        # rank's own write is still missing.
        pending.locations[ctx.rank] = CheckpointLocation(
            rank=ctx.rank, depot_host=target.name, key=key,
            nbytes=my_bytes)
        if len(pending.locations) == n_procs:
            self.rss.store_checkpoint(pending)
            del self._pending[pending_key]

    # -- restore --------------------------------------------------------------------
    def restore(self, ctx: MpiContext, dataset: str, new_n_procs: int):
        """Generator: pull this rank's new partition from the old depots.

        Returns the checkpointed progress value, or None when there is
        no checkpoint (fresh start).
        """
        record = self.rss.checkpoint(dataset)
        if record is None:
            return None
        need = restore_plan(record.total_bytes, record.block_bytes,
                            record.n_procs, new_n_procs, ctx.rank)
        reads: List[Event] = []
        for src_rank, nbytes in sorted(need.items()):
            location = record.location(src_rank)
            depot = self._depots.get(location.depot_host)
            if depot is None:
                raise KeyError(f"depot on {location.depot_host} vanished")
            reads.append(depot.read_partial(ctx.host.name, location.key,
                                            min(nbytes, location.nbytes)))
        t0 = self.sim.now
        if reads:
            yield AllOf(self.sim, reads)
        trace = self.sim.trace
        if trace is not None and "reschedule" in trace.active:
            trace.complete("reschedule", "restore", ts=t0,
                           dur=self.sim.now - t0, dataset=dataset,
                           rank=ctx.rank, progress=record.progress,
                           bytes=sum(need.values()), host=ctx.host.name)
        return record.progress
