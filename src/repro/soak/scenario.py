"""Declarative, seed-deterministic soak scenarios.

A :class:`ScenarioSpec` is the *complete* description of one randomized
composite run: a Poisson job stream for the metascheduler, explicit
host-crash windows, background-load bursts, topology churn operations,
an optional process-swapping application, an optional SRS-checkpointed
QR run, and an optional "grid services" lane exercising the
:class:`~repro.sim.resources.Store`/``Semaphore`` primitives under
process kills.  Everything is pre-sampled at build time into plain
JSON-serializable element lists, so

* the same ``(seed, index)`` always produces the same scenario,
* any scenario can be written to disk and replayed byte-identically
  (``repro soak replay``), and
* the shrinker can delete individual elements and re-run.

``markers`` is a synthetic element list with no simulation effect; a
dedicated canary invariant fires when two markers sum to 100, giving
the test suite and CI a known-violation fixture that stays violating
after every real bug is fixed.

Two samplers draw sweeps: :func:`sample_scenario` mixes every lane,
and :func:`sample_mtbf_scenario` is the fault-tolerance preset — an
SRS-checkpointed QR run under alternating exponential up/down windows
on every crashable host (the MTBF/MTTR availability model).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from ..metasched.jobs import JOB_KINDS
from ..rescheduling.rescheduler import RESCHEDULER_MODES
from ..sim.rng import RngRegistry
from .invariants import SRS_COUNTERS

__all__ = ["ScenarioSpec", "sample_scenario", "sample_mtbf_scenario",
           "SCENARIO_SCHEMA_VERSION", "FIG3_HOSTS", "SUBMISSION_HOST"]

#: bump when the scenario JSON layout changes
SCENARIO_SCHEMA_VERSION = 1

#: the Figure 3 testbed's hosts — every scenario runs on that grid
FIG3_HOSTS = tuple([f"utk.n{i}" for i in range(4)]
                   + [f"uiuc.n{i}" for i in range(8)])

#: first host in sorted order — the metascheduler's data staging point;
#: the fault lane leaves it alone so every scenario keeps a front door
SUBMISSION_HOST = min(FIG3_HOSTS)

#: job sizes per kind, deliberately small: a soak sweep runs hundreds
#: of scenarios, so one scenario must stay in the sub-second wall range
_JOB_MIX = (
    ("qr", 0.4, (500.0, 1500.0), (1, 3)),
    ("eman", 0.3, (2000.0, 6000.0), (1, 3)),
    ("nbody", 0.3, (4000.0, 15000.0), (1, 2)),
)

_SWAP_POLICIES = ("greedy", "single", "threshold", "gang")

#: the MTBF preset's (MTBF, MTTR) cells in seconds; scenario ``i``
#: runs cell ``i % len(MTBF_GRID)``, trial ``i // len(MTBF_GRID)``
MTBF_GRID = ((400.0, 90.0), (1200.0, 90.0))

#: the window over which the MTBF preset samples host outages; a
#: preset QR run finishes well inside it
_MTBF_WINDOW = 1200.0


@dataclass
class ScenarioSpec:
    """One composite soak scenario, fully materialized."""

    index: int
    seed: int
    duration: float
    checkpoint_every: float = 60.0
    #: record a Chrome trace and validate it as an invariant
    trace_check: bool = False
    jobs: List[dict] = field(default_factory=list)
    faults: List[dict] = field(default_factory=list)
    bursts: List[dict] = field(default_factory=list)
    links: List[dict] = field(default_factory=list)
    services: Optional[dict] = None
    swap: Optional[dict] = None
    srs: Optional[dict] = None
    markers: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        for job in self.jobs:
            if job["kind"] not in JOB_KINDS:
                raise ValueError(f"unknown job kind {job['kind']!r}")
            if job["submit_time"] < 0:
                raise ValueError("negative submit time")
        for fault in self.faults:
            if fault["host"] not in FIG3_HOSTS:
                raise ValueError(f"unknown fault host {fault['host']!r}")
            if fault["recover_at"] <= fault["at"]:
                raise ValueError("fault recovery must follow the crash")
        for burst in self.bursts:
            if burst["host"] not in FIG3_HOSTS:
                raise ValueError(f"unknown burst host {burst['host']!r}")
            if burst["until"] <= burst["at"]:
                raise ValueError("burst end must follow its start")
        if self.swap is not None and self.swap["policy"] not in _SWAP_POLICIES:
            raise ValueError(f"unknown swap policy {self.swap['policy']!r}")
        if self.srs is not None:
            if self.srs.get("mode", "default") not in RESCHEDULER_MODES:
                raise ValueError(f"unknown srs mode {self.srs['mode']!r}")
            unknown = sorted(set(self.srs.get("expect", {}))
                             - set(SRS_COUNTERS))
            if unknown:
                raise ValueError(f"unknown srs expect counters: {unknown}")

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        data = asdict(self)
        data["schema_version"] = SCENARIO_SCHEMA_VERSION
        return data

    def to_json(self) -> str:
        """Deterministic bytes: equal specs => equal JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = dict(data)
        version = data.pop("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema {version!r}")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields: {unknown}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


def sample_scenario(seed: int, index: int) -> ScenarioSpec:
    """Draw scenario ``index`` of the sweep keyed by ``seed``.

    Every scenario gets its own named RNG stream, so scenario ``k`` is
    identical whether the sweep runs 10 or 1000 scenarios.
    """
    rng = RngRegistry(seed).stream(f"soak-scenario-{index}")
    duration = float(rng.uniform(240.0, 480.0))

    # -- Poisson job stream over the metascheduler ------------------------
    weights = [w for _k, w, _s, _h in _JOB_MIX]
    total = sum(weights)
    probabilities = [w / total for w in weights]
    jobs: List[dict] = []
    now = 0.0
    arrival_rate = float(rng.uniform(1 / 120.0, 1 / 45.0))
    max_jobs = int(rng.integers(2, 7))
    while len(jobs) < max_jobs:
        now += float(rng.exponential(1.0 / arrival_rate))
        if now > duration * 0.7:
            break
        pick = int(rng.choice(len(_JOB_MIX), p=probabilities))
        kind, _w, (lo_size, hi_size), (lo_hosts, hi_hosts) = _JOB_MIX[pick]
        user = f"u{int(rng.integers(0, 3))}"
        jobs.append({
            "name": f"{user}-j{len(jobs)}", "user": user, "kind": kind,
            "submit_time": round(now, 6),
            "n_hosts": int(rng.integers(lo_hosts, hi_hosts + 1)),
            "size": round(float(rng.uniform(lo_size, hi_size)), 6),
        })

    # -- crash/recover windows (never the submission host) ----------------
    crashable = [h for h in FIG3_HOSTS if h != SUBMISSION_HOST]
    faults: List[dict] = []
    for _ in range(int(rng.integers(0, 4))):
        at = float(rng.uniform(0.1, 0.7) * duration)
        outage = float(rng.uniform(20.0, 120.0))
        faults.append({
            "host": str(rng.choice(crashable)),
            "at": round(at, 6),
            "recover_at": round(at + outage, 6),
        })

    # -- background-load bursts -------------------------------------------
    bursts: List[dict] = []
    for _ in range(int(rng.integers(0, 4))):
        at = float(rng.uniform(0.05, 0.8) * duration)
        bursts.append({
            "host": str(rng.choice(FIG3_HOSTS)),
            "at": round(at, 6),
            "until": round(at + float(rng.uniform(30.0, 150.0)), 6),
            "nprocs": int(rng.integers(1, 4)),
        })

    # -- topology churn ----------------------------------------------------
    links: List[dict] = []
    for k in range(int(rng.integers(0, 3))):
        at = float(rng.uniform(0.1, 0.8) * duration)
        if rng.uniform() < 0.5:
            # re-provision the WAN link (capacity change mid-flight)
            links.append({
                "a": "utk.switch", "b": "uiuc.switch", "via": None,
                "bandwidth": round(float(rng.uniform(2e6, 12e6)), 3),
                "latency": round(float(rng.uniform(0.005, 0.05)), 6),
                "at": round(at, 6),
            })
        else:
            # bring up an alternate WAN path through a new router
            links.append({
                "a": "utk.switch", "b": "uiuc.switch",
                "via": f"soak.rtr{k}",
                "bandwidth": round(float(rng.uniform(2e6, 12e6)), 3),
                "latency": round(float(rng.uniform(0.005, 0.05)), 6),
                "at": round(at, 6),
            })

    # -- grid-services lane (Store/Semaphore under kills) -----------------
    services: Optional[dict] = None
    if rng.uniform() < 0.7:
        producers = int(rng.integers(2, 4))
        consumers = int(rng.integers(2, 4))
        workers = int(rng.integers(2, 5))
        names = ([f"svc-producer-{i}" for i in range(producers)]
                 + [f"svc-consumer-{i}" for i in range(consumers)]
                 + [f"svc-worker-{i}" for i in range(workers)])
        kills = []
        for _ in range(int(rng.integers(0, 4))):
            kills.append({
                "victim": str(rng.choice(names)),
                "at": round(float(rng.uniform(5.0, duration * 0.5)), 6),
            })
        services = {
            "capacity": int(rng.integers(1, 4)),
            "count": int(rng.integers(1, 4)),
            "producers": producers,
            "consumers": consumers,
            "workers": workers,
            "items_per_producer": int(rng.integers(4, 9)),
            "kills": kills,
        }

    # -- process-swapping application -------------------------------------
    swap: Optional[dict] = None
    if rng.uniform() < 0.35:
        # sized so the job outlives several rescheduler periods: the
        # daemon must get real chances to decide, swap, and be stopped
        swap = {
            "n_bodies": int(rng.integers(6000, 12001)),
            "n_iterations": int(rng.integers(30, 81)),
            "policy": str(rng.choice(_SWAP_POLICIES)),
            "period": round(float(rng.uniform(8.0, 15.0)), 6),
            "improvement": round(float(rng.uniform(1.05, 1.3)), 6),
            "stop_at": (round(float(rng.uniform(20.0, 120.0)), 6)
                        if rng.uniform() < 0.5 else None),
        }

    # -- SRS-checkpointed QR run ------------------------------------------
    srs: Optional[dict] = None
    if rng.uniform() < 0.2:
        srs = {
            "n": int(rng.integers(1500, 2501)),
            "checkpoint_every": int(rng.choice([4, 8])),
        }

    return ScenarioSpec(
        index=index, seed=seed, duration=round(duration, 6),
        trace_check=index % 5 == 0,
        jobs=jobs, faults=faults, bursts=bursts, links=links,
        services=services, swap=swap, srs=srs)


def sample_mtbf_scenario(seed: int, index: int) -> ScenarioSpec:
    """Draw scenario ``index`` of the MTBF/MTTR fault-tolerance preset.

    A managed QR run (N=6000, checkpoint every 5 panel steps) on the
    Figure 3 testbed while every host except :data:`SUBMISSION_HOST`
    alternates Exp(MTBF) up and Exp(MTTR) down.  The windows are
    pre-sampled from the scenario's own named RNG stream, so the spec
    replays and shrinks like any other.
    """
    mtbf, mttr = MTBF_GRID[index % len(MTBF_GRID)]
    rng = RngRegistry(seed).stream(f"soak-mtbf-{index}")
    faults: List[dict] = []
    for host in FIG3_HOSTS:
        if host == SUBMISSION_HOST:
            continue
        now = 0.0
        while True:
            at = round(now + float(rng.exponential(mtbf)), 6)
            if at >= _MTBF_WINDOW:
                break
            # strictly after the crash even when the draw rounds to 0
            now = round(at + max(float(rng.exponential(mttr)), 1e-6), 6)
            faults.append({"host": host, "at": at, "recover_at": now})
    return ScenarioSpec(
        index=index, seed=seed, duration=_MTBF_WINDOW, faults=faults,
        srs={"n": 6000, "checkpoint_every": 5})
