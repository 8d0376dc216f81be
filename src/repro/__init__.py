"""repro — a reproduction of the GrADS grid scheduling and rescheduling
system ("New Grid Scheduling and Rescheduling Methods in the GrADS
Project", IPPS 2004) on a from-scratch discrete-event grid emulator.

Subpackages
-----------

=====================  ====================================================
``repro.sim``          discrete-event kernel (events, processes, RNG)
``repro.microgrid``    virtual hosts, clusters, networks, load, testbeds
``repro.gis``          grid information service + software registry
``repro.nws``          network weather service (sensors + forecasting)
``repro.perfmodel``    flop-count fitting and memory-reuse-distance models
``repro.mpi``          simulated MPI runtime with process swapping
``repro.cop``          configurable object programs (what the binder ships)
``repro.binder``       distributed binder
``repro.scheduler``    workflow DAGs, rank matrices, heuristics, executor
``repro.contracts``    Autopilot, fuzzy logic, performance contracts
``repro.ibp``          network storage depots
``repro.rescheduling`` SRS/RSS (N-to-M restore), reschedulers, swapping
``repro.metasched``    multi-tenant submission service with reservations
``repro.apps``         ScaLAPACK QR, N-body, EMAN refinement workflow
``repro.appmanager``   the wired-up GrADS execution environment
``repro.experiments``  drivers regenerating the paper's figures
``repro.trace``        structured tracing, export, analysis, determinism diff
``repro.soak``         soak scenarios (incl. the MTBF/MTTR host-failure
                       preset), invariant auditors, shrinker
=====================  ====================================================

Quickstart: see ``examples/quickstart.py`` and the README.
"""

from . import (
    appmanager,
    apps,
    binder,
    contracts,
    cop,
    experiments,
    gis,
    ibp,
    metasched,
    microgrid,
    mpi,
    nws,
    perfmodel,
    rescheduling,
    scheduler,
    sim,
    trace,
)
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "__version__",
    "appmanager",
    "apps",
    "binder",
    "contracts",
    "cop",
    "experiments",
    "gis",
    "ibp",
    "metasched",
    "microgrid",
    "mpi",
    "nws",
    "perfmodel",
    "rescheduling",
    "scheduler",
    "sim",
    "trace",
]
