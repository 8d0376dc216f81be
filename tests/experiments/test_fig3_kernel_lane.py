"""Pin the kernel's dispatch on the Figure 3 workload.

Every QR step, MPI message and sensor tick of a fig3 run is a process
resumption, so these two bars are where a change to the kernel, the
process machinery or a host's completion wake would first move the
agenda.  The counters and the digest of the kernel trace lane (one
``"<ts!r> <name>"`` line per dispatched entry) must not change unless
the simulated behaviour is meant to.
"""

import hashlib

import pytest

from repro.experiments.fig3_qr import run_fig3_point
from repro.trace import Tracer

CASES = [
    (6000, "reschedule", (1663, 92, 454),
     "3aff701efbff24a5ee0e19d6f337aa59ce302cb460fcc996a1bf80f9a8c188ee"),
    (12000, "no-reschedule", (3851, 155, 932),
     "6c5363256a913e73c22381710e6f66942171e792a1dd6ac41394d0702bf3d04f"),
]


@pytest.mark.parametrize("n, mode, counts, digest", CASES,
                         ids=[f"{n}-{mode}" for n, mode, _c, _d in CASES])
def test_fig3_kernel_lane_is_pinned(n, mode, counts, digest):
    tracer = Tracer(categories=("kernel",))
    run_fig3_point(n, mode, tracer=tracer)
    stats = tracer._sim.stats
    assert (stats.events_processed, stats.wakeups_cancelled,
            stats.reallocations) == counts
    lane = tracer.select("kernel")
    assert len(lane) == stats.events_processed and tracer.dropped == 0
    lines = "\n".join(f"{r.ts!r} {r.name}" for r in lane)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
