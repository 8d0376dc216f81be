"""PAPI-style per-rank performance counters.

"Using simple computation and communication performance metrics,
captured via PAPI and the MPI profiling interface with automatically-
inserted sensors, allows the detection of performance variations" (§5).
The binder inserts Autopilot sensors that read these counters; the
contract monitor compares their deltas against model predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RankCounters"]


@dataclass
class RankCounters:
    """Counters one simulated rank accumulates as it runs."""

    mflop: float = 0.0
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    comm_seconds: float = 0.0
    iterations: int = 0

