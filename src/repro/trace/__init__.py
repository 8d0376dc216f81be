"""repro.trace — structured tracing, export, analysis and diffing.

The observability layer for the reproduction: a :class:`Tracer`
collects sim-time-stamped :class:`Instant` and :class:`Span` records
from hooks wired through the kernel, the network substrate, the
scheduler, the contract monitor and the rescheduling machinery.
Records export to Chrome trace-event JSON (loadable in Perfetto /
``chrome://tracing``), feed the analyses in
:mod:`repro.trace.analysis`, and — because a seeded run is fully
deterministic — double as a correctness tool: two same-seed runs must
produce byte-identical traces, which :mod:`repro.trace.diff` checks.
"""

from .analysis import (
    critical_path,
    host_utilization,
    summarize,
    violation_timeline,
)
from .diff import (
    Divergence,
    first_divergence,
    format_divergence,
    load_trace_file,
)
from .export import (
    chrome_trace,
    normalize_records,
    records_as_dicts,
    validate_chrome,
    write_chrome,
)
from .tracer import CATEGORIES, Instant, Span, Tracer

__all__ = [
    "CATEGORIES",
    "Divergence",
    "Instant",
    "Span",
    "Tracer",
    "chrome_trace",
    "critical_path",
    "first_divergence",
    "format_divergence",
    "host_utilization",
    "load_trace_file",
    "normalize_records",
    "records_as_dicts",
    "summarize",
    "validate_chrome",
    "violation_timeline",
    "write_chrome",
]
