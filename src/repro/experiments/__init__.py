"""Experiment drivers regenerating the paper's figures and demos."""

from .common import (
    JSON_SCHEMA_VERSION,
    format_series,
    format_table,
)
from .eman_demo import EmanResult, run_eman_demo
from .metasched_stream import (
    MetaschedResult,
    metasched_tables,
    run_metasched,
)
from .fig3_qr import (
    DEFAULT_SIZES,
    PHASES,
    WORST_CASE_SECONDS,
    Fig3Point,
    Fig3Result,
    run_fig3,
    run_fig3_point,
)
from .fig4_swap import Fig4Result, run_fig4
from .opportunistic import (
    OpportunisticResult,
    asymmetric_grid,
    run_opportunistic,
)

__all__ = [
    "OpportunisticResult",
    "asymmetric_grid",
    "run_opportunistic",
    "DEFAULT_SIZES",
    "EmanResult",
    "Fig3Point",
    "Fig3Result",
    "Fig4Result",
    "JSON_SCHEMA_VERSION",
    "MetaschedResult",
    "PHASES",
    "WORST_CASE_SECONDS",
    "metasched_tables",
    "format_series",
    "format_table",
    "run_eman_demo",
    "run_fig3",
    "run_fig3_point",
    "run_fig4",
    "run_metasched",
]
