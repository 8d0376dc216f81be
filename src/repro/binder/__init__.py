"""Distributed binder (paper §2)."""

from .binder import (
    BINDER_PACKAGE,
    MPI_STARTUP_SECONDS,
    SENSOR_INSTRUMENT_SECONDS,
    BinderError,
    BindReport,
    DistributedBinder,
)

__all__ = [
    "BINDER_PACKAGE",
    "BinderError",
    "BindReport",
    "DistributedBinder",
    "MPI_STARTUP_SECONDS",
    "SENSOR_INSTRUMENT_SECONDS",
]
