"""Simulated MPI runtime with iteration reporting and process swapping."""

from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    Message,
    MpiContext,
    MpiError,
    MpiJob,
)
from .swap import SwapRecord, SwappableJob

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Message",
    "MpiContext",
    "MpiError",
    "MpiJob",
    "SwapRecord",
    "SwappableJob",
]
