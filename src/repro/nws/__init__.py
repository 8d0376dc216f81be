"""Network Weather Service: sensors + adaptive forecasting."""

from .forecasting import AdaptiveForecaster
from .sensors import CpuSensorSweep
from .service import NetworkWeatherService

__all__ = [
    "AdaptiveForecaster",
    "CpuSensorSweep",
    "NetworkWeatherService",
]
