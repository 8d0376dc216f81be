"""Network Weather Service: sensors + adaptive forecasting."""

from .forecasting import AdaptiveForecaster
from .sensors import CpuSensorSweep, NetworkSensor
from .service import NetworkWeatherService

__all__ = [
    "AdaptiveForecaster",
    "CpuSensorSweep",
    "NetworkSensor",
    "NetworkWeatherService",
]
