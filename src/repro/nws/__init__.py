"""Network Weather Service: sensors + adaptive forecasting."""

from .forecasting import AdaptiveForecaster
from .sensors import CpuSensor, CpuSensorSweep, Measurement, NetworkSensor
from .service import NetworkWeatherService

__all__ = [
    "AdaptiveForecaster",
    "CpuSensor",
    "CpuSensorSweep",
    "Measurement",
    "NetworkSensor",
    "NetworkWeatherService",
]
