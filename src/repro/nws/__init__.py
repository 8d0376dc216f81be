"""Network Weather Service: sensors + adaptive forecasting."""

from .forecasting import (
    AdaptiveForecaster,
    AutoRegressive,
    ExponentialSmoothing,
    Forecaster,
    LastValue,
    RunningMean,
    SlidingWindowMean,
    SlidingWindowMedian,
    default_battery,
)
from .sensors import CpuSensor, CpuSensorSweep, Measurement, NetworkSensor
from .service import NetworkWeatherService

__all__ = [
    "AdaptiveForecaster",
    "AutoRegressive",
    "CpuSensor",
    "CpuSensorSweep",
    "ExponentialSmoothing",
    "Forecaster",
    "LastValue",
    "Measurement",
    "NetworkSensor",
    "NetworkWeatherService",
    "RunningMean",
    "SlidingWindowMean",
    "SlidingWindowMedian",
    "default_battery",
]
