"""Autopilot: sensors, actuators, and the manager that wires them.

"Autopilot provides sensors for performance data acquisition, actuators
for implementing optimization commands and a decision-making mechanism
based on fuzzy logic" (§1).  The binder inserts application sensors;
the contract monitor subscribes to them through the manager; the
rescheduler registers actuators the monitor can fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from ..sim.kernel import Simulator

__all__ = ["SensorReading", "Sensor", "Actuator", "AutopilotManager"]


@dataclass(frozen=True)
class SensorReading:
    """One datum published by a sensor."""

    sensor: str
    time: float
    value: float
    attributes: Tuple[Tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        for k, v in self.attributes:
            if k == key:
                return v
        return default


class Sensor:
    """A named data source applications (or the runtime) publish through."""

    def __init__(self, manager: "AutopilotManager", name: str) -> None:
        self.manager = manager
        self.name = name

    def publish(self, value: float, **attributes: Any) -> SensorReading:
        reading = SensorReading(
            sensor=self.name, time=self.manager.sim.now, value=value,
            attributes=tuple(sorted(attributes.items())))
        self.manager._dispatch(reading)
        return reading


@dataclass
class Actuator:
    """A named command endpoint (e.g. "request-migration")."""

    name: str
    action: Callable[..., Any]

    def fire(self, *args: Any, **kwargs: Any) -> Any:
        return self.action(*args, **kwargs)


class AutopilotManager:
    """Registry connecting sensors to clients and actuators to callers."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._sensors: Dict[str, Sensor] = {}
        self._actuators: Dict[str, Actuator] = {}
        self._subscribers: Dict[str, List[Callable[[SensorReading], None]]] = {}

    # -- sensors -----------------------------------------------------------
    def register_sensor(self, name: str) -> Sensor:
        if name in self._sensors:
            raise ValueError(f"duplicate sensor {name!r}")
        sensor = Sensor(self, name)
        self._sensors[name] = sensor
        return sensor

    def sensor(self, name: str) -> Sensor:
        try:
            return self._sensors[name]
        except KeyError:
            raise KeyError(f"unknown sensor {name!r}") from None

    def subscribe(self, sensor_name: str,
                  callback: Callable[[SensorReading], None]) -> None:
        """Deliver every reading of ``sensor_name`` to ``callback``."""
        self._subscribers.setdefault(sensor_name, []).append(callback)

    def _dispatch(self, reading: SensorReading) -> None:
        for callback in self._subscribers.get(reading.sensor, []):
            callback(reading)

    # -- actuators -----------------------------------------------------------
    def register_actuator(self, name: str,
                          action: Callable[..., Any]) -> Actuator:
        if name in self._actuators:
            raise ValueError(f"duplicate actuator {name!r}")
        actuator = Actuator(name=name, action=action)
        self._actuators[name] = actuator
        return actuator

    def actuate(self, name: str, *args: Any, **kwargs: Any) -> Any:
        try:
            actuator = self._actuators[name]
        except KeyError:
            raise KeyError(f"unknown actuator {name!r}") from None
        return actuator.fire(*args, **kwargs)
