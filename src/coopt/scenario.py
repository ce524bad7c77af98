"""Scenario input types for the hub / storage operation models.

All hourly series are plain tuples of floats so that scenario objects are
immutable, hashable-free value objects that are safe to share across worker
processes.  Energy is in kWh over one-hour steps, so kW and kWh/h coincide.
Prices are money per kWh (energy) or money per kW (reserve capacity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _as_series(values, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for i, v in enumerate(out):
        if not math.isfinite(v):
            raise ValueError(f"{name}[{i}]: {v} is not finite")
    return out


def _check_prob_series(values: tuple[float, ...], name: str) -> None:
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name}[{i}]: {v} is outside [0, 1]")


@dataclass(frozen=True)
class PriceProfiles:
    """Hourly day-ahead / real-time energy prices and reserve capacity prices."""

    lambda_da: tuple[float, ...]
    lambda_rt: tuple[float, ...]
    lambda_up: tuple[float, ...]
    lambda_dn: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambda_da", _as_series(self.lambda_da, "prices.lambda_da"))
        object.__setattr__(self, "lambda_rt", _as_series(self.lambda_rt, "prices.lambda_rt"))
        object.__setattr__(self, "lambda_up", _as_series(self.lambda_up, "prices.lambda_up"))
        object.__setattr__(self, "lambda_dn", _as_series(self.lambda_dn, "prices.lambda_dn"))
        T = len(self.lambda_da)
        for name in ("lambda_rt", "lambda_up", "lambda_dn"):
            if len(getattr(self, name)) != T:
                raise ValueError(
                    f"prices.{name}: length {len(getattr(self, name))} != horizon {T}"
                )
        for name in ("lambda_up", "lambda_dn"):
            for i, v in enumerate(getattr(self, name)):
                if v < 0:
                    raise ValueError(f"prices.{name}[{i}]: capacity price {v} < 0")

    @property
    def horizon(self) -> int:
        return len(self.lambda_da)


@dataclass(frozen=True)
class ReserveProbabilities:
    """Hourly bid-acceptance and deployment probabilities for up/down reserve."""

    acc_up: tuple[float, ...]
    acc_dn: tuple[float, ...]
    dep_up: tuple[float, ...]
    dep_dn: tuple[float, ...]

    def __post_init__(self):
        for name in ("acc_up", "acc_dn", "dep_up", "dep_dn"):
            series = _as_series(getattr(self, name), f"probabilities.{name}")
            _check_prob_series(series, f"probabilities.{name}")
            object.__setattr__(self, name, series)
        T = len(self.acc_up)
        for name in ("acc_dn", "dep_up", "dep_dn"):
            if len(getattr(self, name)) != T:
                raise ValueError(
                    f"probabilities.{name}: length {len(getattr(self, name))} != horizon {T}"
                )

    @property
    def horizon(self) -> int:
        return len(self.acc_up)


@dataclass(frozen=True)
class CompartmentSpec:
    """One independently operated battery compartment.

    ``life_slope`` is the slope (percent per cycle) of the linear battery-life
    approximation; together with ``unit_cost`` and ``battery_capacity`` it sets
    the wear cost per kWh of throughput.
    """

    cap: float
    min_level: float
    max_charge: float
    max_discharge: float
    unit_cost: float
    battery_capacity: float
    life_slope: float
    initial_level: float

    def __post_init__(self):
        if not 0.0 <= self.min_level <= self.initial_level <= self.cap:
            raise ValueError(
                "compartment levels must satisfy 0 <= min_level <= initial_level <= cap, "
                f"got min={self.min_level} initial={self.initial_level} cap={self.cap}"
            )
        if self.max_charge <= 0 or self.max_discharge <= 0:
            raise ValueError("max_charge and max_discharge must be > 0")
        if self.battery_capacity <= 0:
            raise ValueError("battery_capacity must be > 0")


@dataclass(frozen=True)
class BssSpec:
    """Stand-alone battery storage system: one entry per compartment."""

    compartments: tuple[CompartmentSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "compartments", tuple(self.compartments))
        if len(self.compartments) < 1:
            raise ValueError("bss.compartments must not be empty")

    @property
    def k(self) -> int:
        return len(self.compartments)


@dataclass(frozen=True)
class HubSpec:
    """Fast-charging hub: commitment cap per hour and station fleet."""

    da_cap: tuple[float, ...]
    station_count: int
    station_rate: float

    def __post_init__(self):
        object.__setattr__(self, "da_cap", _as_series(self.da_cap, "hub.da_cap"))
        for i, v in enumerate(self.da_cap):
            if v < 0:
                raise ValueError(f"hub.da_cap[{i}]: {v} < 0")
        if self.station_count < 1:
            raise ValueError(f"hub.station_count must be >= 1, got {self.station_count}")
        if self.station_rate <= 0:
            raise ValueError(f"hub.station_rate must be > 0, got {self.station_rate}")

    @property
    def max_hourly_service(self) -> float:
        return self.station_count * self.station_rate


@dataclass(frozen=True)
class DemandProfile:
    """Aggregated hourly EV charging demand at the hub."""

    ev_load: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ev_load", _as_series(self.ev_load, "demand.ev_load"))
        for i, v in enumerate(self.ev_load):
            if v < 0:
                raise ValueError(f"demand.ev_load[{i}]: {v} < 0")

    @property
    def horizon(self) -> int:
        return len(self.ev_load)

    def check_serviceable(self, hub: HubSpec) -> None:
        cap = hub.max_hourly_service
        for i, v in enumerate(self.ev_load):
            if v > cap + 1e-9:
                raise ValueError(
                    f"demand.ev_load[{i}]: {v} exceeds hub service capacity {cap}"
                )


@dataclass(frozen=True)
class JointTerms:
    """Leasing terms of the joint operation.

    ``deg_rate`` is the wear cost per kWh discharged from leased capacity; the
    hub pays ``deg_rate * (1 + lease_markup)`` per kWh and the storage operator
    books ``deg_rate * lease_markup`` of that as leasing profit.
    """

    lease_markup: float
    deg_rate: float

    def __post_init__(self):
        if self.lease_markup < 0:
            raise ValueError(f"joint.lease_markup must be >= 0, got {self.lease_markup}")
        if self.deg_rate < 0:
            raise ValueError(f"joint.deg_rate must be >= 0, got {self.deg_rate}")


@dataclass(frozen=True)
class ScenarioInputs:
    """Full parameter set of the three operation models.

    ``joint`` may be None, in which case only the two independent models can
    be built from this scenario.
    """

    prices: PriceProfiles
    probabilities: ReserveProbabilities
    demand: DemandProfile
    hub: HubSpec
    bss: BssSpec
    joint: JointTerms | None = None

    def __post_init__(self):
        T = self.prices.horizon
        if self.probabilities.horizon != T:
            raise ValueError(
                f"probabilities horizon {self.probabilities.horizon} != prices horizon {T}"
            )
        if self.demand.horizon != T:
            raise ValueError(f"demand horizon {self.demand.horizon} != prices horizon {T}")
        if len(self.hub.da_cap) != T:
            raise ValueError(f"hub.da_cap length {len(self.hub.da_cap)} != prices horizon {T}")
        self.demand.check_serviceable(self.hub)

    @property
    def horizon(self) -> int:
        return self.prices.horizon

    def require_joint(self) -> JointTerms:
        if self.joint is None:
            raise ValueError(
                "scenario has no 'joint' section; joint-operation commands need "
                "lease_markup and deg_rate"
            )
        return self.joint
