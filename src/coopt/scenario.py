"""Scenario input types for the hub / storage operation models.

All hourly series are plain tuples of floats so that scenario objects are
immutable, hashable-free value objects that are safe to share across worker
processes.  Energy is in kWh over one-hour steps, so kW and kWh/h coincide.
Prices are money per kWh (energy) or money per kW (reserve capacity).

A field annotated :data:`HOURLY` is an hourly series (:func:`hourly_fields`).
A ranged series declares its range in its field's ``metadata["range"]``: the
reserve capacity prices, ``da_cap`` and ``ev_load`` are non-negative and the
probabilities lie in [0, 1].  A section checks each of its series as it is
built, every value finite and within range, and :func:`check_horizon` holds
the series of a section, of a scenario and of a model to one length.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import Field, dataclass, field, fields, is_dataclass, replace

HOURLY = tuple[float, ...]
COMMIT_CAP_FACTOR = 2.0  # the hub's day-ahead commitment cap per unit of demand


def _within(lo: float, hi: float):
    return field(metadata={"range": (lo, hi)})


@functools.cache
def hourly_fields(cls) -> tuple[Field, ...]:
    """The fields of ``cls`` annotated as hourly series, none when ``cls`` is
    not a dataclass (an absent ``joint`` section is None)."""
    if not is_dataclass(cls):
        return ()
    hints = typing.get_type_hints(cls)
    return tuple(f for f in fields(cls) if hints[f.name] == HOURLY)


def check_horizon(T: int, **sections) -> None:
    """Raise unless every hourly series of each named section has length ``T``."""
    for name, part in sections.items():
        for f in hourly_fields(type(part)):
            if (n := len(getattr(part, f.name))) != T:
                raise ValueError(f"{name}.{f.name}: length {n} != horizon {T}")


def _check_hourly(part, section: str) -> None:
    """Store each hourly series of ``part`` as a tuple of floats, each value
    finite and within its field's range, and all of them of one length."""
    series = hourly_fields(type(part))
    for f in series:
        values = tuple(float(v) for v in getattr(part, f.name))
        lo, hi = f.metadata.get("range", (-math.inf, math.inf))
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"{section}.{f.name}[{i}]: {v} is not finite")
            if not lo <= v <= hi:
                raise ValueError(f"{section}.{f.name}[{i}]: {v} is outside [{lo:g}, {hi:g}]")
        object.__setattr__(part, f.name, values)
    check_horizon(len(getattr(part, series[0].name)), **{section: part})


@dataclass(frozen=True)
class PriceProfiles:
    """Hourly day-ahead / real-time energy prices and reserve capacity prices."""

    lambda_da: HOURLY
    lambda_rt: HOURLY
    lambda_up: HOURLY = _within(0.0, math.inf)
    lambda_dn: HOURLY = _within(0.0, math.inf)

    def __post_init__(self):
        _check_hourly(self, "prices")

    @property
    def horizon(self) -> int:
        return len(self.lambda_da)


@dataclass(frozen=True)
class ReserveProbabilities:
    """Hourly bid-acceptance and deployment probabilities for up/down reserve."""

    acc_up: HOURLY = _within(0.0, 1.0)
    acc_dn: HOURLY = _within(0.0, 1.0)
    dep_up: HOURLY = _within(0.0, 1.0)
    dep_dn: HOURLY = _within(0.0, 1.0)

    def __post_init__(self):
        _check_hourly(self, "probabilities")


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

    da_cap: HOURLY = _within(0.0, math.inf)
    station_count: int
    station_rate: float

    def __post_init__(self):
        _check_hourly(self, "hub")
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

    ev_load: HOURLY = _within(0.0, math.inf)

    def __post_init__(self):
        _check_hourly(self, "demand")

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
        check_horizon(self.horizon, **{f.name: getattr(self, f.name) for f in fields(self)})
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


def with_profiles(scn: ScenarioInputs, profiles) -> ScenarioInputs:
    """``scn`` with hourly profiles written in, keyed by scenario field name.

    Any hourly series of a section may be written: the prices, the reserve
    probabilities, ``ev_load`` and ``da_cap``.  A new ``ev_load`` brings its
    day-ahead cap, ``COMMIT_CAP_FACTOR`` times the load.
    """
    profiles = dict(profiles)
    if "ev_load" in profiles:
        profiles["da_cap"] = tuple(COMMIT_CAP_FACTOR * v for v in profiles["ev_load"])
    parts = {}
    for section in fields(scn):
        part = getattr(scn, section.name)
        own = {f.name: profiles.pop(f.name) for f in hourly_fields(type(part)) if f.name in profiles}
        if own:
            parts[section.name] = replace(part, **own)
    if profiles:
        raise ValueError(f"no hourly scenario field named {', '.join(sorted(profiles))}")
    return replace(scn, **parts)
