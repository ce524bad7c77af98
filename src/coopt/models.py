"""Builders for the three operation models.

``build_p1`` is the hub's independent day-ahead/real-time procurement LP,
``build_p2`` the storage operator's reserve-market MILP, and ``build_p3`` the
joint bi-objective MILP in which the hub leases storage capacity for
arbitrage.  Deployment of reserve bids is modeled in expectation: the
deployed quantity equals the deployment probability times the bid, enforced
per compartment, which implies the aggregate identity and keeps optimal
solutions unique up to ties.

Deployment revenue supports two conventions: ``"as-written"`` prices the
(already probability-scaled) deployed quantity by probability times the RT
price again, while ``"single-scaled"`` prices it by the RT price once.
"""

from __future__ import annotations

import math

from .linear import (
    EQ,
    GE,
    LE,
    MAX,
    MIN,
    BiObjectiveModel,
    Constraint,
    LinearModel,
    Variable,
)
from .scenario import (
    BssSpec,
    CompartmentSpec,
    DemandProfile,
    HubSpec,
    JointTerms,
    PriceProfiles,
    ReserveProbabilities,
)

AS_WRITTEN = "as-written"
SINGLE_SCALED = "single-scaled"
DEPLOYMENT_REVENUE_MODES = (AS_WRITTEN, SINGLE_SCALED)


def degradation_cost(spec: CompartmentSpec, throughput_kwh: float) -> float:
    """Wear cost of cycling ``throughput_kwh`` through one compartment."""
    if throughput_kwh < 0:
        raise ValueError(f"throughput must be >= 0, got {throughput_kwh}")
    if spec.battery_capacity == 0:
        raise ValueError("battery_capacity must be nonzero")
    return spec.unit_cost * abs(spec.life_slope / 100.0) * throughput_kwh / spec.battery_capacity


def marginal_degradation_rate(spec: CompartmentSpec) -> float:
    """Wear cost per kWh of throughput for one compartment."""
    return degradation_cost(spec, 1.0)


class _Builder:
    def __init__(self):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []

    def var(self, name: str, lb: float = 0.0, ub: float = math.inf, binary: bool = False) -> int:
        j = len(self.variables)
        self.variables.append(Variable(name, lb, ub, binary))
        return j

    def row(self, name: str, coeffs: dict[int, float], sense: str, rhs: float) -> None:
        self.constraints.append(Constraint(coeffs, sense, float(rhs), name))

    def model(self, objective: dict[int, float], sense: str) -> LinearModel:
        return LinearModel(self.variables, self.constraints, objective, sense)


def _check_horizons(prices: PriceProfiles, *others) -> int:
    T = prices.horizon
    for label, length in others:
        if length != T:
            raise ValueError(f"{label} has horizon {length}, expected {T}")
    return T


def _hub_block(b: _Builder, hub: HubSpec, demand: DemandProfile, T: int) -> dict[str, list[int]]:
    da_commit = [b.var(f"da_commit[{t}]") for t in range(T)]
    da_to_ev = [b.var(f"da_to_ev[{t}]") for t in range(T)]
    da_to_rt = [b.var(f"da_to_rt[{t}]") for t in range(T)]
    rt_to_ev = [b.var(f"rt_to_ev[{t}]") for t in range(T)]
    for t in range(T):
        b.row(f"commit_cap[{t}]", {da_commit[t]: 1.0}, LE, hub.da_cap[t])
    return {
        "da_commit": da_commit,
        "da_to_ev": da_to_ev,
        "da_to_rt": da_to_rt,
        "rt_to_ev": rt_to_ev,
    }


def _hub_objective(v: dict[str, list[int]], prices: PriceProfiles, T: int) -> dict[int, float]:
    obj: dict[int, float] = {}
    for t in range(T):
        obj[v["da_to_ev"][t]] = prices.lambda_da[t]
        obj[v["da_to_rt"][t]] = prices.lambda_da[t] - prices.lambda_rt[t]
        obj[v["rt_to_ev"][t]] = prices.lambda_rt[t]
    return obj


def build_p1(hub: HubSpec, prices: PriceProfiles, demand: DemandProfile) -> LinearModel:
    """Hub procurement LP: split the day-ahead commitment between charging and
    resale, top up from real time, meet demand each hour."""
    T = _check_horizons(prices, ("demand", demand.horizon), ("hub.da_cap", len(hub.da_cap)))
    b = _Builder()
    v = _hub_block(b, hub, demand, T)
    for t in range(T):
        b.row(
            f"commit_split[{t}]",
            {v["da_commit"][t]: 1.0, v["da_to_ev"][t]: -1.0, v["da_to_rt"][t]: -1.0},
            EQ,
            0.0,
        )
        b.row(
            f"demand_balance[{t}]",
            {v["da_to_ev"][t]: 1.0, v["rt_to_ev"][t]: 1.0},
            EQ,
            demand.ev_load[t],
        )
    return b.model(_hub_objective(v, prices, T), MIN)


def _bss_block(
    b: _Builder,
    bss: BssSpec,
    probs: ReserveProbabilities,
    T: int,
    *,
    level_floor_as_bound: bool,
) -> dict[str, dict[tuple[int, int], int]]:
    K = bss.k
    names = (
        "charging",
        "discharging",
        "bid_up",
        "bid_dn",
        "deploy_up",
        "deploy_dn",
        "rt_buy",
        "stored_bss",
    )
    v: dict[str, dict[tuple[int, int], int]] = {name: {} for name in names}
    for k in range(K):
        spec = bss.compartments[k]
        lo = spec.min_level if level_floor_as_bound else 0.0
        for t in range(T):
            v["charging"][t, k] = b.var(f"charging[{t},{k}]", 0.0, 1.0, binary=True)
            v["discharging"][t, k] = b.var(f"discharging[{t},{k}]", 0.0, 1.0, binary=True)
            v["bid_up"][t, k] = b.var(f"bid_up[{t},{k}]")
            v["bid_dn"][t, k] = b.var(f"bid_dn[{t},{k}]")
            v["deploy_up"][t, k] = b.var(f"deploy_up[{t},{k}]")
            v["deploy_dn"][t, k] = b.var(f"deploy_dn[{t},{k}]")
            v["rt_buy"][t, k] = b.var(f"rt_buy[{t},{k}]")
            v["stored_bss"][t, k] = b.var(f"stored_bss[{t},{k}]", lo, spec.cap)
    for k in range(K):
        spec = bss.compartments[k]
        for t in range(T):
            b.row(
                f"mode_excl[{t},{k}]",
                {v["charging"][t, k]: 1.0, v["discharging"][t, k]: 1.0},
                LE,
                1.0,
            )
            b.row(
                f"bid_up_cap[{t},{k}]",
                {v["bid_up"][t, k]: 1.0, v["discharging"][t, k]: -spec.max_discharge},
                LE,
                0.0,
            )
            b.row(
                f"bid_dn_cap[{t},{k}]",
                {v["bid_dn"][t, k]: 1.0, v["charging"][t, k]: -spec.max_charge},
                LE,
                0.0,
            )
            # expected deployment, enforced per compartment
            b.row(
                f"deploy_up_link[{t},{k}]",
                {v["deploy_up"][t, k]: 1.0, v["bid_up"][t, k]: -probs.dep_up[t]},
                EQ,
                0.0,
            )
            b.row(
                f"deploy_dn_link[{t},{k}]",
                {v["deploy_dn"][t, k]: 1.0, v["bid_dn"][t, k]: -probs.dep_dn[t]},
                EQ,
                0.0,
            )
    return v


def _bss_balance_rows(b, v, bss, T):
    for k in range(bss.k):
        spec = bss.compartments[k]
        for t in range(T):
            coeffs = {
                v["stored_bss"][t, k]: 1.0,
                v["deploy_dn"][t, k]: -1.0,
                v["rt_buy"][t, k]: -1.0,
                v["deploy_up"][t, k]: 1.0,
            }
            rhs = spec.initial_level if t == 0 else 0.0
            if t > 0:
                coeffs[v["stored_bss"][t - 1, k]] = -1.0
            b.row(f"bss_balance[{t},{k}]", coeffs, EQ, rhs)


def _bss_objective(
    v, bss: BssSpec, prices: PriceProfiles, probs: ReserveProbabilities, T: int, mode: str
) -> dict[int, float]:
    if mode not in DEPLOYMENT_REVENUE_MODES:
        raise ValueError(f"deployment_revenue must be one of {DEPLOYMENT_REVENUE_MODES}, got {mode!r}")
    obj: dict[int, float] = {}
    for k in range(bss.k):
        rate = marginal_degradation_rate(bss.compartments[k])
        for t in range(T):
            obj[v["bid_up"][t, k]] = prices.lambda_up[t] * probs.acc_up[t]
            obj[v["bid_dn"][t, k]] = prices.lambda_dn[t] * probs.acc_dn[t]
            dep_scale_up = probs.dep_up[t] if mode == AS_WRITTEN else 1.0
            dep_scale_dn = probs.dep_dn[t] if mode == AS_WRITTEN else 1.0
            obj[v["deploy_up"][t, k]] = prices.lambda_rt[t] * dep_scale_up - rate
            obj[v["deploy_dn"][t, k]] = prices.lambda_rt[t] * dep_scale_dn - rate
            obj[v["rt_buy"][t, k]] = -prices.lambda_rt[t]
    return obj


def build_p2(
    bss: BssSpec,
    prices: PriceProfiles,
    probs: ReserveProbabilities,
    deployment_revenue: str = AS_WRITTEN,
) -> LinearModel:
    """Reserve-market MILP: each compartment charges, discharges, or idles each
    hour; bids are capped by the mode rates, deployment follows in expectation,
    and the objective is capacity plus deployment revenue net of charging and
    wear costs."""
    T = _check_horizons(prices, ("probabilities", probs.horizon))
    b = _Builder()
    v = _bss_block(b, bss, probs, T, level_floor_as_bound=True)
    for k in range(bss.k):
        spec = bss.compartments[k]
        for t in range(T):
            b.row(
                f"charge_cap[{t},{k}]",
                {
                    v["deploy_dn"][t, k]: 1.0,
                    v["rt_buy"][t, k]: 1.0,
                    v["charging"][t, k]: -spec.max_charge,
                },
                LE,
                0.0,
            )
            b.row(
                f"discharge_cap[{t},{k}]",
                {v["deploy_up"][t, k]: 1.0, v["discharging"][t, k]: -spec.max_discharge},
                LE,
                0.0,
            )
    _bss_balance_rows(b, v, bss, T)
    return b.model(_bss_objective(v, bss, prices, probs, T, deployment_revenue), MAX)


def build_p3(
    hub: HubSpec,
    bss: BssSpec,
    prices: PriceProfiles,
    probs: ReserveProbabilities,
    demand: DemandProfile,
    joint: JointTerms,
    deployment_revenue: str = AS_WRITTEN,
) -> BiObjectiveModel:
    """Joint-operation bi-objective MILP over one shared feasible set.

    The hub additionally routes day-ahead and real-time purchases into leased
    compartment space and discharges it to chargers or back to the grid; the
    compartment mode binaries gate hub and reserve flows together.  The hub
    pays the wear rate times ``1 + lease_markup`` per discharged kWh; the
    storage side books the markup share as income.
    """
    T = _check_horizons(
        prices,
        ("probabilities", probs.horizon),
        ("demand", demand.horizon),
        ("hub.da_cap", len(hub.da_cap)),
    )
    K = bss.k
    b = _Builder()
    hv = _hub_block(b, hub, demand, T)
    bv = _bss_block(b, bss, probs, T, level_floor_as_bound=False)
    lease = {
        name: {
            (t, k): b.var(f"{name}[{t},{k}]", 0.0, bss.compartments[k].cap)
            for k in range(K)
            for t in range(T)
        }
        for name in ("lease_da_in", "lease_rt_in", "lease_to_ev", "lease_to_rt", "stored_hub")
    }

    for k in range(K):
        spec = bss.compartments[k]
        for t in range(T):
            b.row(
                f"level_cap[{t},{k}]",
                {lease["stored_hub"][t, k]: 1.0, bv["stored_bss"][t, k]: 1.0},
                LE,
                spec.cap,
            )
            b.row(
                f"level_floor[{t},{k}]",
                {lease["stored_hub"][t, k]: 1.0, bv["stored_bss"][t, k]: 1.0},
                GE,
                spec.min_level,
            )
            coeffs = {
                lease["stored_hub"][t, k]: 1.0,
                lease["lease_da_in"][t, k]: -1.0,
                lease["lease_rt_in"][t, k]: -1.0,
                lease["lease_to_ev"][t, k]: 1.0,
                lease["lease_to_rt"][t, k]: 1.0,
            }
            if t > 0:
                coeffs[lease["stored_hub"][t - 1, k]] = -1.0
            b.row(f"hub_balance[{t},{k}]", coeffs, EQ, 0.0)  # leased space starts empty
            b.row(
                f"charge_cap[{t},{k}]",
                {
                    lease["lease_da_in"][t, k]: 1.0,
                    lease["lease_rt_in"][t, k]: 1.0,
                    bv["deploy_dn"][t, k]: 1.0,
                    bv["rt_buy"][t, k]: 1.0,
                    bv["charging"][t, k]: -spec.max_charge,
                },
                LE,
                0.0,
            )
            b.row(
                f"discharge_cap[{t},{k}]",
                {
                    lease["lease_to_ev"][t, k]: 1.0,
                    lease["lease_to_rt"][t, k]: 1.0,
                    bv["deploy_up"][t, k]: 1.0,
                    bv["discharging"][t, k]: -spec.max_discharge,
                },
                LE,
                0.0,
            )
    _bss_balance_rows(b, bv, bss, T)
    for t in range(T):
        coeffs = {hv["da_commit"][t]: 1.0, hv["da_to_ev"][t]: -1.0, hv["da_to_rt"][t]: -1.0}
        for k in range(K):
            coeffs[lease["lease_da_in"][t, k]] = -1.0
        b.row(f"commit_split[{t}]", coeffs, EQ, 0.0)
        coeffs = {hv["da_to_ev"][t]: 1.0, hv["rt_to_ev"][t]: 1.0}
        for k in range(K):
            coeffs[lease["lease_to_ev"][t, k]] = 1.0
        b.row(f"demand_balance[{t}]", coeffs, EQ, demand.ev_load[t])

    obj_a = _hub_objective(hv, prices, T)
    fee = joint.deg_rate * (1.0 + joint.lease_markup)
    for k in range(K):
        for t in range(T):
            obj_a[lease["lease_da_in"][t, k]] = prices.lambda_da[t]
            obj_a[lease["lease_rt_in"][t, k]] = prices.lambda_rt[t]
            obj_a[lease["lease_to_rt"][t, k]] = -prices.lambda_rt[t] + fee
            obj_a[lease["lease_to_ev"][t, k]] = fee

    obj_b = _bss_objective(bv, bss, prices, probs, T, deployment_revenue)
    income = joint.deg_rate * joint.lease_markup
    if income:
        for k in range(K):
            for t in range(T):
                obj_b[lease["lease_to_ev"][t, k]] = income
                obj_b[lease["lease_to_rt"][t, k]] = income

    return BiObjectiveModel(b.model({}, MIN), obj_a, obj_b)
