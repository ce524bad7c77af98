"""Builders for the three operation models.

``build_p1`` is the hub's independent day-ahead/real-time procurement LP,
``build_p2`` the storage operator's reserve-market MILP, and ``build_p3`` the
joint bi-objective MILP in which the hub leases storage capacity for
arbitrage.  Deployment of reserve bids is modeled in expectation: the
deployed quantity equals the deployment probability times the bid, enforced
per compartment, which implies the aggregate identity and keeps optimal
solutions unique up to ties.

P3 is P1 and P2 on one feasible set plus the space the hub leases, and one
private function builds all three models in one column and row order.  P3's
columns are P1's, then P2's, then the lease columns.  Its rows keep P1's and
P2's rows in their relative order, with lease terms on the rows the lease
shares with them, and add the lease's own ``level_cap``, ``level_floor`` and
``hub_balance`` rows.  P2 bounds each stored level by the storage floor; P3
puts the floor on the sum of the two operators' levels, as a row.

A hub column is named ``family[t]`` and a compartment column
``family[t,k]``.  The builder records each family's columns as it creates
them, a ``(T,)`` or ``(T, K)`` index array on ``LinearModel.families``, and
:func:`family_values` gives each family's values in a solution as one
array, so a report reads a family whole and neither spells nor parses a
column name.

Each column is labelled with its block as it is created: compartment ``k``'s
columns, the leased ones included, carry block ``k`` and the hub's columns
block -1.  A row's block is the one its columns share, read from the
labels of its entries' columns (:func:`~coopt.linear.split_blocks`).  P1 is
the hub's block alone and P2 one block per compartment with no row between
two of them.  P3's rows all lie in one block, except ``commit_split`` and
``demand_balance``, which sum the lease flows over the compartments.

Each hour's expected deployment, already the deployment probability times
the bid, earns the deployment probability times the real-time price, less
the compartment's wear rate.
"""

from __future__ import annotations

import math

import numpy as np

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
    check_horizon,
)


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


_LEASE_FAMILIES = ("lease_da_in", "lease_rt_in", "lease_to_ev", "lease_to_rt", "stored_hub")


def _build(
    prices: PriceProfiles,
    *,
    hub: HubSpec | None = None,
    demand: DemandProfile | None = None,
    bss: BssSpec | None = None,
    probs: ReserveProbabilities | None = None,
    joint: JointTerms | None = None,
) -> tuple[list[Variable], list[Constraint], dict[int, float], dict[int, float], dict]:
    """Variables, rows, hub cost, storage profit and family layout
    (``LinearModel.families``) of the blocks supplied.

    The hub block needs ``hub`` and ``demand``, the storage block ``bss`` and
    ``probs``, and the leased space ``joint`` on top of both.  Columns come
    hub, storage, lease; each row shared by the blocks is written once and
    carries the lease terms when the lease columns exist.
    """
    T = prices.horizon
    check_horizon(T, probabilities=probs, demand=demand, hub=hub)

    variables: list[Variable] = []
    rows: list[Constraint] = []
    x: dict[str, dict] = {}  # column index by family, then by t (hub) or (t, k)
    cost: dict[int, float] = {}
    profit: dict[int, float] = {}

    def var(family: str, t: int, k: int | None = None, lb=0.0, ub=math.inf, binary=False):
        key, label = (t, f"{t}") if k is None else ((t, k), f"{t},{k}")
        x.setdefault(family, {})[key] = len(variables)
        variables.append(Variable(f"{family}[{label}]", lb, ub, binary, -1 if k is None else k))

    def row(name: str, coeffs: dict[int, float], sense: str, rhs: float) -> None:
        rows.append(Constraint(coeffs, sense, float(rhs), name))

    if hub is not None:
        for family in ("da_commit", "da_to_ev", "da_to_rt", "rt_to_ev"):
            for t in range(T):
                var(family, t)
        for t in range(T):
            row(f"commit_cap[{t}]", {x["da_commit"][t]: 1.0}, LE, hub.da_cap[t])
            cost[x["da_to_ev"][t]] = prices.lambda_da[t]
            cost[x["da_to_rt"][t]] = prices.lambda_da[t] - prices.lambda_rt[t]
            cost[x["rt_to_ev"][t]] = prices.lambda_rt[t]

    if bss is not None:
        level_floor_as_bound = joint is None
        for k, spec in enumerate(bss.compartments):
            lo = spec.min_level if level_floor_as_bound else 0.0
            for t in range(T):
                var("charging", t, k, ub=1.0, binary=True)
                var("discharging", t, k, ub=1.0, binary=True)
                for family in ("bid_up", "bid_dn", "deploy_up", "deploy_dn", "rt_buy"):
                    var(family, t, k)
                var("stored_bss", t, k, lo, spec.cap)
        charging, discharging = x["charging"], x["discharging"]
        bid_up, bid_dn, rt_buy = x["bid_up"], x["bid_dn"], x["rt_buy"]
        deploy_up, deploy_dn, stored_bss = x["deploy_up"], x["deploy_dn"], x["stored_bss"]
        for k, spec in enumerate(bss.compartments):
            rate = marginal_degradation_rate(spec)
            for t in range(T):
                tk = t, k
                row(f"mode_excl[{t},{k}]", {charging[tk]: 1.0, discharging[tk]: 1.0}, LE, 1.0)
                up_cap = {bid_up[tk]: 1.0, discharging[tk]: -spec.max_discharge}
                row(f"bid_up_cap[{t},{k}]", up_cap, LE, 0.0)
                dn_cap = {bid_dn[tk]: 1.0, charging[tk]: -spec.max_charge}
                row(f"bid_dn_cap[{t},{k}]", dn_cap, LE, 0.0)
                # expected deployment, enforced per compartment
                up_link = {deploy_up[tk]: 1.0, bid_up[tk]: -probs.dep_up[t]}
                row(f"deploy_up_link[{t},{k}]", up_link, EQ, 0.0)
                dn_link = {deploy_dn[tk]: 1.0, bid_dn[tk]: -probs.dep_dn[t]}
                row(f"deploy_dn_link[{t},{k}]", dn_link, EQ, 0.0)
                profit[bid_up[tk]] = prices.lambda_up[t] * probs.acc_up[t]
                profit[bid_dn[tk]] = prices.lambda_dn[t] * probs.acc_dn[t]
                profit[deploy_up[tk]] = prices.lambda_rt[t] * probs.dep_up[t] - rate
                profit[deploy_dn[tk]] = prices.lambda_rt[t] * probs.dep_dn[t] - rate
                profit[rt_buy[tk]] = -prices.lambda_rt[t]

    if joint is not None:
        for family in _LEASE_FAMILIES:
            for k, spec in enumerate(bss.compartments):
                for t in range(T):
                    var(family, t, k, 0.0, spec.cap)
        da_in, rt_in, to_ev, to_rt, stored_hub = (x[family] for family in _LEASE_FAMILIES)
        fee = joint.deg_rate * (1.0 + joint.lease_markup)
        income = joint.deg_rate * joint.lease_markup

    if bss is not None:
        for k, spec in enumerate(bss.compartments):
            for t in range(T):
                tk = t, k
                lease_in: dict[int, float] = {}
                lease_out: dict[int, float] = {}
                if joint is not None:
                    level = {stored_hub[tk]: 1.0, stored_bss[tk]: 1.0}
                    row(f"level_cap[{t},{k}]", level, LE, spec.cap)
                    row(f"level_floor[{t},{k}]", dict(level), GE, spec.min_level)
                    coeffs = {
                        stored_hub[tk]: 1.0,
                        da_in[tk]: -1.0,
                        rt_in[tk]: -1.0,
                        to_ev[tk]: 1.0,
                        to_rt[tk]: 1.0,
                    }
                    if t > 0:
                        coeffs[stored_hub[t - 1, k]] = -1.0
                    row(f"hub_balance[{t},{k}]", coeffs, EQ, 0.0)  # leased space starts empty
                    lease_in = {da_in[tk]: 1.0, rt_in[tk]: 1.0}
                    lease_out = {to_ev[tk]: 1.0, to_rt[tk]: 1.0}
                    cost[da_in[tk]] = prices.lambda_da[t]
                    cost[rt_in[tk]] = prices.lambda_rt[t]
                    cost[to_rt[tk]] = -prices.lambda_rt[t] + fee
                    cost[to_ev[tk]] = fee
                    if income:
                        profit[to_ev[tk]] = income
                        profit[to_rt[tk]] = income
                charged = {deploy_dn[tk]: 1.0, rt_buy[tk]: 1.0, charging[tk]: -spec.max_charge}
                row(f"charge_cap[{t},{k}]", {**lease_in, **charged}, LE, 0.0)
                discharged = {deploy_up[tk]: 1.0, discharging[tk]: -spec.max_discharge}
                row(f"discharge_cap[{t},{k}]", {**lease_out, **discharged}, LE, 0.0)
        for k, spec in enumerate(bss.compartments):
            for t in range(T):
                coeffs = {
                    stored_bss[t, k]: 1.0,
                    deploy_dn[t, k]: -1.0,
                    rt_buy[t, k]: -1.0,
                    deploy_up[t, k]: 1.0,
                }
                if t > 0:
                    coeffs[stored_bss[t - 1, k]] = -1.0
                row(f"bss_balance[{t},{k}]", coeffs, EQ, spec.initial_level if t == 0 else 0.0)

    if hub is not None:
        for t in range(T):
            coeffs = {x["da_commit"][t]: 1.0, x["da_to_ev"][t]: -1.0, x["da_to_rt"][t]: -1.0}
            served = {x["da_to_ev"][t]: 1.0, x["rt_to_ev"][t]: 1.0}
            if joint is not None:
                for k in range(bss.k):
                    coeffs[da_in[t, k]] = -1.0
                    served[to_ev[t, k]] = 1.0
            row(f"commit_split[{t}]", coeffs, EQ, 0.0)
            row(f"demand_balance[{t}]", served, EQ, demand.ev_load[t])

    families = {}
    for family, cols in x.items():
        j = np.fromiter(cols.values(), np.intp, len(cols))
        # a compartment family is created compartment-major, so (K, T) transposed
        families[family] = j.reshape(-1, T).T if isinstance(next(iter(cols)), tuple) else j
    return variables, rows, cost, profit, families


def build_p1(hub: HubSpec, prices: PriceProfiles, demand: DemandProfile) -> LinearModel:
    """Hub procurement LP: split the day-ahead commitment between charging and
    resale, top up from real time, meet demand each hour."""
    variables, rows, cost, _, families = _build(prices, hub=hub, demand=demand)
    return LinearModel(variables, rows, cost, MIN, families)


def build_p2(bss: BssSpec, prices: PriceProfiles, probs: ReserveProbabilities) -> LinearModel:
    """Reserve-market MILP: each compartment charges, discharges, or idles each
    hour; bids are capped by the mode rates, deployment follows in expectation,
    and the objective is capacity plus deployment revenue net of charging and
    wear costs."""
    variables, rows, _, profit, families = _build(prices, bss=bss, probs=probs)
    return LinearModel(variables, rows, profit, MAX, families)


def build_p3(
    hub: HubSpec,
    bss: BssSpec,
    prices: PriceProfiles,
    probs: ReserveProbabilities,
    demand: DemandProfile,
    joint: JointTerms,
) -> BiObjectiveModel:
    """Joint-operation bi-objective MILP over one shared feasible set.

    The hub additionally routes day-ahead and real-time purchases into leased
    compartment space and discharges it to chargers or back to the grid; the
    compartment mode binaries gate hub and reserve flows together.  The hub
    pays the wear rate times ``1 + lease_markup`` per discharged kWh; the
    storage side books the markup share as income.
    """
    variables, rows, cost, profit, families = _build(
        prices, hub=hub, demand=demand, bss=bss, probs=probs, joint=joint
    )
    return BiObjectiveModel(LinearModel(variables, rows, {}, MIN, families), cost, profit)


def family_values(model: LinearModel, x) -> dict[str, np.ndarray]:
    """The values in ``x`` of each variable family of ``model``, a model that
    :func:`build_p1`, :func:`build_p2` or :func:`build_p3` returned.

    A hub family's values are a ``(T,)`` array and a compartment family's a
    ``(T, K)`` array, indexed as the family's column names ``family[t]`` and
    ``family[t,k]`` are, read through ``model.families``.
    """
    x = np.asarray(x, dtype=float)
    return {family: x[cols] for family, cols in model.families.items()}
