"""Independent brute-force oracles the solver tests are checked against.

These deliberately avoid the production code paths: the LP oracle enumerates
candidate vertices from active-set linear systems, the hub-commitment oracle
scans a 1-kWh grid, the MILP oracle solves the LP of every binary assignment,
the certificate check recomputes optimality residuals from the model, the
block split and the exclusivity pairs walk each row's dict of coefficients, the
axiom check probes a bargain for rationality, Pareto optimality, affine
invariance and symmetry, and the objective breakdown recomputes every money
component of a model's objectives from its inputs and variable values.  The
HiGHS oracle solves a model with ``scipy.optimize.milp``, and the report
oracle reads every column of the hourly reports from a study's solutions,
variable by variable name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from coopt.bargain import DEFAULT_GAP, BargainResult, DisagreementPoints, solve_nbs
from coopt.bnb import _LP_FAILED, OPTIMAL_WITHIN_GAP, MilpSolution, SolverError, solve_milp
from coopt.linear import (
    EQ,
    GE,
    LE,
    MAX,
    MIN,
    BiObjectiveModel,
    Constraint,
    LinearModel,
    add_constraint,
    read_model,
    with_objective,
)
from coopt.models import marginal_degradation_rate
from coopt.simplex import (
    INFEASIBLE,
    OPT_TOL,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
    SimplexSolver,
    StandardForm,
    standard_form,
)


def enumerate_vertices(model: LinearModel):
    """All basic feasible points of a box-bounded model via active-set systems.

    Requires every variable to carry finite bounds so the feasible set is a
    polytope; rows may be any sense.
    """
    n = model.n
    rows = []
    rhs = []
    eq_rows = []
    for con in model.constraints:
        a = np.zeros(n)
        for j, c in con.coeffs.items():
            a[j] += c
        if con.sense == EQ:
            eq_rows.append((a, con.rhs))
        else:
            rows.append((a, con.rhs, con.sense))
    # candidate active hyperplanes: inequality rows + both bounds per variable
    planes = [(a, r) for a, r, _ in rows]
    for j, v in enumerate(model.variables):
        if math.isinf(v.lb) or math.isinf(v.ub):
            raise ValueError("oracle needs finite bounds on every variable")
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, v.lb))
        planes.append((e, v.ub))

    need = n - len(eq_rows)
    if need < 0:
        need = 0
    vertices = []
    for combo in itertools.combinations(range(len(planes)), need):
        Aact = np.array([planes[i][0] for i in combo] + [a for a, _ in eq_rows])
        bact = np.array([planes[i][1] for i in combo] + [r for _, r in eq_rows])
        if Aact.shape[0] != n:
            continue
        if abs(np.linalg.det(Aact)) < 1e-10:
            continue
        x = np.linalg.solve(Aact, bact)
        if _feasible(model, rows, eq_rows, x):
            vertices.append(x)
    return vertices


def _feasible(model: LinearModel, rows, eq_rows, x, tol: float = 1e-7) -> bool:
    for j, v in enumerate(model.variables):
        if x[j] < v.lb - tol or x[j] > v.ub + tol:
            return False
    for a, r, sense in rows:
        lhs = float(a @ x)
        if sense == LE and lhs > r + tol:
            return False
        if sense == GE and lhs < r - tol:
            return False
    for a, r in eq_rows:
        if abs(float(a @ x) - r) > tol:
            return False
    return True


def best_vertex_objective(model: LinearModel):
    """Optimal objective by exhaustive vertex enumeration; None if infeasible."""
    vertices = enumerate_vertices(model)
    if not vertices:
        return None
    c = np.zeros(model.n)
    for j, cv in model.objective.items():
        c[j] = cv
    values = [float(c @ x) for x in vertices]
    return min(values) if model.sense == MIN else max(values)


def hub_commitment_grid_cost(lam_da, lam_rt, demand, cap, step=1.0):
    """Single-hour hub cost by scanning commitments on a fixed grid."""
    best = math.inf
    commit = 0.0
    while commit <= cap + 1e-9:
        for da_ev in (0.0, min(commit, demand)):
            da_rt = commit - da_ev
            rt_ev = demand - da_ev
            cost = lam_da * da_ev + (lam_da - lam_rt) * da_rt + lam_rt * rt_ev
            best = min(best, cost)
        commit += step
    return best


def single_hour_bss_profit(
    lam_up,
    lam_dn,
    lam_rt,
    acc_up,
    acc_dn,
    dep_up,
    dep_dn,
    cap,
    min_level,
    max_charge,
    max_discharge,
    initial_level,
    deg_rate,
    steps=60,
    deployment_scaled_twice=True,
):
    """Exhaustive single-hour, single-compartment reserve profit over a bid grid."""
    best = -math.inf
    for x_mode, y_mode in ((0, 0), (0, 1), (1, 0)):
        bid_ups = np.linspace(0.0, max_discharge * y_mode, steps + 1)
        bid_dns = np.linspace(0.0, max_charge * x_mode, steps + 1)
        for bid_up in bid_ups:
            p_up = dep_up * bid_up
            if p_up > max_discharge * y_mode + 1e-9:
                continue
            for bid_dn in bid_dns:
                p_dn = dep_dn * bid_dn
                rt_cap = max_charge * x_mode - p_dn
                if rt_cap < -1e-9:
                    continue
                for rt_buy in np.linspace(0.0, max(rt_cap, 0.0), steps + 1):
                    level = initial_level + p_dn + rt_buy - p_up
                    if level < min_level - 1e-9 or level > cap + 1e-9:
                        continue
                    r_cap = lam_up * acc_up * bid_up + lam_dn * acc_dn * bid_dn
                    if deployment_scaled_twice:
                        r_dep = lam_rt * dep_up * p_up + lam_rt * dep_dn * p_dn
                    else:
                        r_dep = lam_rt * (p_up + p_dn)
                    c_phi = lam_rt * rt_buy
                    c_deg = deg_rate * (p_up + p_dn)
                    best = max(best, r_cap + r_dep - c_phi - c_deg)
    return best


def var_layout(model: LinearModel) -> dict[str, int]:
    """Bijection from variable name to column index."""
    layout = {v.name: j for j, v in enumerate(model.variables)}
    if len(layout) != len(model.variables):
        raise ValueError("variable names are not unique")
    return layout


def value_of(model: LinearModel, x, name: str) -> float:
    """The entry of ``x`` at the model's variable called ``name``."""
    return float(x[var_layout(model)[name]])


def with_slacks(sf: StandardForm, x) -> np.ndarray:
    """The model's variable values ``x`` followed by the slack of each row."""
    ns = len(sf.lb) - len(sf.b)
    values = np.zeros(len(sf.lb))
    values[:ns] = x
    values[ns:] = sf.b - sf.matvec(values)
    return values


def constraint_violation(model: LinearModel, x) -> float:
    """Largest row/bound violation of an assignment (0 when feasible)."""
    sf = standard_form(read_model(model))
    values = with_slacks(sf, x)
    return float(np.max(np.maximum(sf.lb - values, values - sf.ub), initial=0.0))


@dataclass
class CertificateReport:
    """Residuals of an optimal solution; report-only, never raises."""

    primal_residual: float
    bound_residual: float
    dual_residual: float
    complementary_slackness: float
    duality_gap: float

    def within(self, tol: float = 1e-6) -> bool:
        return (
            self.primal_residual <= tol
            and self.bound_residual <= tol
            and self.dual_residual <= tol
            and self.complementary_slackness <= tol
            and self.duality_gap <= tol
        )


def check_certificates(model: LinearModel, sol: LpSolution) -> CertificateReport:
    """Recompute optimality residuals of a solution from first principles."""
    if sol.status != OPTIMAL:
        raise ValueError(f"certificates need an optimal solution, got {sol.status!r}")
    ns, m = model.n, model.m
    sign = 1.0 if model.sense == MIN else -1.0
    sf = standard_form(read_model(model))
    c = np.zeros(ns + m)
    for j, cval in model.objective.items():
        c[j] = sign * cval
    y = sign * np.asarray(sol.dual, dtype=float)

    values = with_slacks(sf, sol.primal)
    lo, hi = sf.lb, sf.ub

    viol = np.maximum(lo - values, values - hi)
    primal_residual = float(np.max(viol[ns:], initial=0.0))
    bound_residual = float(np.max(viol[:ns], initial=0.0))
    d = c - sf.rmatvec(y)

    interior = (values > lo + 1e-7) & (values < hi - 1e-7)
    dual_residual = float(np.max(np.abs(d[interior]), initial=0.0))

    cs = 0.0
    for j in range(len(values)):
        if d[j] > OPT_TOL and not math.isinf(lo[j]):
            cs = max(cs, d[j] * (values[j] - lo[j]))
        elif d[j] < -OPT_TOL and not math.isinf(hi[j]):
            cs = max(cs, -d[j] * (hi[j] - values[j]))

    d_eff = np.where(np.abs(d) <= 1e-7, 0.0, d)
    dual_obj = float(sf.b @ y) if m else 0.0
    for j in range(len(values)):
        if d_eff[j] > 0:
            dual_obj += d_eff[j] * lo[j]
        elif d_eff[j] < 0:
            dual_obj += d_eff[j] * hi[j]
    z = sign * sol.objective
    duality_gap = abs(z - dual_obj) / (1.0 + abs(z))

    return CertificateReport(primal_residual, bound_residual, dual_residual, cs, duality_gap)


def highs_objective(model: LinearModel, relax: bool = False) -> float:
    """The optimum from HiGHS (``scipy.optimize.milp``), of the LP relaxation when ``relax``."""
    sign = 1.0 if model.sense == MIN else -1.0
    c = np.zeros(model.n)
    for j, v in model.objective.items():
        c[j] = sign * v
    A = np.zeros((model.m, model.n))
    for i, con in enumerate(model.constraints):
        for j, v in con.coeffs.items():
            A[i, j] = v
    rhs = np.array([con.rhs for con in model.constraints])
    lo = np.where([con.sense == LE for con in model.constraints], -np.inf, rhs)
    hi = np.where([con.sense == GE for con in model.constraints], np.inf, rhs)
    res = milp(
        c,
        constraints=LinearConstraint(A, lo, hi),
        integrality=[0 if relax else int(v.binary) for v in model.variables],
        bounds=Bounds([v.lb for v in model.variables], [v.ub for v in model.variables]),
        options={"mip_rel_gap": 1e-9},
    )
    if res.status != 0:
        raise SolverError(f"HiGHS: {res.message}")
    return sign * res.fun


def enumerate_binaries(model: LinearModel, limit: int = 20) -> MilpSolution:
    """Exact optimum by solving the LP for every assignment of the binaries.

    Test oracle; refuses more than ``limit`` binaries.
    """
    binaries = model.binary_indices()
    free = [j for j in binaries if model.variables[j].ub - model.variables[j].lb > 0]
    if len(free) > limit:
        raise ValueError(f"{len(free)} free binaries exceed the enumeration limit {limit}")
    sign = 1.0 if model.sense == MIN else -1.0
    solver = SimplexSolver(model)
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])

    best_z = math.inf
    best_x = None
    warm = None
    count = 0
    for mask in range(1 << len(free)):
        clb, cub = lb.copy(), ub.copy()
        for pos, j in enumerate(free):
            v = float((mask >> pos) & 1)
            clb[j] = v
            cub[j] = v
        sol = solver.solve(lb=clb, ub=cub, warm=warm)
        count += 1
        if sol.status == UNBOUNDED:
            raise SolverError("relaxation is unbounded; binary models must be bounded")
        if sol.status in _LP_FAILED:
            raise SolverError(f"simplex stopped on assignment {mask}: {sol.status}")
        if sol.status != OPTIMAL:
            continue
        warm = sol.warm
        z = sign * sol.objective
        if z < best_z - 1e-12:
            best_z = z
            best_x = sol.primal.copy()
    if best_x is None:
        return MilpSolution(INFEASIBLE, None, math.nan, math.nan, math.inf, count)
    for j in binaries:
        best_x[j] = round(best_x[j])
    return MilpSolution(OPTIMAL_WITHIN_GAP, best_x, sign * best_z, sign * best_z, 0.0, count)


@dataclass
class AxiomReport:
    individual_rationality: bool
    pareto_optimality: bool
    affine_invariance: bool
    symmetry: bool | None
    tol: float
    details: dict = field(default_factory=dict)

    def all_hold(self) -> bool:
        checks = [self.individual_rationality, self.pareto_optimality, self.affine_invariance]
        if self.symmetry is not None:
            checks.append(self.symmetry)
        return all(checks)


def verify_axioms(
    result: BargainResult,
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    *,
    gap: float = DEFAULT_GAP,
    rescale: float = 3.0,
    symmetric: bool | None = None,
) -> AxiomReport:
    """Check the bargaining axioms on a computed result; report-only.

    ``symmetric`` enables the symmetry check and should only be set on
    problems built to be symmetric in the two players.
    """
    nbs = result.nbs
    tol = max(1e-6, gap * max(1.0, abs(nbs.f_a), abs(nbs.f_b)))
    details: dict = {"tol": tol}

    rational = nbs.f_a <= d.d1 + tol and nbs.f_b >= d.d2 - tol

    pareto = True
    if nbs.assignment is not None:
        probe = with_objective(p3.base, p3.obj_a, MIN)
        add_constraint(probe, p3.obj_b, GE, nbs.f_b - tol, "hold_storage_profit")
        probe_sol = solve_milp(probe, gap, incumbent_hint=nbs.assignment)
        if probe_sol.status == OPTIMAL_WITHIN_GAP:
            details["pareto_probe_f_a"] = probe_sol.objective
            pareto = probe_sol.objective >= nbs.f_a - tol

    scaled = BiObjectiveModel(
        p3.base, dict(p3.obj_a), {j: rescale * c for j, c in p3.obj_b.items()}
    )
    scaled_d = DisagreementPoints(d.d1, rescale * d.d2)
    scaled_result = solve_nbs(scaled, scaled_d, gap=gap)
    back_fb = scaled_result.nbs.f_b / rescale
    details["rescaled_point"] = (scaled_result.nbs.f_a, back_fb)
    affine = (
        abs(scaled_result.nbs.f_a - nbs.f_a) <= tol and abs(back_fb - nbs.f_b) <= tol
    )

    symmetry = None
    if symmetric:
        symmetry = abs(nbs.tau1 - nbs.tau2) <= tol
        details["taus"] = (nbs.tau1, nbs.tau2)

    return AxiomReport(rational, pareto, affine, symmetry, tol, details)


def minimize_a(p3: BiObjectiveModel) -> LinearModel:
    """The hub's cost minimized over the joint set."""
    return with_objective(p3.base, p3.obj_a, MIN)


def maximize_b(p3: BiObjectiveModel) -> LinearModel:
    """The storage operator's profit maximized over the joint set."""
    return with_objective(p3.base, p3.obj_b, MAX)


def fix_variables(model: LinearModel, names) -> None:
    """Pin the named variables to zero by collapsing their bounds; the
    ``Variable`` objects are replaced, not edited, since copies of a model
    share them (``with_objective``)."""
    layout = var_layout(model)
    for name in names:
        j = layout[name]
        model.variables[j] = replace(model.variables[j], lb=0.0, ub=0.0)


LEASE_VAR_PREFIXES = ("lease_da_in", "lease_rt_in", "lease_to_ev", "lease_to_rt", "stored_hub")


def joint_variable_names(model: LinearModel) -> list[str]:
    """Names of the hub-side leased-storage variables of a joint model."""
    return [v.name for v in model.variables if v.name.split("[")[0] in LEASE_VAR_PREFIXES]


@dataclass
class ObjectiveBreakdown:
    """Named money components recomputed from raw variable values."""

    r_cap: float = 0.0
    r_dep: float = 0.0
    c_phi: float = 0.0
    c_deg: float = 0.0
    hub_da_cost: float = 0.0
    hub_rt_cost: float = 0.0
    hub_resale: float = 0.0
    hub_storage_cost: float = 0.0
    hub_lease_fee: float = 0.0
    bss_lease_income: float = 0.0

    def hub_total(self) -> float:
        return (
            self.hub_da_cost
            + self.hub_rt_cost
            + self.hub_resale
            + self.hub_storage_cost
            + self.hub_lease_fee
        )

    def bss_total(self) -> float:
        return self.r_cap + self.r_dep - self.c_phi - self.c_deg + self.bss_lease_income


def objective_breakdown(
    model: LinearModel | BiObjectiveModel,
    solution,
    prices,
    *,
    bss=None,
    probs=None,
    joint=None,
) -> ObjectiveBreakdown:
    """Recompute every named money component from raw variable values.

    The model is P1 when only ``prices`` is given, P2 with ``bss`` and
    ``probs``, and P3 with ``joint`` as well.  ``solution`` is an assignment
    vector aligned with the model's variables.  Raises when the assignment
    is not feasible for the model within loose tolerances.
    """
    base = model.base if isinstance(model, BiObjectiveModel) else model
    x = np.asarray(solution, dtype=float)
    if x.shape != (base.n,):
        raise ValueError(f"solution has shape {x.shape}, expected ({base.n},)")
    scale = 1.0 + max((abs(val) for val in x), default=0.0)
    if constraint_violation(base, x) > 1e-5 * scale:
        raise ValueError("assignment is not feasible for the model")

    out = ObjectiveBreakdown()
    layout = var_layout(base)
    T = prices.horizon

    def val(name: str) -> float:
        return float(x[layout[name]])

    if bss is None or joint is not None:
        for t in range(T):
            out.hub_da_cost += prices.lambda_da[t] * val(f"da_to_ev[{t}]")
            out.hub_rt_cost += prices.lambda_rt[t] * val(f"rt_to_ev[{t}]")
            out.hub_resale += (prices.lambda_da[t] - prices.lambda_rt[t]) * val(f"da_to_rt[{t}]")
    if bss is not None:
        for k in range(bss.k):
            rate = marginal_degradation_rate(bss.compartments[k])
            for t in range(T):
                out.r_cap += prices.lambda_up[t] * probs.acc_up[t] * val(f"bid_up[{t},{k}]")
                out.r_cap += prices.lambda_dn[t] * probs.acc_dn[t] * val(f"bid_dn[{t},{k}]")
                out.r_dep += prices.lambda_rt[t] * probs.dep_up[t] * val(f"deploy_up[{t},{k}]")
                out.r_dep += prices.lambda_rt[t] * probs.dep_dn[t] * val(f"deploy_dn[{t},{k}]")
                out.c_phi += prices.lambda_rt[t] * val(f"rt_buy[{t},{k}]")
                out.c_deg += rate * (val(f"deploy_up[{t},{k}]") + val(f"deploy_dn[{t},{k}]"))
    if joint is not None:
        fee = joint.deg_rate * (1.0 + joint.lease_markup)
        income = joint.deg_rate * joint.lease_markup
        for k in range(bss.k):
            for t in range(T):
                out.hub_storage_cost += prices.lambda_da[t] * val(f"lease_da_in[{t},{k}]")
                out.hub_storage_cost += prices.lambda_rt[t] * val(f"lease_rt_in[{t},{k}]")
                out.hub_resale -= prices.lambda_rt[t] * val(f"lease_to_rt[{t},{k}]")
                discharged = val(f"lease_to_ev[{t},{k}]") + val(f"lease_to_rt[{t},{k}]")
                out.hub_lease_fee += fee * discharged
                out.bss_lease_income += income * discharged
    return out


def hourly_reports(bundle) -> dict[str, list[list]]:
    """Header and rows of each hourly report the study ``bundle`` writes,
    every value read from its solutions by variable name.

    The hub's reports show the last solution that has hub columns, and the
    storage reports every solution that has compartment columns.  P1 and P2
    lease nothing, so their leased flows and levels are zero.
    """
    scn = bundle.scenario
    T, K = scn.horizon, scn.bss.k
    solutions = []
    if bundle.p1 is not None:
        solutions.append(("p1", bundle.p1_model, bundle.p1.incumbent))
    if bundle.p2 is not None:
        solutions.append(("p2", bundle.p2_model, bundle.p2.incumbent))
    solutions += [
        (label, bundle.p3.base, point.assignment)
        for label, point in bundle.joint_points().items()
        if point.assignment is not None  # a bargain at the disagreement point has no solution
    ]

    def reader(label, model, x):
        def value(family, t, k=None):
            if label in ("p1", "p2") and family in LEASE_VAR_PREFIXES:
                return 0.0
            return value_of(model, x, f"{family}[{t}]" if k is None else f"{family}[{t},{k}]")

        def total(family, t):
            return sum(value(family, t, k) for k in range(K))

        return value, total

    reports = {}
    hub = [s for s in solutions if s[0] != "p2"]
    if hub:
        value, total = reader(*hub[-1])
        commitment = [["hour", "commitment", "to_storage", "to_ev", "resale"]]
        sources = [["hour", "from_da", "from_storage", "from_rt", "demand"]]
        for t in range(T):
            commitment.append([
                t, value("da_commit", t), total("lease_da_in", t), value("da_to_ev", t),
                value("da_to_rt", t),
            ])
            sources.append([
                t, value("da_to_ev", t), total("lease_to_ev", t), value("rt_to_ev", t),
                scn.demand.ev_load[t],
            ])
        reports["da_commitment.csv"] = commitment
        reports["charging_sources.csv"] = sources
    storage = [(label, *reader(label, model, x)) for label, model, x in solutions if label != "p1"]
    if storage:
        sides, owners = ("up", "dn"), ("hub", "bss")
        bids = [["hour"] + [f"{label}_bid_{side}" for label, *_ in storage for side in sides]]
        levels = [["hour", "compartment"]]
        levels[0] += [f"{label}_{owner}_level" for label, *_ in storage for owner in owners]
        for t in range(T):
            bids.append([t] + [total(f"bid_{side}", t) for *_, total in storage for side in sides])
            for k in range(K):
                levels.append([t, k] + [
                    value(f"stored_{owner}", t, k) for _, value, _ in storage for owner in owners
                ])
        reports["reserve_bids.csv"] = bids
        reports["bss_levels.csv"] = levels
    return reports


@dataclass
class DictBlock:
    """One block as :func:`dict_split_blocks` cuts it: its sub-model, with the
    full model's index of each of its columns."""

    label: int
    model: LinearModel
    cols: list[int]


def dict_split_blocks(model: LinearModel) -> tuple[list[DictBlock], list[int]]:
    """The blocks of ``model`` by rising label, and the rows that link two
    blocks, found by walking every row's dict of coefficients.

    A column's block is its ``Variable.block``, and a row's block is the one
    block all its columns share (-1 for a row without columns).  A block's
    sub-model holds copies of its columns and its rows in the full model's
    order, with the objective's terms on its columns and the full model's
    sense.
    """
    col_block = [v.block for v in model.variables]
    cols: dict[int, list[int]] = {}
    for j, b in enumerate(col_block):
        cols.setdefault(b, []).append(j)
    rows: dict[int, list[int]] = {b: [] for b in cols}
    linking = []
    for i, con in enumerate(model.constraints):
        labels = {col_block[j] for j in con.coeffs}
        if len(labels) > 1:
            linking.append(i)
        else:
            rows.setdefault(labels.pop() if labels else -1, []).append(i)
    blocks = []
    for b in sorted(rows):
        own = cols.get(b, [])
        local = {j: jj for jj, j in enumerate(own)}
        sub = LinearModel(
            [replace(model.variables[j]) for j in own],
            [
                Constraint({local[j]: c for j, c in con.coeffs.items()}, con.sense, con.rhs, con.name)
                for con in (model.constraints[i] for i in rows[b])
            ],
            {local[j]: c for j, c in model.objective.items() if j in local},
            model.sense,
        )
        blocks.append(DictBlock(b, sub, own))
    return blocks, linking


def dict_family_values(model: LinearModel, x) -> dict[str, np.ndarray]:
    """The values in ``x`` of each variable family of a built model, found by
    parsing every column name ``family[t]`` or ``family[t,k]``: a ``(T,)`` or
    ``(T, K)`` array per family, in the order the families first appear."""
    x = np.asarray(x, dtype=float)
    entries: dict[str, list[tuple[int, ...]]] = {}
    for j, v in enumerate(model.variables):
        family, _, label = v.name.rstrip("]").partition("[")
        entries.setdefault(family, []).append((j, *map(int, label.split(","))))
    out = {}
    for family, rows in entries.items():
        j, *key = np.array(rows).T
        out[family] = np.zeros(np.max(key, axis=1) + 1)
        out[family][tuple(key)] = x[j]
    return out


def dict_exclusivity_pairs(model: LinearModel) -> dict[int, list[int]]:
    """Partner map from rows ``x + y <= 1`` over exactly two binaries, row by row."""
    binaries = set(model.binary_indices())
    partners: dict[int, list[int]] = {}
    for con in model.constraints:
        if con.sense != LE or abs(con.rhs - 1.0) > 1e-12 or len(con.coeffs) != 2:
            continue
        (j1, c1), (j2, c2) = con.coeffs.items()
        if j1 in binaries and j2 in binaries and abs(c1 - 1.0) < 1e-12 and abs(c2 - 1.0) < 1e-12:
            partners.setdefault(j1, []).append(j2)
            partners.setdefault(j2, []).append(j1)
    return partners
