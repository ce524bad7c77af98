"""Disagreement points, Pareto frontier, total-cost-minimum, and Nash bargain,
chained by :func:`solve_study`, which the CLI and both sensitivity studies call.

The Nash product is maximized in two stages: a bound-sweep over the frontier
(each sweep point is one MILP that minimizes the hub objective subject to a
floor on the storage objective) picks the best integer mode pattern, then a
golden-section search over the floor refines the product with the mode
binaries pinned, where the product of the linear gain and the concave LP value
function is unimodal.  This replaces a cone-programming pass with exact
LP/MILP machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bnb import BUDGET_EXHAUSTED, INFEASIBLE, OPTIMAL_WITHIN_GAP, MilpSolution, solve_milp
from .linear import GE, LE, MAX, MIN, BiObjectiveModel, LinearModel, add_constraint, clone, with_objective
from .models import AS_WRITTEN, build_p1, build_p2, build_p3
from .scenario import ScenarioInputs
from .simplex import OPTIMAL, SimplexSolver

DEFAULT_GAP = 5e-4
DEFAULT_GRID_POINTS = 41
DEFAULT_REFINE_TOL = 1e-6
CELL_NODE_BUDGET = 1500  # nodes per frontier sweep point
GOALS = ("p1", "p2", "tcm", "nbs", "frontier")


@dataclass(frozen=True)
class DisagreementPoints:
    """Each side's payoff without cooperation: hub cost d1, storage profit d2."""

    d1: float
    d2: float


@dataclass
class ParetoPoint:
    f_a: float
    f_b: float
    assignment: np.ndarray | None
    tau1: float = math.nan
    tau2: float = math.nan
    product: float = math.nan
    theta: float | None = None

    def with_gains(self, d: DisagreementPoints) -> "ParetoPoint":
        tau1 = d.d1 - self.f_a
        tau2 = self.f_b - d.d2
        return replace(self, tau1=tau1, tau2=tau2, product=tau1 * tau2)


@dataclass
class BargainResult:
    nbs: ParetoPoint
    gamma: float
    frontier: list[ParetoPoint]
    tcm: ParetoPoint
    d: DisagreementPoints


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


@dataclass
class ResultsBundle:
    """Everything a report can draw on; unset pieces skip their files."""

    scenario: ScenarioInputs
    p1_model: LinearModel | None = None
    p1: MilpSolution | None = None
    p2_model: LinearModel | None = None
    p2: MilpSolution | None = None
    p3: BiObjectiveModel | None = None
    d: DisagreementPoints | None = None
    tcm: ParetoPoint | None = None
    bargain: BargainResult | None = None
    frontier: list[ParetoPoint] | None = None

    def joint_points(self):
        points = {}
        if self.tcm is not None:
            points["tcm"] = self.tcm
        elif self.bargain is not None:
            points["tcm"] = self.bargain.tcm
        if self.bargain is not None:
            points["nbs"] = self.bargain.nbs
        return points


class InfeasibleError(ValueError):
    """A model the study needs has no feasible point."""


class BudgetExhaustedError(RuntimeError):
    """A MILP the bargaining needs did not reach its gap within the node budget."""


def _require_solved(sol: MilpSolution, what: str) -> MilpSolution:
    if sol.status == INFEASIBLE:
        raise InfeasibleError(f"{what}: model is infeasible")
    if sol.status == BUDGET_EXHAUSTED:
        raise BudgetExhaustedError(f"{what}: node budget exhausted before reaching the gap target")
    return sol


def _point_from(p3: BiObjectiveModel, x: np.ndarray, d: DisagreementPoints | None, theta=None) -> ParetoPoint:
    point = ParetoPoint(p3.value_a(x), p3.value_b(x), x, theta=theta)
    return point.with_gains(d) if d is not None else point


def solve_tcm(
    p3: BiObjectiveModel,
    gap: float = DEFAULT_GAP,
    *,
    d: DisagreementPoints | None = None,
    node_budget: int = 200_000,
) -> ParetoPoint:
    """Minimize combined cost (hub cost minus storage profit) over the joint set."""
    combined = {j: c for j, c in p3.obj_a.items()}
    for j, c in p3.obj_b.items():
        combined[j] = combined.get(j, 0.0) - c
    model = with_objective(p3.base, combined, MIN)
    sol = _require_solved(solve_milp(model, gap, node_budget), "total-cost model")
    return _point_from(p3, sol.incumbent, d)


def _epsilon_model(p3: BiObjectiveModel, d: DisagreementPoints) -> LinearModel:
    """min f_a subject to f_a <= d1 and a floor f_b >= theta, which starts at d2."""
    model = with_objective(p3.base, p3.obj_a, MIN)
    add_constraint(model, p3.obj_a, LE, d.d1, "hub_gain_cut")
    add_constraint(model, p3.obj_b, GE, d.d2, "storage_floor")  # rhs swept over the grid
    return model


def _max_fb_model(p3: BiObjectiveModel, d: DisagreementPoints) -> LinearModel:
    model = with_objective(p3.base, p3.obj_b, MAX)
    add_constraint(model, p3.obj_a, LE, d.d1, "hub_gain_cut")
    return model


def _solve_sweep_cell(args):
    model, theta, gap, node_budget, hint = args
    model.constraints[-1].rhs = theta
    sol = solve_milp(model, gap, node_budget, incumbent_hint=hint)
    if sol.status != OPTIMAL_WITHIN_GAP:
        return theta, None
    return theta, sol.incumbent


def pareto_frontier(
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    grid_points: int = DEFAULT_GRID_POINTS,
    gap: float = DEFAULT_GAP,
    *,
    node_budget: int = 200_000,
    workers: int = 1,
) -> list[ParetoPoint]:
    """Sweep a uniform floor on the storage objective across the admissible
    range and keep the nondominated outcomes, sorted by rising storage profit.

    Each sweep point gets ``CELL_NODE_BUDGET`` nodes; points that cannot
    certify the gap within it are dropped from the frontier, which only
    thins the sampled set (every returned point is solved at ``gap``).
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    # the sweep only needs an achievable top for the floor grid, so the far
    # corner is located with cheap incumbents; every kept point is still
    # solved at `gap`
    free_top = solve_milp(
        with_objective(p3.base, p3.obj_b, MAX),
        max(gap, 0.02),
        min(200, node_budget),
    )
    top = solve_milp(
        _max_fb_model(p3, d),
        max(gap, 0.02),
        min(400, node_budget),
        incumbent_hint=free_top.incumbent,
    )
    if top.incumbent is None:
        return []
    fb_max = p3.value_b(top.incumbent)
    if fb_max < d.d2 - 1e-9 * max(1.0, abs(d.d2)):
        return []

    budget = min(node_budget, CELL_NODE_BUDGET)
    thetas = np.linspace(d.d2, fb_max, grid_points)
    model = _epsilon_model(p3, d)
    if workers > 1:
        # the top point satisfies every floor, so it seeds all cells
        jobs = [(clone(model), float(theta), gap, budget, top.incumbent) for theta in thetas]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_sweep_cell, jobs))
    else:
        # chain each point's mode pattern into the next solve as a seed
        results = []
        hint = top.incumbent
        for theta in thetas:
            theta, x = _solve_sweep_cell((model, float(theta), gap, budget, hint))
            if x is not None:
                hint = x
            results.append((theta, x))

    points = []
    for theta, x in results:
        if x is not None:
            points.append(_point_from(p3, x, d, theta=theta))
    return _nondominated(points)


def _nondominated(points: list[ParetoPoint], tol: float = 1e-6) -> list[ParetoPoint]:
    points = sorted(points, key=lambda p: (p.f_b, p.f_a))
    kept: list[ParetoPoint] = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            if q.f_a <= p.f_a + tol and q.f_b >= p.f_b - tol and (
                q.f_a < p.f_a - tol or q.f_b > p.f_b + tol
            ):
                dominated = True
                break
        if dominated:
            continue
        if kept and abs(kept[-1].f_a - p.f_a) <= tol and abs(kept[-1].f_b - p.f_b) <= tol:
            continue
        kept.append(p)
    return kept


def solve_nbs(
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    grid_points: int = DEFAULT_GRID_POINTS,
    refine_tol: float = DEFAULT_REFINE_TOL,
    gap: float = DEFAULT_GAP,
    *,
    node_budget: int = 200_000,
    workers: int = 1,
) -> BargainResult:
    """Maximize the product of cooperation gains over the joint feasible set."""
    if refine_tol <= 0:
        raise ValueError(f"refine_tol must be > 0, got {refine_tol}")
    frontier = pareto_frontier(
        p3, d, grid_points=grid_points, gap=gap, node_budget=node_budget, workers=workers
    )
    tcm = solve_tcm(p3, gap, d=d, node_budget=node_budget)

    candidates = [p for p in frontier]
    if tcm.tau1 >= -1e-9 and tcm.tau2 >= -1e-9:
        candidates.append(tcm)
    candidates = [p for p in candidates if p.product > 0.0]
    if not candidates:
        nbs = ParetoPoint(d.d1, d.d2, None, 0.0, 0.0, 0.0)  # no point gains for both
        return BargainResult(nbs, 0.0, frontier, tcm, d)

    best = max(candidates, key=lambda p: (p.product, -p.f_a))
    refined = _refine_with_fixed_modes(p3, d, best, refine_tol, tie_break_fa=best.f_a)
    if refined is not None and refined.product > best.product + 1e-15:
        best = refined
    gamma = math.sqrt(max(best.product, 0.0))
    return BargainResult(best, gamma, frontier, tcm, d)


def _refine_with_fixed_modes(
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    start: ParetoPoint,
    refine_tol: float,
    tie_break_fa: float,
) -> ParetoPoint | None:
    """Golden-section search on the storage floor with mode binaries pinned."""
    base = p3.base
    binaries = base.binary_indices()
    lb = np.array([v.lb for v in base.variables])
    ub = np.array([v.ub for v in base.variables])
    for j in binaries:
        v = round(float(start.assignment[j]))
        lb[j] = v
        ub[j] = v

    sweep = _epsilon_model(p3, d)
    solver = SimplexSolver(sweep)
    rhs = np.array([c.rhs for c in sweep.constraints])  # the floor row is last

    top = SimplexSolver(_max_fb_model(p3, d)).solve(lb=lb, ub=ub)
    if top.status != OPTIMAL:
        return None
    hi = p3.value_b(np.asarray(top.primal))
    lo = d.d2
    if hi <= lo:
        return None

    warm = None

    def product_at(theta: float):
        nonlocal warm
        rhs[-1] = theta
        sol = solver.solve(lb=lb, ub=ub, rhs=rhs, warm=warm)
        if sol.status != OPTIMAL:
            return None
        warm = sol.warm
        return _point_from(p3, np.asarray(sol.primal), d, theta=theta)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - phi * (b - a)
    c2 = a + phi * (b - a)
    p1 = product_at(c1)
    p2 = product_at(c2)
    best = start
    span = hi - lo
    for _ in range(200):
        if (b - a) <= refine_tol * max(1.0, span):
            break
        v1 = p1.product if p1 is not None else -math.inf
        v2 = p2.product if p2 is not None else -math.inf
        if v1 >= v2:
            b, c2, p2 = c2, c1, p1
            c1 = b - phi * (b - a)
            p1 = product_at(c1)
        else:
            a, c1, p1 = c1, c2, p2
            c2 = a + phi * (b - a)
            p2 = product_at(c2)
    for candidate in (p1, p2):
        if candidate is None:
            continue
        if candidate.product > best.product or (
            abs(candidate.product - best.product) <= 1e-12 and candidate.f_a < tie_break_fa
        ):
            best = candidate
    return best


def verify_axioms(
    result: BargainResult,
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    *,
    gap: float = DEFAULT_GAP,
    grid_points: int = DEFAULT_GRID_POINTS,
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
        clone(p3.base), dict(p3.obj_a), {j: rescale * c for j, c in p3.obj_b.items()}
    )
    scaled_d = DisagreementPoints(d.d1, rescale * d.d2)
    scaled_result = solve_nbs(scaled, scaled_d, grid_points, gap=gap)
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


def solve_study(
    scn: ScenarioInputs,
    goal: str,
    *,
    deployment_revenue: str = AS_WRITTEN,
    gap: float = DEFAULT_GAP,
    node_budget: int = 200_000,
    grid_points: int = DEFAULT_GRID_POINTS,
    workers: int = 1,
) -> ResultsBundle:
    """Solve one of :data:`GOALS` on a scenario.

    ``"p1"`` and ``"p2"`` solve one independent model.  The joint goals
    ``"tcm"``, ``"nbs"`` and ``"frontier"`` solve P1 and P2 once, take their
    optima as the disagreement point, then solve P3.  A model the goal needs
    raises :class:`InfeasibleError` when infeasible and
    :class:`BudgetExhaustedError` when it misses ``gap`` within ``node_budget``.
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}, got {goal!r}")
    joint = goal not in ("p1", "p2")
    if joint:
        scn.require_joint()
    bundle = ResultsBundle(scn)
    if goal != "p2":
        bundle.p1_model = build_p1(scn.hub, scn.prices, scn.demand)
        bundle.p1 = _require_solved(solve_milp(bundle.p1_model, gap, node_budget), "hub model")
    if goal != "p1":
        bundle.p2_model = build_p2(scn.bss, scn.prices, scn.probabilities, deployment_revenue)
        bundle.p2 = _require_solved(solve_milp(bundle.p2_model, gap, node_budget), "storage model")
    if not joint:
        return bundle

    p3 = bundle.p3 = build_p3(
        scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint, deployment_revenue
    )
    d = bundle.d = DisagreementPoints(bundle.p1.objective, bundle.p2.objective)
    if goal == "tcm":
        bundle.tcm = solve_tcm(p3, gap, d=d, node_budget=node_budget)
    elif goal == "nbs":
        bundle.bargain = solve_nbs(
            p3, d, grid_points, gap=gap, node_budget=node_budget, workers=workers
        )
    else:
        bundle.frontier = pareto_frontier(
            p3, d, grid_points, gap, node_budget=node_budget, workers=workers
        )
    return bundle
