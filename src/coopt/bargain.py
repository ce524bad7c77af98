"""Disagreement points, Pareto frontier, total-cost-minimum, and Nash bargain,
chained by :func:`solve_study`, which the CLI and both sensitivity studies call.

The Nash bargain is the paper's second-order cone problem: maximize gamma
subject to gamma^2 <= tau1 tau2, where tau1 = d1 - f_a and tau2 = f_b - d2
are the two gains.  The geometric mean is concave and positively homogeneous,
so for every slope t > 0 the tangent gamma <= (t tau1 + tau2 / t) / 2 holds at
every point, and it is tight where tau2 / tau1 = t^2 (Kelley 1960; Ben-Tal &
Nemirovski 2001).  :func:`solve_nbs` solves "max gamma" over the joint set
plus a column for each objective, f_a <= d1 and f_b >= d2, set by one row
each, the gamma column, and one tangent row of three nonzeros per slope
(:func:`_nash_model`), starting from the slopes 1/2, 1 and 2, as one
branch-and-bound that adds its tangent rows as it goes (Quesada & Grossmann
1992):

- on a model with binaries, while the root LP's gamma exceeds the geometric
  mean of its own gains by more than the tree's gap, the tangent at those
  gains' slope cuts it off, so that branching starts from a tighter bound;
- the tree runs to a quarter of the gap within twice ``CELL_NODE_BUDGET``
  nodes and is seeded with the total-cost minimum's mode pattern;
- each integral candidate that beats the incumbent is polished with its
  binaries pinned, to the exact bargain of that mode pattern
  (:func:`_polish`); the polished point, with gamma its true geometric mean,
  is the tree's incumbent when it is the best, and the tangent at its slope
  t = sqrt(tau2 / tau1) joins the tree's rows.  A point at a corner, where
  one gain is zero, has no such slope, and the next cut there doubles the
  steepest slope (tau1 = 0) or halves the flattest (tau2 = 0), so bargains
  whose gain ratio lies outside the starting bracket are reached;
- no cut is added for a slope within ``SLOPE_TOL`` of an existing cut's, nor
  past ``MAX_CUTS`` at the root and as many more in the tree;
- every tangent holds at every point, so the tree's bound on gamma, squared,
  bounds the Nash product, also when the tree runs out of nodes.

A tree without a point, for want of nodes, raises
:class:`BudgetExhaustedError`, and a bound below the best product by more
than rounding raises :class:`~coopt.bnb.SolverError`.
The epsilon-constraint sweep :func:`pareto_frontier` serves the ``frontier``
command only.

P2 has no row between two compartments, so :func:`solve_study` solves it
as one MILP per compartment, the compartments sharing the node budget, and
solves equal compartments once (:func:`_solve_by_block`): P2 is read once
into arrays (:func:`~coopt.linear.read_model`) and split by index, each
compartment is keyed by the bytes of its arrays, and only the distinct ones
are built as models.  The blocks' incumbents and root bases, scattered back
by index, are P2's.

P3 links the hub to the compartments only through the rows ``commit_split``
and ``demand_balance``.  :func:`solve_tcm` prices those rows at the duals of
the total-cost model's root LP and drops them, which leaves the hub and the
compartments apart, each distinct one solved once; the Lagrangian bound that
gives (Geoffrion 1974) certifies the priced mode pattern's own LP optimum,
and a branch-and-bound on P3 runs only when it does not.

P3 holds P1's and P2's columns and rows, so the disagreement solves' root
bases together are a basis of P3.  :func:`solve_study` carries them onto P3
once, as the status of each of P3's columns, and the TCM root, the Nash
model's first root LP and the first polish's first LP start from those
statuses: the Nash model takes them by name, with its extra columns and
rows, and the gain model, P3 with two rows appended, as they are, the
simplex making the two rows' slacks basic.  Every polish solves the same
gain model with other binaries pinned and another weight, so each later
polish starts from the statuses the one before it ended on.  Each priced
compartment's root starts from its own columns' and rows' share of the
carried basis, P2's root of that compartment with the lease columns and
rows added; the priced hub has lost the linking rows, so its share is no
basis, and it starts cold.  A block of P2, or a priced one, with
no such share starts from the root basis of the block solved just before it
when the two have the same pattern (:func:`_solve_by_block`).  So P1's root
and the first compartment's of P2 start cold, and so do the frontier's
cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bnb import (
    BUDGET_EXHAUSTED,
    DEFAULT_GAP,
    DEFAULT_NODE_BUDGET,
    INFEASIBLE,
    OPTIMAL_WITHIN_GAP,
    MilpSolution,
    SolverError,
    _relative_gap,
    solve_milp,
)
from .linear import (
    EQ,
    GE,
    LE,
    MAX,
    MIN,
    BiObjectiveModel,
    Block,
    Constraint,
    LinearModel,
    ModelArrays,
    Variable,
    add_constraint,
    read_model,
    split_blocks,
    with_objective,
)
from .models import build_p1, build_p2, build_p3
from .scenario import ScenarioInputs
from .simplex import _BASIC, OPTIMAL, LpSolution, SimplexSolver, carry_basis

DEFAULT_GRID_POINTS = 41
CELL_NODE_BUDGET = 1500  # nodes per frontier sweep point; the Nash tree gets twice that
START_SLOPES = (0.5, 1.0, 2.0)  # tau2 / tau1 = t^2: both gains are money, so t has no unit
MAX_CUTS = 16  # a guard on the tangent rows added at the root, and again on those the tree adds
SLOPE_TOL = 1e-6  # a slope this close to a cut's is that cut
POLISH_ROUNDS = 12  # a guard; a polish usually ends after one or two LPs
POLISH_TOL = 1e-12  # relative gain on the weighted sum that counts as none
BOUND_ROUNDING = 1e-9  # relative shortfall of the bound below a found product put down to rounding
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
    """The Nash bargain ``nbs`` with ``gamma`` = sqrt(product) and ``bound``, an
    upper bound on the Nash product over the joint set, ``gap`` above the
    product in relative terms; ``frontier`` holds the nondominated ones of the
    points the tree polished, and ``cuts`` the slopes of the tangent cuts, in
    the order they were added."""

    nbs: ParetoPoint
    gamma: float
    frontier: list[ParetoPoint]
    tcm: ParetoPoint
    d: DisagreementPoints
    bound: float
    cuts: tuple[float, ...]
    gap: float


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
    frontier_dropped: list[tuple[float, str]] | None = None

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


def _block_model(model: LinearModel, arrays: ModelArrays, block: Block) -> LinearModel:
    """The sub-model of ``block`` of ``model``, read as ``arrays``: its
    columns' ``Variable`` objects, its rows over their places among its
    columns, and the objective's terms on its columns, with ``model``'s sense."""
    cols = np.searchsorted(block.cols, arrays.col[block.entries]).tolist()
    vals = arrays.val[block.entries].tolist()
    ends = np.cumsum(arrays.count[block.rows]).tolist()
    constraints, begin = [], 0
    for i, end in zip(block.rows.tolist(), ends):
        con = model.constraints[i]
        coeffs = dict(zip(cols[begin:end], vals[begin:end]))
        constraints.append(Constraint(coeffs, con.sense, con.rhs, con.name))
        begin = end
    own = block.cols.tolist()
    objective = {jj: model.objective[j] for jj, j in enumerate(own) if j in model.objective}
    return LinearModel([model.variables[j] for j in own], constraints, objective, model.sense)


def _solve_by_block(
    model: LinearModel,
    gap: float,
    node_budget: int,
    warm: np.ndarray | None = None,
) -> MilpSolution:
    """``model``, a MILP none of whose rows links two blocks, as one MILP per
    block (:func:`~coopt.linear.split_blocks`), each distinct block solved once.

    A block's key is the bytes of its arrays: its columns' bounds, binary
    flags and objective terms, and its rows' senses, right-hand sides and
    entries, each entry's place among the block's columns and value, row by
    row.  Two blocks with equal keys have the same solutions, column for
    column, and only the first is built as a model and solved.  Keys compare
    bytes: a missing objective term keys as an explicit ``0.0``, while
    ``-0.0`` and ``0.0`` key apart, and so do two rows that hold the same
    terms in another order; such blocks are solved apart.

    The block solves share ``node_budget``.  The incumbent, and each block's
    root statuses, which together are those of a basis of ``model``, are
    scattered back by index into ``model``'s columns and rows.  The
    objective and bound are the sums over the blocks, and the gap and status
    are those of the sums.  Each block meets ``gap`` on its own objective,
    which the sums can miss when a block's objective is below 1 in absolute
    value or the blocks' objectives differ in sign; the blocks are then
    solved once more, each to a gap at which their sums meet ``gap``.  An
    infeasible block makes ``model`` infeasible, and a block without an
    incumbent leaves it without one.

    Each block's root LP starts from the statuses of its columns and rows in
    ``warm``, statuses of ``model``, gathered by the index the roots are
    scattered by, when they hold as many basic entries as the block has rows.
    A block whose pattern, its key without the values (bounds, objective,
    coefficients and right-hand sides), is that of the block solved just
    before it has that block's incumbent as its first solve's seed and,
    without such a slice, that block's root basis as its root start.  Any
    other block starts cold.

    Besides P2, it solves the total-cost model with the rows linking the hub
    to the compartments priced out (:func:`_priced`); there the sums' bound
    is the Lagrangian bound less a constant.
    """
    arrays = read_model(model)
    blocks, linking = split_blocks(arrays)
    if linking:
        raise ValueError(f"row {model.constraints[linking[0]].name} links two blocks")
    n = model.n
    cost = np.zeros(n)
    cost[arrays.obj_col] = arrays.obj_val
    keys, distinct, carried = [], {}, {}
    for block in blocks:
        cols, own, entries = block.cols, block.rows, block.entries
        pattern = (
            arrays.binary[cols].tobytes(), arrays.sense[own].tobytes(),
            arrays.count[own].tobytes(),
            np.searchsorted(cols, arrays.col[entries]).tobytes(),  # the entries' places in cols
        )
        values = (
            arrays.lb[cols].tobytes(), arrays.ub[cols].tobytes(), cost[cols].tobytes(),
            arrays.rhs[own].tobytes(), arrays.val[entries].tobytes(),
        )
        key = (pattern, values)
        keys.append(key)
        if key not in distinct:
            distinct[key] = _block_model(model, arrays, block)
            share = None if warm is None else warm[np.concatenate([cols, n + own])]
            basic = share is not None and np.count_nonzero(share == _BASIC) == own.size
            carried[key] = share if basic else None
    nodes = 0
    block_gap, hints = gap, {}
    for _ in range(2):
        sols, last = {}, None
        for key, block_model in distinct.items():
            start, hint = carried[key], hints.get(key)
            if last is not None and last[0] == key[0]:  # the same pattern
                start = sols[last].root if start is None else start
                hint = hints.get(key, sols[last].incumbent)
            sol = solve_milp(
                block_model, block_gap, max(0, node_budget - nodes), incumbent_hint=hint,
                warm=start,
            )
            nodes += sol.nodes
            if sol.status == INFEASIBLE:
                return MilpSolution(INFEASIBLE, None, math.nan, math.nan, math.inf, nodes)
            sols[key], last = sol, key
        per_block = [sols[key] for key in keys]
        objective = sum(sol.objective for sol in per_block)
        bound = sum(sol.bound for sol in per_block)
        found = all(sol.incumbent is not None for sol in per_block)
        within = found and _relative_gap(objective, bound) <= gap
        if within or any(sol.status == BUDGET_EXHAUSTED for sol in per_block):
            break
        # seeded with its incumbent, a block's next one lies between that and its bound, so
        # its objective is at most its term of `weight` and the sums' at least `floor`
        floor = min(abs(objective), abs(bound)) if objective * bound > 0.0 else 0.0
        weight = sum(max(1.0, abs(sol.objective), abs(sol.bound)) for sol in per_block)
        block_gap = gap * max(1.0, floor) / weight
        hints = {key: sol.incumbent for key, sol in sols.items()}

    root = None
    if all(sol.root is not None for sol in per_block):
        root = np.empty(n + model.m, dtype=np.int8)
        for block, sol in zip(blocks, per_block):
            root[np.concatenate([block.cols, n + block.rows])] = sol.root  # columns, slacks
    if not found:
        return MilpSolution(BUDGET_EXHAUSTED, None, math.nan, bound, math.inf, nodes, root)
    x = np.empty(n)
    for block, sol in zip(blocks, per_block):
        x[block.cols] = sol.incumbent
    status = OPTIMAL_WITHIN_GAP if within else BUDGET_EXHAUSTED
    return MilpSolution(status, x, objective, bound, _relative_gap(objective, bound), nodes, root)


def _point_from(
    p3: BiObjectiveModel, x: np.ndarray, d: DisagreementPoints, theta=None
) -> ParetoPoint:
    return ParetoPoint(p3.value_a(x), p3.value_b(x), x, theta=theta).with_gains(d)


def _priced(
    lp: SimplexSolver,
    root: LpSolution,
    gap: float,
    node_budget: int,
    warm: np.ndarray | None = None,
) -> tuple[MilpSolution, float]:
    """The Lagrangian relaxation of ``lp``'s model at the duals pi of ``root``,
    its optimal LP solution: the rows that link two blocks, found in the
    arrays ``lp`` read, are dropped and priced into the objective, which
    becomes c - pi A, and :func:`_solve_by_block` solves the rest.  Returns
    that solve and pi b plus its bound, which bounds the model's optimum for
    duals of the right sign for their rows' senses, as an LP optimum's are,
    also when a block ran out of nodes (Geoffrion 1974).

    ``gap`` is relative to the model's objective, near the LP optimum z, while
    the blocks' objectives sum to near z - pi b, which can be far larger; so
    the blocks run at ``gap`` max(1, |z|) / max(1, |z - pi b|), a slack on
    their sum of ``gap`` max(1, |z|).

    Each block's root LP starts from its slice of ``warm``, the statuses of
    the model's columns and rows, less the dropped rows', when that slice is
    a basis of the block (:func:`_solve_by_block`).
    """
    model = lp.model
    linking = split_blocks(lp.arrays)[1]
    objective = dict(model.objective)
    constant = 0.0
    for i in linking:
        con, y = model.constraints[i], float(root.dual[i])
        constant += y * con.rhs
        for j, a in con.coeffs.items():
            objective[j] = objective.get(j, 0.0) - y * a
    dropped = set(linking)
    rows = [con for i, con in enumerate(model.constraints) if i not in dropped]
    priced = LinearModel(model.variables, rows, objective, model.sense)
    z = root.objective
    sol = _solve_by_block(
        priced, gap * max(1.0, abs(z)) / max(1.0, abs(z - constant)), node_budget,
        None if warm is None else np.delete(warm, lp.ns + np.asarray(linking, dtype=np.intp)),
    )
    return sol, constant + sol.bound


def _pinned(lp: SimplexSolver, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column bounds of ``lp``'s model with its binaries pinned to their values in ``x``."""
    binary = lp.arrays.binary
    lb, ub = lp.arrays.lb.copy(), lp.arrays.ub.copy()
    lb[binary] = ub[binary] = x[binary]
    return lb, ub


def solve_tcm(
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    gap: float = DEFAULT_GAP,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    warm: np.ndarray | None = None,
) -> ParetoPoint:
    """Minimize combined cost (hub cost minus storage profit) over the joint set,
    as the maximum of its negation, the weighted sum at weight 1.

    The root LP starts from ``warm``, statuses of ``p3.base``.  Its duals on
    the rows that link the hub to the compartments price the lease flows
    (:func:`_priced`): the hub and each distinct compartment are then solved
    once, to a quarter of the gap, each compartment's root LP from its share
    of ``warm``, and the Lagrangian bound they give is valid at a node
    budget too.  P3 with its binaries pinned to the priced mode pattern is
    one LP from the root's basis; a point within ``gap`` of the bound is
    returned as certified.  Otherwise a branch-and-bound on P3,
    seeded with that pattern, gets the nodes the pricing left of
    ``node_budget``; so does the whole search when the root LP has no
    optimum.  A block without a feasible point makes P3 infeasible.
    """
    model = with_objective(p3.base, _weighted(p3, 1.0), MAX)
    lp = SimplexSolver(model)
    root = lp.solve(warm=warm)
    hint, nodes = None, 0
    if root.status == OPTIMAL:
        priced, bound = _priced(lp, root, gap / 4, node_budget, warm)
        if priced.status == INFEASIBLE:  # each block's rows are rows of P3
            raise InfeasibleError("total-cost model: model is infeasible")
        nodes = priced.nodes
        if priced.incumbent is not None:
            hint = priced.incumbent
            lb, ub = _pinned(lp, hint)
            fixed = lp.solve(lb=lb, ub=ub, warm=root.warm)
            if fixed.status == OPTIMAL and _relative_gap(fixed.objective, bound) <= gap:
                return _point_from(p3, fixed.primal, d)
        warm = root.warm
    sol = solve_milp(model, gap, max(0, node_budget - nodes), incumbent_hint=hint, warm=warm)
    return _point_from(p3, _require_solved(sol, "total-cost model").incumbent, d)


def _gain_model(p3: BiObjectiveModel, d: DisagreementPoints, objective, sense) -> LinearModel:
    """``objective`` over the joint set where both sides gain: f_a <= d1 and
    f_b >= d2, the last row, whose floor the frontier sweeps."""
    model = with_objective(p3.base, objective, sense)
    add_constraint(model, p3.obj_a, LE, d.d1, "hub_gain_cut")
    add_constraint(model, p3.obj_b, GE, d.d2, "storage_floor")
    return model


def pareto_frontier(
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    grid_points: int = DEFAULT_GRID_POINTS,
    gap: float = DEFAULT_GAP,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[list[ParetoPoint], list[tuple[float, str]]]:
    """Sweep a uniform floor on the storage objective across the admissible
    range and keep the nondominated outcomes, sorted by rising storage profit.

    Each sweep point gets ``CELL_NODE_BUDGET`` nodes; points that cannot
    certify the gap within it, or whose root LP the simplex cannot solve, are
    dropped from the frontier, which only thins the sampled set (every
    returned point is solved at ``gap``).  Returns the frontier and each
    dropped floor with its reason: the MILP's status or the solver's error.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    # the sweep only needs an achievable top for the floor grid, so the far
    # corner, with the hub's gain row, is located with a cheap incumbent;
    # every kept point is still solved at `gap`
    top_model = with_objective(p3.base, p3.obj_b, MAX)
    add_constraint(top_model, p3.obj_a, LE, d.d1, "hub_gain_cut")
    top = solve_milp(top_model, max(gap, 0.02), min(400, node_budget))
    if top.incumbent is None:
        return [], []
    fb_max = p3.value_b(top.incumbent)
    if fb_max < d.d2 - 1e-9 * max(1.0, abs(d.d2)):
        return [], []

    budget = min(node_budget, CELL_NODE_BUDGET)
    model = _gain_model(p3, d, p3.obj_a, MIN)
    # chain each point's mode pattern into the next solve as a seed
    points, dropped = [], []
    hint = top.incumbent
    for theta in np.linspace(d.d2, fb_max, grid_points):
        theta = float(theta)
        model.constraints[-1].rhs = theta
        try:
            sol = solve_milp(model, gap, budget, incumbent_hint=hint)
        except SolverError as exc:
            dropped.append((theta, str(exc)))
            continue
        if sol.status == OPTIMAL_WITHIN_GAP:
            hint = sol.incumbent
            points.append(_point_from(p3, hint, d, theta=theta))
        else:
            dropped.append((theta, sol.status))
    return _nondominated(points), dropped


def _nondominated(points: list[ParetoPoint]) -> list[ParetoPoint]:
    tol = 1e-6  # an objective difference this small neither dominates nor tells two points apart
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


def _weighted(p3: BiObjectiveModel, beta: float) -> dict[int, float]:
    """Coefficients of beta * tau1 + tau2 up to a constant: f_b - beta * f_a."""
    coeffs = {j: -beta * c for j, c in p3.obj_a.items()}
    for j, c in p3.obj_b.items():
        coeffs[j] = coeffs.get(j, 0.0) + c
    return coeffs


def _tangent_cut(d: DisagreementPoints, gamma: int, t: float) -> Constraint:
    """gamma <= (t tau1 + tau2 / t) / 2, tight where tau2 / tau1 = t^2, on the
    columns f_a and f_b just before ``gamma`` (:func:`_nash_model`): three
    nonzeros, 2 gamma + t f_a - f_b / t <= t d1 - d2 / t."""
    coeffs = {gamma - 2: t, gamma - 1: -1.0 / t, gamma: 2.0}
    return Constraint(coeffs, LE, t * d.d1 - d.d2 / t, f"nash_tangent[{t!r}]")


def _nash_model(p3: BiObjectiveModel, d: DisagreementPoints, slopes) -> LinearModel:
    """"max gamma" over the joint set and the tangents at ``slopes``.

    The two objectives are columns of their own, ``nash_fa`` in (-inf, d1]
    and ``nash_fb`` in [d2, inf), set by the rows obj_a x - f_a = 0 and
    obj_b x - f_b = 0, so that a tangent row has three nonzeros
    (:func:`_tangent_cut`).  ``nash_gamma`` is the last column; the joint
    set's columns keep their places."""
    model = with_objective(p3.base, {}, MAX)
    fa, fb, gamma = model.n, model.n + 1, model.n + 2
    model.variables += [
        Variable("nash_fa", -math.inf, d.d1),
        Variable("nash_fb", d.d2, math.inf),
        Variable("nash_gamma", 0.0, math.inf),
    ]
    model.objective[gamma] = 1.0
    add_constraint(model, {**p3.obj_a, fa: -1.0}, EQ, 0.0, "nash_fa")
    add_constraint(model, {**p3.obj_b, fb: -1.0}, EQ, 0.0, "nash_fb")
    model.constraints += [_tangent_cut(d, gamma, t) for t in slopes]
    return model


def _chord_best(p3, d, a: ParetoPoint, b: ParetoPoint) -> ParetoPoint:
    """The point of largest Nash product on the segment from ``a`` to ``b``."""
    d1, d2 = b.tau1 - a.tau1, b.tau2 - a.tau2
    s = 1.0 if b.product > a.product else 0.0
    if d1 * d2 < 0.0:  # the product is a concave quadratic along the segment
        s = min(1.0, max(0.0, -(a.tau1 * d2 + a.tau2 * d1) / (2.0 * d1 * d2)))
    if s in (0.0, 1.0):
        return b if s else a
    return _point_from(p3, (1.0 - s) * a.assignment + s * b.assignment, d)


def _polish(
    p3, d, start: ParetoPoint, warm: np.ndarray | None
) -> tuple[ParetoPoint, np.ndarray | None]:
    """The Nash bargain over the joint set with the binaries of ``start`` pinned,
    and the statuses the last LP solved ended on, ``warm`` when none was.

    Each round maximizes beta * tau1 + tau2 at the best point's own ratio
    beta = tau2 / tau1, the normal of the product's level curve there.  No
    gain on that weighted sum proves the point optimal for its mode pattern;
    otherwise the best point moves to the product's maximum on the segment to
    the new vertex, or on the edge between the last two vertices.  A corner
    start, where one gain is zero, is returned as it is: the tree's
    candidate is a vertex optimal for its pinned binaries, and at a corner only
    one cut binds, so the weighted sum at that cut's t^2 cannot gain.  The
    first LP starts from ``warm``, the statuses of the gain model's columns
    or of P3's, whose two missing rows start with their slacks basic, and
    each later one from the LP before it.
    """
    best, last = start, None
    for _ in range(POLISH_ROUNDS):
        if best.tau1 <= 0.0 or best.tau2 <= 0.0:
            break
        beta = best.tau2 / best.tau1
        lp = SimplexSolver(_gain_model(p3, d, _weighted(p3, beta), MAX))
        lb, ub = _pinned(lp, start.assignment)
        sol = lp.solve(lb=lb, ub=ub, warm=warm)
        if sol.status != OPTIMAL:
            break
        warm = sol.warm
        vertex = _point_from(p3, sol.primal, d)
        at_best = beta * best.tau1 + best.tau2
        if beta * vertex.tau1 + vertex.tau2 <= at_best + POLISH_TOL * max(1.0, abs(at_best)):
            break
        moved = max(
            (_chord_best(p3, d, a, vertex) for a in (best, last) if a is not None),
            key=lambda p: p.product,
        )
        last = vertex
        if moved.product <= best.product:
            break
        best = moved
    return best, warm


def solve_nbs(
    p3: BiObjectiveModel,
    d: DisagreementPoints,
    gap: float = DEFAULT_GAP,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    warm: np.ndarray | None = None,
) -> BargainResult:
    """Maximize the Nash product (d1 - f_a)(f_b - d2) over the joint set by
    tangent cuts on gamma^2 <= tau1 tau2, cut at the root LP and then added
    inside one branch-and-bound on :func:`_nash_model`, with a bound on the
    product (module docstring).  ``warm``, the statuses of ``p3.base``'s
    columns, is where the TCM root, the first root LP and the first
    polish's first LP start; each later polish starts from the statuses the
    one before it ended on."""
    tcm = solve_tcm(p3, d, gap, node_budget=node_budget, warm=warm)
    slopes = list(START_SLOPES)
    model = _nash_model(p3, d, slopes)
    n, gamma = p3.base.n, model.n - 1
    visited: list[ParetoPoint] = []
    cap = len(slopes) + MAX_CUTS  # on the root's cuts, then on the tree's

    def tangent(point: ParetoPoint) -> list[Constraint]:
        """The cut at ``point``'s slope, or none when it has no slope, repeats a
        cut's or would pass the cap."""
        if point.tau1 <= 0.0 and point.tau2 <= 0.0:
            return []
        if point.tau1 <= 0.0:  # the steepest cut still favours the storage side's corner
            t = 2.0 * max(slopes)
        elif point.tau2 <= 0.0:  # and the flattest the hub's
            t = min(slopes) / 2.0
        else:
            t = math.sqrt(point.tau2 / point.tau1)
        if len(slopes) >= cap or any(math.isclose(t, s, rel_tol=SLOPE_TOL) for s in slopes):
            return []
        slopes.append(t)
        return [_tangent_cut(d, gamma, t)]

    def separate(x: np.ndarray) -> tuple[np.ndarray, float, list[Constraint]]:
        nonlocal warm  # each polish starts where the one before it ended
        point, warm = _polish(p3, d, _point_from(p3, x[:n], d), warm)
        visited.append(point)
        true_gamma = math.sqrt(max(point.product, 0.0))
        x = np.append(point.assignment, (point.f_a, point.f_b, true_gamma))
        return x, true_gamma, tangent(point)

    # cut the root LP's point off while its gamma overstates its gains' geometric mean
    start = None if warm is None else carry_basis(model, (p3.base, warm))
    while p3.base.binary_indices():  # without binaries, the tree's root is all it solves
        root = SimplexSolver(model).solve(warm=start)
        if root.status != OPTIMAL:
            break
        start = root.warm
        point = _point_from(p3, root.primal[:n], d)
        if root.objective <= (1.0 + gap / 4) * math.sqrt(max(point.product, 0.0)):
            break
        rows = tangent(point)
        if not rows:
            break
        model.constraints += rows  # the next solve makes their slacks basic
    cap = len(slopes) + MAX_CUTS

    sol = solve_milp(
        model, gap / 4, min(node_budget, 2 * CELL_NODE_BUDGET), incumbent_hint=tcm.assignment,
        warm=start, separate=separate,
    )
    if sol.incumbent is None:
        if sol.status == BUDGET_EXHAUSTED:
            raise BudgetExhaustedError(
                "Nash bargaining model: node budget exhausted before finding a point"
            )
        bound = 0.0  # an infeasible model: no point gains for both sides
    else:
        bound = sol.bound

    gains = [tcm] if tcm.tau1 >= 0.0 and tcm.tau2 >= 0.0 else []
    best = max(gains + visited, key=lambda p: p.product, default=None)
    nbs = best
    if best is None or best.product <= 0.0:
        nbs = ParetoPoint(d.d1, d.d2, None, 0.0, 0.0, 0.0)  # no point gains for both
    bound = max(bound, 0.0) ** 2
    if bound < nbs.product:  # every found point is feasible in the cut model
        if nbs.product - bound > BOUND_ROUNDING * max(1.0, nbs.product):
            raise SolverError(f"Nash bound {bound!r} is below the found product {nbs.product!r}")
        bound = nbs.product
    return BargainResult(
        nbs, math.sqrt(nbs.product), _nondominated(visited), tcm, d, bound, tuple(slopes),
        _relative_gap(nbs.product, bound),
    )


def solve_study(
    scn: ScenarioInputs,
    goal: str,
    *,
    gap: float = DEFAULT_GAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> ResultsBundle:
    """Solve one of :data:`GOALS` on a scenario.

    ``"p1"`` and ``"p2"`` solve one independent model; P2 is solved one
    compartment at a time, each distinct compartment once, with the
    compartments sharing ``node_budget``.  The joint goals
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
        bundle.p2_model = build_p2(scn.bss, scn.prices, scn.probabilities)
        bundle.p2 = _require_solved(
            _solve_by_block(bundle.p2_model, gap, node_budget), "storage model"
        )
    if not joint:
        return bundle

    p3 = bundle.p3 = build_p3(
        scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint
    )
    d = bundle.d = DisagreementPoints(bundle.p1.objective, bundle.p2.objective)
    if goal == "frontier":  # its cells start cold
        bundle.frontier, bundle.frontier_dropped = pareto_frontier(
            p3, d, grid_points, gap, node_budget=node_budget
        )
        return bundle
    # P1's and P2's root bases together are a basis of P3, which holds their columns and rows
    warm = carry_basis(
        p3.base, (bundle.p1_model, bundle.p1.root), (bundle.p2_model, bundle.p2.root)
    )
    if goal == "tcm":
        bundle.tcm = solve_tcm(p3, d, gap, node_budget=node_budget, warm=warm)
    else:
        bundle.bargain = solve_nbs(p3, d, gap, node_budget=node_budget, warm=warm)
    return bundle
