"""Branch-and-bound for models with binary variables, on top of the simplex.

Node selection is best-bound with depth-first plunging; branching picks the
fractional binary of lowest index, so storage state propagates forward in
time.  Fixing a charge/discharge mode binary to one immediately fixes its
exclusivity partner to zero, which the search discovers from rows of the form
``x + y <= 1`` over two binaries.  A rounding heuristic, run at shallow nodes
and on every sixteenth node, fixes the relaxation's binaries to their nearest
integer and re-solves, which on storage models yields a feasible incumbent at
almost every node.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .linear import LE, MAX, MIN, LinearModel
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    SINGULAR,
    UNBOUNDED,
    SimplexSolver,
    WarmStart,
)

OPTIMAL_WITHIN_GAP = "optimal-within-gap"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_GAP = 5e-4  # relative gap; the default of every solve and of the CLI
DEFAULT_NODE_BUDGET = 200_000

INT_TOL = 1e-6
# a node LP has failed only when the cold start that solve() runs after a failed warm start
# stopped without an answer too
_LP_FAILED = (SINGULAR, ITERATION_LIMIT)


@dataclass
class MilpSolution:
    status: str
    incumbent: np.ndarray | None
    objective: float
    bound: float
    gap: float
    nodes: int

    def value(self, model: LinearModel, name: str) -> float:
        return float(self.incumbent[model.index(name)])


class SolverError(RuntimeError):
    pass


def _relative_gap(objective: float, bound: float) -> float:
    if math.isinf(objective) or math.isinf(bound):
        return math.inf
    return abs(objective - bound) / max(1.0, abs(objective))


def fractionality(x: np.ndarray) -> np.ndarray:
    """Distance of each value to its nearest integer."""
    return np.minimum(x - np.floor(x), np.ceil(x) - x)


def exclusivity_pairs(model: LinearModel) -> dict[int, list[int]]:
    """Partner map from rows ``x + y <= 1`` over exactly two binaries."""
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


@dataclass(order=True)
class _Node:
    key: float
    seq: int
    lb: np.ndarray = None
    ub: np.ndarray = None
    warm: WarmStart | None = None
    depth: int = 0


def solve_milp(
    model: LinearModel,
    gap_target: float = DEFAULT_GAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    incumbent_hint: np.ndarray | None = None,
) -> MilpSolution:
    """Best-bound branch-and-bound; returns when the relative gap closes or the
    node budget runs out, in which case the reported bound is still globally
    valid.

    ``incumbent_hint`` seeds the search with a known-good binary pattern (for
    example the solution of a neighbouring sweep point); its binaries are fixed
    and the LP re-solved, so a stale hint only costs one LP.
    """
    if gap_target <= 0:
        raise ValueError(f"gap_target must be > 0, got {gap_target}")
    sign = 1.0 if model.sense == MIN else -1.0
    binaries = model.binary_indices()
    solver = SimplexSolver(model)
    partners = exclusivity_pairs(model)

    lb0 = np.array([v.lb for v in model.variables])
    ub0 = np.array([v.ub for v in model.variables])

    root = solver.solve(lb=lb0, ub=ub0)
    if root.status == INFEASIBLE:
        return MilpSolution(INFEASIBLE, None, math.nan, math.nan, math.inf, 1)
    if root.status == UNBOUNDED:
        raise SolverError("relaxation is unbounded; binary models must be bounded")
    if root.status in _LP_FAILED:
        raise SolverError(f"simplex stopped on the root relaxation: {root.status}")
    if not binaries:
        return MilpSolution(OPTIMAL_WITHIN_GAP, root.primal, root.objective, root.objective, 0.0, 1)

    incumbent_x = None
    incumbent_z = math.inf  # internal minimization orientation
    best_bound = sign * root.objective
    pruned_floor = math.inf  # least bound of nodes pruned by tolerance or left unsolved
    tried_roundings: set[bytes] = set()

    def completion(values, warm):
        nonlocal incumbent_x, incumbent_z
        cand = _fix_binaries_and_solve(
            solver, binaries, partners, lb0, ub0, values, warm, tried_roundings
        )
        if cand is not None and sign * cand[0] < incumbent_z - 1e-12:
            incumbent_z = sign * cand[0]
            incumbent_x = cand[1]

    if incumbent_hint is not None:
        completion(incumbent_hint, root.warm)

    heap: list[_Node] = []
    stack: list[_Node] = []
    seq = 0
    stack.append(_Node(sign * root.objective, seq, lb0, ub0, root.warm, 0))
    nodes = 0

    def slack() -> float:
        return gap_target * max(1.0, abs(incumbent_z)) if incumbent_x is not None else 0.0

    def open_bound() -> float:
        candidates = [nd.key for nd in stack] + [heap[0].key if heap else math.inf]
        candidates.append(pruned_floor)
        candidates.append(incumbent_z)
        return min(candidates)

    while stack or heap:
        gap = _relative_gap(incumbent_z, best_bound)
        if incumbent_x is not None and gap <= gap_target:
            break
        if nodes >= node_budget:
            break
        node = stack.pop() if stack else heapq.heappop(heap)
        if node.key >= incumbent_z - slack():
            pruned_floor = min(pruned_floor, node.key)
            continue
        nodes += 1

        sol = solver.solve(lb=node.lb, ub=node.ub, warm=node.warm)
        if sol.status in _LP_FAILED:
            # the subtree is unexplored; its parent's bound keeps the bound valid
            pruned_floor = min(pruned_floor, node.key)
        elif sol.status == OPTIMAL:
            z = sign * sol.objective
            if z >= incumbent_z - slack():
                pruned_floor = min(pruned_floor, z)
            else:
                frac = fractionality(sol.primal[binaries])
                if float(frac.max(initial=0.0)) <= INT_TOL:
                    incumbent_z = z
                    incumbent_x = sol.primal.copy()
                else:
                    # completions pay one LP each; shallow nodes and a periodic
                    # sample keep incumbents fresh without doubling the work
                    if node.depth <= 3 or nodes % 16 == 0:
                        completion(sol.primal, sol.warm)
                    jbr = binaries[int(np.argmax(frac > INT_TOL))]
                    for fix_to in (1.0, 0.0):
                        clb, cub = node.lb.copy(), node.ub.copy()
                        if fix_to == 1.0:
                            clb[jbr] = 1.0
                            cub[jbr] = 1.0
                            for p in partners.get(jbr, ()):  # x + y <= 1 pins the partner
                                cub[p] = 0.0
                                clb[p] = min(clb[p], 0.0)
                        else:
                            clb[jbr] = 0.0
                            cub[jbr] = 0.0
                        if np.any(clb > cub):
                            continue
                        seq += 1
                        child = _Node(z, seq, clb, cub, sol.warm, node.depth + 1)
                        if fix_to == 1.0:
                            stack.append(child)
                        else:
                            heapq.heappush(heap, child)

        best_bound = max(best_bound, open_bound())

    if incumbent_x is None:
        # without an incumbent, a finite floor can only come from an unsolved node
        if (nodes >= node_budget and (stack or heap)) or pruned_floor < math.inf:
            return MilpSolution(BUDGET_EXHAUSTED, None, math.nan, sign * best_bound, math.inf, nodes)
        return MilpSolution(INFEASIBLE, None, math.nan, math.nan, math.inf, nodes)

    best_bound = max(best_bound, open_bound())
    gap = _relative_gap(incumbent_z, best_bound)
    status = OPTIMAL_WITHIN_GAP if gap <= gap_target else BUDGET_EXHAUSTED
    incumbent_x = incumbent_x.copy()
    for j in binaries:
        incumbent_x[j] = round(incumbent_x[j])
    return MilpSolution(status, incumbent_x, sign * incumbent_z, sign * best_bound, gap, nodes)


def _fix_binaries_and_solve(solver, binaries, partners, lb0, ub0, values, warm, tried):
    """Round a relaxation to a feasible mode pattern and price it with one LP.

    Exclusivity pairs are resolved toward the larger fractional value, which
    preserves feasibility (idle completion is always allowed) and keeps the
    more active mode.
    """
    lb = lb0.copy()
    ub = ub0.copy()
    done = set()
    frac = fractionality(np.asarray(values, dtype=float))
    for j in binaries:
        if j in done:
            continue
        pals = [p for p in partners.get(j, ()) if p not in done]
        if pals and (frac[j] > INT_TOL or frac[pals[0]] > INT_TOL):
            p = pals[0]
            pick = j if values[j] >= values[p] else p
            other = p if pick == j else j
            lb[pick] = ub[pick] = 1.0
            lb[other] = ub[other] = 0.0
            done.add(j)
            done.add(p)
        else:
            v = round(float(values[j]))
            lb[j] = ub[j] = v
            done.add(j)
    key = lb[binaries].tobytes()
    if key in tried:
        return None
    tried.add(key)
    fixed = solver.solve(lb=lb, ub=ub, warm=warm)
    if fixed.status != OPTIMAL:
        return None
    return fixed.objective, fixed.primal.copy()
