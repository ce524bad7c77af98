"""Branch-and-bound for models with binary variables, on top of the simplex.

Node selection is best-bound with depth-first plunging.  Branching uses
pseudo-costs (Achterberg, Koch & Martin 2005): for each binary and each
direction the search keeps the mean gain of the child LP over its parent per
unit of distance the branch moved that binary, and branches on the
fractional binary whose product of down and up estimates is largest, the
lowest index on ties.  Fixing a charge/discharge mode binary to one
immediately fixes its exclusivity partner to zero, which the search
discovers from rows of the form ``x + y <= 1`` over two binaries.

Once an incumbent exists, every node that branches first fixes binaries by
reduced cost: the node's duals bound how much its LP objective rises when a
binary leaves the bound it sits at, and a binary whose move would reach the
incumbent (less the gap's slack) keeps its bound in the whole subtree.  The
least bound of the regions so cut off joins the floor of pruned nodes, so
the reported bound stays valid.  A rounding heuristic, run at shallow nodes
and on every sixteenth node, fixes the relaxation's binaries to their
nearest integer and re-solves, which on storage models yields a feasible
incumbent at almost every node.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .linear import GE, LE, MAX, MIN, Constraint, LinearModel, ModelArrays, objective_value
from .simplex import (
    FEAS_TOL,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    SINGULAR,
    UNBOUNDED,
    SimplexSolver,
)

OPTIMAL_WITHIN_GAP = "optimal-within-gap"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_GAP = 5e-4  # relative gap; the default of every solve and of the CLI
DEFAULT_NODE_BUDGET = 200_000

INT_TOL = 1e-6
PSEUDO_COST_EPS = 1e-6  # floor of each direction's estimate in a branching score
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
    root: np.ndarray | None = None  # the root LP's final statuses, a warm start


class SolverError(RuntimeError):
    pass


def _relative_gap(objective: float, bound: float) -> float:
    if math.isinf(objective) or math.isinf(bound):
        return math.inf
    return abs(objective - bound) / max(1.0, abs(objective))


def fractionality(x: np.ndarray) -> np.ndarray:
    """Distance of each value to its nearest integer."""
    return np.minimum(x - np.floor(x), np.ceil(x) - x)


def exclusivity_pairs(arrays: ModelArrays) -> dict[int, list[int]]:
    """Partner map from rows ``x + y <= 1`` over exactly two binaries, of a
    model read as ``arrays`` (:func:`~coopt.linear.read_model`)."""
    count, col, val = arrays.count, arrays.col, arrays.val
    pair = (count == 2) & (arrays.sense == LE) & (np.abs(arrays.rhs - 1.0) <= 1e-12)
    first = (np.cumsum(count) - count)[pair]
    j1, j2 = col[first], col[first + 1]
    ones = (np.abs(val[first] - 1.0) < 1e-12) & (np.abs(val[first + 1] - 1.0) < 1e-12)
    keep = arrays.binary[j1] & arrays.binary[j2] & ones
    partners: dict[int, list[int]] = {}
    for a, b in zip(j1[keep].tolist(), j2[keep].tolist()):
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    return partners


@dataclass(order=True)
class _Node:
    key: float  # the parent's LP objective, a bound on the subtree
    seq: int
    lb: np.ndarray = None
    ub: np.ndarray = None
    warm: np.ndarray | None = None
    depth: int = 0
    branched: int = -1  # position in the binaries of the one the parent branched on
    up: int = 0  # 1 when the branch fixed it to one, 0 when to zero
    moved: float = 0.0  # the distance the branch moved it


class _PseudoCosts:
    """Mean objective gain per unit of distance, by direction (0 down, 1 up) and binary."""

    def __init__(self, n: int):
        self.total = np.zeros((2, n))
        self.count = np.zeros((2, n))

    def record(self, node: _Node, z: float) -> None:
        # a child's LP cannot fall below its parent's; a negative gain is rounding
        self.total[node.up, node.branched] += max(0.0, z - node.key) / node.moved
        self.count[node.up, node.branched] += 1

    def choose(self, candidates: np.ndarray, f: np.ndarray) -> int:
        """The candidate with the largest score max(eps, down f) max(eps, up (1 - f)),
        where ``f`` holds the candidates' values.  A binary without a record in a
        direction uses the mean of all that direction's records, or 1 before any."""
        n = self.count.sum(axis=1)
        mean = np.where(n > 0, self.total.sum(axis=1) / np.maximum(n, 1), 1.0)
        seen = self.count[:, candidates] > 0
        per = self.total[:, candidates] / np.maximum(self.count[:, candidates], 1)
        pc = np.where(seen, per, mean[:, None])
        eps = PSEUDO_COST_EPS
        score = np.maximum(eps, pc[0] * f) * np.maximum(eps, pc[1] * (1.0 - f))
        return int(candidates[np.argmax(score)])  # argmax keeps the lowest index on ties


def solve_milp(
    model: LinearModel,
    gap_target: float = DEFAULT_GAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    incumbent_hint: np.ndarray | None = None,
    warm: np.ndarray | None = None,
    separate: Callable[[np.ndarray], tuple[np.ndarray, float, list[Constraint]]] | None = None,
) -> MilpSolution:
    """Best-bound branch-and-bound with pseudo-cost branching and reduced-cost
    fixing; returns when the relative gap closes or the node budget runs out,
    in which case the reported bound is still globally valid: it is the least
    of the open nodes' bounds, of the bounds of nodes pruned within the gap or
    left unsolved, and of the bounds of the regions fixing cut off.  The
    search is deterministic for a fixed BLAS thread count: equal inputs give
    equal nodes, incumbent and bound.  Another thread count can round the
    simplex's dense products differently and so take another path, to
    another node count and possibly another incumbent.

    ``incumbent_hint`` seeds the search with a known-good binary pattern (for
    example the solution of a neighbouring sweep point); its binaries are fixed
    and the LP re-solved, so a stale hint only costs one LP.  ``warm`` holds
    the statuses the root LP starts from (:meth:`SimplexSolver.solve`); the
    solution returns the root's final ones, on the model as the root had it.

    ``separate`` makes ``model`` an outer approximation refined inside the one
    tree (Quesada & Grossmann 1992): ``model`` must over-estimate the true
    objective, in the direction of its sense, on each of its integral points.
    An integral candidate (a node LP with integral binaries, a rounding's
    completion or the hint's) that beats the incumbent by more than the gap's
    slack goes to ``separate``, which returns the candidate's true point, its
    true value and the rows that cut the candidate off.  The true point
    becomes the incumbent when it is the better, so pruning against it stays
    valid.  The rows are appended to ``model``, in place, and the search goes
    on over the grown model: statuses kept from before the rows start a
    later LP with the rows' slacks basic, and a node whose LP point they cut
    off, the candidate's own or the point a completion was rounded from, is
    solved again before it is closed or branched on, keyed by its old LP
    value.  A node LP candidate that cuts nothing off closes its node at its
    LP value, which joins the floor of pruned nodes.
    """
    if gap_target <= 0:
        raise ValueError(f"gap_target must be > 0, got {gap_target}")
    sign = 1.0 if model.sense == MIN else -1.0
    solver = SimplexSolver(model)
    arrays = solver.arrays  # the columns; rows that ``separate`` adds leave them as they are
    binaries = np.flatnonzero(arrays.binary)
    partners = exclusivity_pairs(arrays)
    lb0, ub0 = arrays.lb, arrays.ub

    root = solver.solve(lb=lb0, ub=ub0, warm=warm)
    if root.status == INFEASIBLE:
        return MilpSolution(INFEASIBLE, None, math.nan, math.nan, math.inf, 1)
    if root.status == UNBOUNDED:
        raise SolverError("relaxation is unbounded; binary models must be bounded")
    if root.status in _LP_FAILED:
        raise SolverError(f"simplex stopped on the root relaxation: {root.status}")
    if not binaries.size and separate is None:
        return MilpSolution(
            OPTIMAL_WITHIN_GAP, root.primal, root.objective, root.objective, 0.0, 1, root.warm
        )

    incumbent_x = None
    incumbent_z = math.inf  # internal minimization orientation
    best_bound = sign * root.objective
    pruned_floor = math.inf  # least bound of nodes pruned by tolerance or left unsolved
    tried_roundings: set[bytes] = set()
    pseudo = _PseudoCosts(binaries.size)

    def slack() -> float:
        return gap_target * max(1.0, abs(incumbent_z)) if incumbent_x is not None else 0.0

    def accept(x: np.ndarray, z: float) -> list[Constraint]:
        """Take the integral candidate ``x`` of value ``z`` (minimization
        orientation); returns the rows ``separate`` added to the model."""
        nonlocal incumbent_x, incumbent_z, solver
        if separate is None:
            incumbent_z, incumbent_x = z, x
            return []
        x, objective, rows = separate(x)
        if sign * objective < incumbent_z:
            incumbent_z, incumbent_x = sign * objective, x
        if rows:
            model.constraints += rows
            solver = SimplexSolver(model)
        return rows

    def completion(values, warm) -> list[Constraint]:
        cand = _fix_binaries_and_solve(
            solver, binaries, partners, lb0, ub0, values, warm, tried_roundings
        )
        margin = 1e-12 if separate is None else slack()
        if cand is not None and sign * cand[0] < incumbent_z - margin:
            return accept(cand[1], sign * cand[0])
        return []

    if incumbent_hint is not None:
        completion(incumbent_hint, root.warm)

    heap: list[_Node] = []
    stack: list[_Node] = []
    seq = 0
    stack.append(_Node(sign * root.objective, seq, lb0, ub0, root.warm, 0))
    nodes = 0

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

        lp = solver  # the node's solver, also after a completion grows the model
        sol = lp.solve(lb=node.lb, ub=node.ub, warm=node.warm)
        if sol.status in _LP_FAILED:
            # the subtree is unexplored; its parent's bound keeps the bound valid
            pruned_floor = min(pruned_floor, node.key)
        elif sol.status == OPTIMAL:
            z = sign * sol.objective
            if node.branched >= 0:
                pseudo.record(node, z)
            if z >= incumbent_z - slack():
                pruned_floor = min(pruned_floor, z)
            else:
                xb = sol.primal[binaries]
                frac = fractionality(xb)
                integral = float(frac.max(initial=0.0)) <= INT_TOL
                rows = []
                if integral:
                    rows = accept(sol.primal.copy(), z)
                elif node.depth <= 3 or nodes % 16 == 0:
                    # completions pay one LP each; shallow nodes and a periodic
                    # sample keep incumbents fresh without doubling the work
                    rows = completion(sol.primal, sol.warm)
                if _cut_off(rows, sol.primal):
                    seq += 1  # solved again on the rows before it is closed or branched on
                    stack.append(replace(node, key=z, seq=seq, warm=sol.warm, branched=-1))
                elif integral:
                    if separate is not None:  # z bounds every true value in it
                        pruned_floor = min(pruned_floor, z)
                else:
                    lb, ub = node.lb, node.ub
                    if incumbent_x is not None:
                        lb, ub, floor = _fix_by_reduced_cost(
                            lp, sign, binaries, partners, sol, z, incumbent_z - slack(), lb, ub
                        )
                        pruned_floor = min(pruned_floor, floor)
                    candidates = np.flatnonzero(frac > INT_TOL)
                    k = pseudo.choose(candidates, xb[candidates])
                    jbr = int(binaries[k])
                    for fix_to in (1.0, 0.0):
                        clb, cub = lb.copy(), ub.copy()
                        if fix_to == 1.0:
                            _fix_to_one(clb, cub, jbr, partners)
                        else:
                            clb[jbr] = cub[jbr] = 0.0
                        if np.any(clb > cub):
                            continue
                        seq += 1
                        child = _Node(z, seq, clb, cub, sol.warm, node.depth + 1,
                                      k, int(fix_to), abs(fix_to - xb[k]))
                        if fix_to == 1.0:
                            stack.append(child)
                        else:
                            heapq.heappush(heap, child)

        best_bound = max(best_bound, open_bound())

    if incumbent_x is None:
        # without an incumbent, a finite floor can only come from an unsolved node
        if (nodes >= node_budget and (stack or heap)) or pruned_floor < math.inf:
            return MilpSolution(
                BUDGET_EXHAUSTED, None, math.nan, sign * best_bound, math.inf, nodes, root.warm
            )
        return MilpSolution(INFEASIBLE, None, math.nan, math.nan, math.inf, nodes, root.warm)

    best_bound = max(best_bound, open_bound())
    gap = _relative_gap(incumbent_z, best_bound)
    status = OPTIMAL_WITHIN_GAP if gap <= gap_target else BUDGET_EXHAUSTED
    incumbent_x = incumbent_x.copy()
    for j in binaries:
        incumbent_x[j] = round(incumbent_x[j])
    return MilpSolution(
        status, incumbent_x, sign * incumbent_z, sign * best_bound, gap, nodes, root.warm
    )


def _cut_off(rows: list[Constraint], x: np.ndarray) -> bool:
    """Whether ``x`` violates one of ``rows`` by more than the simplex's feasibility tolerance."""
    for con in rows:
        excess = objective_value(con.coeffs, x) - con.rhs
        tol = FEAS_TOL * max(1.0, abs(con.rhs))
        if (con.sense != GE and excess > tol) or (con.sense != LE and excess < -tol):
            return True
    return False


def _fix_to_one(lb, ub, j, partners) -> None:
    """Fix binary ``j`` to one in place; each row ``x + y <= 1`` pins its partner to zero."""
    lb[j] = ub[j] = 1.0
    for p in partners.get(j, ()):
        ub[p] = 0.0
        lb[p] = min(lb[p], 0.0)


def _fix_by_reduced_cost(solver, sign, binaries, partners, sol, z, cutoff, lb, ub):
    """Bounds of a node's subtree with the binaries fixed that reduced costs rule out.

    With ``z`` the node's LP objective and ``d = c - y A`` its reduced costs
    from the node's own duals (both in the minimization orientation), every
    point of the node with a binary at 0 moved to 1 costs at least ``z + d_j``,
    and one with a binary at 1 moved to 0 at least ``z - d_j``.  Where that
    reaches ``cutoff`` the binary keeps its bound; fixing one at 1 pins its
    exclusivity partners to 0, as branching does.  Returns the bounds, copied
    only when something is fixed, and the least bound of the regions cut
    off (inf when none), which the caller keeps in the floor of pruned nodes.
    """
    d = solver.cost[binaries] - sign * solver.sf.rmatvec(sol.dual)[binaries]
    xb = sol.primal[binaries]
    at0 = (xb <= INT_TOL) & (ub[binaries] > 0.0)
    at1 = (xb >= 1.0 - INT_TOL) & (lb[binaries] < 1.0)
    gain = np.where(at1, -d, d)
    fix = (at0 | at1) & (z + gain >= cutoff)
    if not fix.any():
        return lb, ub, math.inf
    lb, ub = lb.copy(), ub.copy()
    ub[binaries[fix & at0]] = 0.0
    for j in binaries[fix & at1]:
        _fix_to_one(lb, ub, j, partners)
    return lb, ub, z + float(gain[fix].min())


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
