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

Before the first node, rounds of Gomory mixed-integer cuts (Gomory 1960;
Balas, Ceria, Cornuéjols & Natraj 1996) tighten the root LP.  Each round
takes one cut from each row of the root's optimal basis whose basic column
is a binary with a fractional value, reading the row ``rho_r [A I]`` of the
tableau from the simplex's inverse.  Each nonbasic column is measured from
the bound it sits at, the binaries by the integer formula and every other
column and slack by the continuous one, and the cut is written back over
the model's columns by replacing each slack ``s_i`` with ``b_i - A_i x``.
Following Cook, Dash, Fukasawa & Goycoolea (2009), the fractional part is
the basic column's value, a coefficient tiny against the cut's largest is
dropped only by loosening the right-hand side by its largest effect over
the column's bounds (one at the level of the products' rounding is taken
as zero), and a cut whose coefficients span too wide a range, or that
barely cuts the LP point, is dropped.  The round's rows are
appended and the root re-solved warm, their slacks basic.  The rounds stop
at ``CUT_ROUNDS``, when a round moves the root objective by less than
``CUT_MIN_GAIN`` of it, when a round yields no cut or when the root turns
integral; a root that is integral from the start runs none.  The tree then
keeps the cuts that the last root LP holds tight: a cut whose slack there
is beyond ``FEAS_TOL`` is dropped, and the root's basis, less that row and
its basic slack, stays optimal.  On six compartments the Nash tree so runs
on 140 of 228 cuts, in 80% of the memory.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .linear import GE, LE, MAX, MIN, Constraint, LinearModel, ModelArrays, objective_value
from .simplex import (
    _AT_UB,
    _BASIC,
    _FREE,
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
# Gomory mixed-integer root cuts (module docstring)
# a cap on the rows and the re-solves: on median_k2's Nash model and compartments the
# fifth round moves the root bound by 4% to 9% of what the five move in all
CUT_ROUNDS = 5
# a cut divides by f0 and 1 - f0, so a basic value nearer an integer than this gives
# coefficients up to 1000 times the tableau's, where rounding in the row starts to matter
CUT_F0 = 1e-3
# a round that moves the root objective by less, a fifth of DEFAULT_GAP, is the last one:
# its move is small against the gap the search closes
CUT_MIN_GAIN = 1e-4
# a coefficient below CUT_TINY times the cut's largest is dropped, the right-hand side
# loosened by its largest effect; one below CUT_ZERO times it is the rounding of the
# products that made it (on the Nash models, exact zeros came out at 1e-21 to 1e-15 of
# the largest, on columns without an upper bound, which no loosening can drop) and is
# zero: its term stays below FEAS_TOL for column values up to 1e5, beyond any here
CUT_TINY = 1e-9
CUT_ZERO = 1e-12
CUT_DYN = 1e6  # a wider range of coefficients makes the cut's row ill-conditioned in the LP
# a cut must cut the LP point by this, relative to its right-hand side, with its largest
# coefficient scaled to one: ten times the simplex's feasibility tolerance
CUT_VIOLATION = 1e-6
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
    root: np.ndarray | None = None  # the first root LP's final statuses, a warm start
    # the root LP objective before the first cut round and after each one
    root_bounds: tuple[float, ...] = ()


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

    The root LP is cut by rounds of Gomory mixed-integer cuts (module
    docstring) unless its binaries are integral; the solution's
    ``root_bounds`` holds the root objective before the first round and
    after each one.  A round whose LP is infeasible proves the model
    infeasible, and a round whose LP stops without an answer is dropped.
    The cuts the last root LP holds with slack are dropped before the
    first node.  Without ``separate`` the cuts go to a copy of the model's
    row list, so ``model`` is left as it was passed.

    ``incumbent_hint`` seeds the search with a known-good binary pattern (for
    example the solution of a neighbouring sweep point); its binaries are fixed
    and the LP re-solved, so a stale hint only costs one LP.  ``warm`` holds
    the statuses the root LP starts from (:meth:`SimplexSolver.solve`); the
    solution returns the first root LP's final ones, before any cut, on the
    model as it was passed.

    ``separate`` makes ``model`` an outer approximation refined inside the one
    tree (Quesada & Grossmann 1992): ``model`` must over-estimate the true
    objective, in the direction of its sense, on each of its integral points.
    An integral candidate (a node LP with integral binaries, a rounding's
    completion or the hint's) that beats the incumbent by more than the gap's
    slack goes to ``separate``, which returns the candidate's true point, its
    true value and the rows that cut the candidate off.  The true point
    becomes the incumbent when it is the better, so pruning against it stays
    valid.  The rows are appended to ``model``, in place, as the root's cuts
    are, and the search goes on over the grown model: statuses kept from
    before the rows start a later LP with the rows' slacks basic, and a node
    whose LP point they cut off, the candidate's own or the point a
    completion was rounded from, is solved again before it is closed or
    branched on, keyed by its old LP value.  A node LP candidate that cuts
    nothing off closes its node at its LP value, which joins the floor of
    pruned nodes.
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
    first = root.warm
    bounds = [root.objective]
    if not binaries.size and separate is None:
        return MilpSolution(
            OPTIMAL_WITHIN_GAP, root.primal, root.objective, root.objective, 0.0, 1, first,
            tuple(bounds),
        )

    for _ in range(CUT_ROUNDS):
        if fractionality(root.primal[binaries]).max(initial=0.0) <= INT_TOL:
            break
        rows = _gmi_rows(solver, arrays.binary)
        if not rows:
            break
        if separate is None and len(bounds) == 1:  # the caller's model stays as it was passed
            model = LinearModel(
                model.variables, list(model.constraints), model.objective, model.sense
            )
        model.constraints += rows
        cut = SimplexSolver(model)
        sol = cut.solve(lb=lb0, ub=ub0, warm=root.warm)
        if sol.status == INFEASIBLE:  # the cuts hold at every integral point
            return MilpSolution(
                INFEASIBLE, None, math.nan, math.nan, math.inf, 1, first, tuple(bounds)
            )
        if sol.status != OPTIMAL:  # the search goes on without this round's rows
            del model.constraints[-len(rows):]
            break
        solver, root = cut, sol
        z, before = sign * sol.objective, sign * bounds[-1]
        bounds.append(sign * max(z, before))  # rows only raise the minimum, up to rounding
        if z - before < CUT_MIN_GAIN * max(1.0, abs(before)):
            break

    if len(bounds) > 1:
        # the cuts the root LP holds with slack go; its basis stays optimal without them
        ns, cut_rows = solver.ns, np.arange(first.size - solver.ns, solver.m)
        loose = cut_rows[solver.x[ns + cut_rows] < -FEAS_TOL]
        if loose.size:
            kept = np.ones(solver.m, dtype=bool)
            kept[loose] = False
            model.constraints[:] = [con for con, keep in zip(model.constraints, kept) if keep]
            solver = SimplexSolver(model)
            root = replace(root, warm=np.delete(root.warm, ns + loose))

    incumbent_x = None
    incumbent_z = math.inf  # internal minimization orientation
    best_bound = sign * bounds[-1]
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
    stack.append(_Node(best_bound, seq, lb0, ub0, root.warm, 0))
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
                BUDGET_EXHAUSTED, None, math.nan, sign * best_bound, math.inf, nodes, first,
                tuple(bounds),
            )
        return MilpSolution(
            INFEASIBLE, None, math.nan, math.nan, math.inf, nodes, first, tuple(bounds)
        )

    best_bound = max(best_bound, open_bound())
    gap = _relative_gap(incumbent_z, best_bound)
    status = OPTIMAL_WITHIN_GAP if gap <= gap_target else BUDGET_EXHAUSTED
    incumbent_x = incumbent_x.copy()
    for j in binaries:
        incumbent_x[j] = round(incumbent_x[j])
    return MilpSolution(
        status, incumbent_x, sign * incumbent_z, sign * best_bound, gap, nodes, first,
        tuple(bounds),
    )


def _gmi_rows(solver: SimplexSolver, binary: np.ndarray) -> list[Constraint]:
    """One Gomory mixed-integer cut from each row of the optimal basis that
    ``solver`` has just solved to whose basic column is a binary with a
    fractional part in [CUT_F0, 1 - CUT_F0], over the model's columns, less
    the cuts the safety rules drop (module docstring); ``binary`` flags the
    model's binary columns.

    Row ``r`` of the tableau reads ``x_B + sum_j a_j t_j = x_B*``, with
    ``t_j`` each nonbasic column's distance from the bound it sits at and
    ``x_B*`` the basic column's value, whose fractional part is ``f0``.
    Fixed columns have ``t_j = 0`` and are left out, and a free nonbasic
    column in the row leaves the row without a cut.  With ``f_j`` the
    fractional part of ``a_j``, the cut is ``sum_j g_j t_j >= 1``, where
    ``g_j`` is ``f_j / f0`` or ``(1 - f_j) / (1 - f0)``, the smaller, for a
    binary at an integral bound, whose ``t_j`` is integral, and ``a_j / f0``
    or ``-a_j / (1 - f0)`` by the sign of ``a_j`` for any other column.

    The cut is written less the row over ``f0``, ``sum_j a_j t_j / f0 =
    (x_B* - x_B) / f0``: each ``g_j`` becomes ``g_j - a_j / f0``, zero for
    a continuous column with ``a_j >= 0``, and ``x_B`` gets ``-1 / f0``.
    The same cut over the model's rows, it leaves no coefficient as the
    difference of two nearly equal terms; the rounding of the tableau row
    still leaves some at 1e-21 to 1e-15 of the largest, which
    ``CUT_ZERO`` takes as zeros.
    """
    ns, sf, stat, basis = solver.ns, solver.sf, solver.stat, solver.basis
    lb, ub, x = solver.lb, solver.ub, solver.x
    moves = (stat != _BASIC) & (lb < ub)
    free = moves & (stat == _FREE)
    bounded = moves & ~free
    upper = stat == _AT_UB
    sigma = np.where(upper, -1.0, 1.0)  # t_j = sigma_j (x_j - at_j)
    at = np.where(bounded, np.where(upper, ub, lb), 0.0)
    is_binary = np.zeros(solver.nsm, dtype=bool)
    is_binary[:ns] = binary
    integer = is_binary & (np.floor(at) == at)
    f0s = x[basis] - np.floor(x[basis])
    rows = []
    for r in np.flatnonzero(is_binary[basis] & (f0s >= CUT_F0) & (f0s <= 1.0 - CUT_F0)):
        alpha = solver._alpha_row(int(r))[1]
        if alpha[free].any():
            continue
        f0 = f0s[r]
        a = np.where(bounded, sigma * alpha, 0.0)
        f = a - np.floor(a)
        g = np.where(
            integer,
            np.where(f <= f0, f / f0, (1.0 - f) / (1.0 - f0)),
            np.where(a >= 0.0, a / f0, -a / (1.0 - f0)),
        )
        pi = sigma * (g - a / f0)  # the cut less the row over f0, over all n + m columns
        pi[basis[r]] = -1.0 / f0
        slack = pi[ns:]  # s = b - A x
        coef = pi[:ns] - sf.rmatvec(slack)[:ns]
        rhs = 1.0 - x[basis[r]] / f0 + float(pi @ at) - float(slack @ sf.b)
        size = np.abs(coef)
        big = size.max(initial=0.0)
        coef[size < CUT_ZERO * big] = 0.0
        tiny = (coef != 0.0) & (size < CUT_TINY * big)
        effect = np.maximum(coef[tiny] * lb[:ns][tiny], coef[tiny] * ub[:ns][tiny])
        if not np.isfinite(effect).all():
            continue
        rhs -= float(effect.sum())
        coef[tiny] = 0.0
        keep = np.flatnonzero(coef)
        size = np.abs(coef[keep])
        if not keep.size or size.max() > CUT_DYN * size.min():
            continue
        scale = float(size.max())
        coef, rhs = coef / scale, rhs / scale
        if rhs - float(coef @ x[:ns]) < CUT_VIOLATION * max(1.0, abs(rhs)):
            continue
        name = f"gmi[{solver.m + len(rows)}]"
        rows.append(Constraint(dict(zip(keep.tolist(), coef[keep].tolist())), GE, rhs, name))
    return rows


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
