"""Bounded-variable revised simplex over a column-sparse standard form.

The solver works on the equality form ``A x + s = b`` where every row gets a
slack whose bounds encode the row sense.  :func:`standard_form` stores ``[A I]``
column by column as index arrays (no dense copy of the matrix exists), so
pricing ``y A``, the pivot row ``rho A``, ``A x`` and the entering column
``B^-1 a_q`` all run over the nonzeros only.

The basis inverse is kept in product form around a read-only base:
``B^-1 = B0 - U V``, where ``B0`` is the inverse built at the last
refactorization (or the kept one the solve started from) and the ``k``
columns of ``U`` and rows of ``V`` are the rank-one terms of the pivots
since, ``k`` being the inverse's age.  A pivot on row ``r`` with entering
column ``w = B^-1 a_q`` stores the current row ``r`` of the inverse in ``V``
and ``(w - e_r) / w_r`` in ``U``, one eta matrix of the product form of the
inverse (Dantzig & Orchard-Hays 1954) multiplied out: ``O(k m)`` work, with
no m-wide row rewritten.  Every product with the inverse applies ``B0`` and
then the low-rank correction.  Every ``REFACTOR_EVERY`` updates the simplex
loops build a fresh base.  A warm start inherits the age of the kept
factorization it starts from, so a long budget lets the nodes of a tree run
on few bases; at 100 updates the terms, ``2 m REFACTOR_EVERY`` floats, reach
one base's ``m^2`` at m = 200.

A refactorization reads the basis from the nonzeros of its columns and
peels its singletons (Hellerman & Rarick 1971): rounds of column singletons
and of row singletons make it block triangular around a small dense bump,
the only part that goes to LAPACK, and the inverse follows by substitution
over the nonzeros.  The basic slack columns, unit vectors, are column
singletons of the first round, with the structural columns that have one
nonzero (Suhl & Suhl 1990); the inverse's column on each of their rows is
a unit column, filled in without substitution.

The solver keeps the factorizations of its recent optimal bases, each as
its basis in its row order, its base and a copy of its terms, as many as
its age, keyed by its set of basic columns.  They are capped by bytes
rather than by count: the most recently used entries stay while their
distinct bases, a base that several entries share counted once, and every
entry's terms fit in ``KEPT_FACTORIZATIONS`` bases' worth, ``8 m^2`` bytes
each, and the most recent entry always stays.  So the nodes of a dive that
update one base keep many entries, each at the cost of its terms, while
entries on as many fresh bases keep ``KEPT_FACTORIZATIONS`` at most.  A
warm start whose set of basic columns is kept takes that entry's row order
and starts from its base and terms; the base itself is shared, never
copied.  Otherwise it repairs the kept factorization that needs the fewest
updates, its age plus the number of warm-basis columns it lacks: each
lacking column is swapped in by one update, leaving at the dropped position
where the entering column is largest.  A repair that would use more than
half of ``REFACTOR_EVERY``, so leaving the node less than half its update
budget, or that meets a pivot below ``REPAIR_PIVOT_TOL`` of the column's
largest entry builds a fresh inverse instead.

Every solve runs one way from a basis and its inverse, and there are no
artificial columns.  A warm start is the status of each of the ``n + m``
columns (``LpSolution.warm``), and its basis is the basic columns, in
column order until a kept factorization gives them its row order.
Statuses shorter than ``n + m`` are those of the model before rows were
appended to it: the appended rows' slacks are basic.  A cold start takes
the slack basis, whose inverse is the identity, with every structural
column at a finite bound.  A basis that is primal feasible goes
straight to the primal simplex.  Otherwise the cost of each nonbasic column
whose reduced cost has the wrong sign is shifted so that this reduced cost
is ``DUAL_TOL (1 + |c_j|)`` of the right sign (zero for a free column), and
so is the cost of each column that can move one way only and whose reduced
cost is within ``DUAL_TOL`` of zero.  The bounded dual simplex runs on the
shifted costs until the basis is primal feasible, and the primal simplex on
the true costs removes the shift (Huangfu & Hall 2018; Koberstein 2005).  A
warm basis that is dual feasible with no reduced cost near zero needs no
shift; the margin keeps the dual ratio test off ties at zero on bases, such
as the slack basis of a model with few costed columns, where most reduced
costs are zero.  The dual simplex calls a row infeasible only when its
value, recomputed from the inverse, still violates its bound, not on the
rounding carried through the updates.  It takes no
pivot that is small against its column: it retries one on a fresh inverse,
and passes over one that a fresh inverse repeats for the next ratio, so it
stops ``SINGULAR`` only on a row whose every eligible pivot is small.  After
a degeneracy stall it switches to Bland's rule, as the primal does.  The
restart rule lives in :meth:`SimplexSolver.solve` alone: a warm start that
cannot be used, or that stops ``SINGULAR`` or at ``ITERATION_LIMIT``, is
followed by a cold start on the same bounds, so callers never retry.  Every
basis change of the primal and the dual simplex goes through ``_pivot``.

Pricing is Dantzig (most negative reduced cost, lowest index on ties) with an
automatic switch to Bland's lowest-index rule after a degeneracy stall, which
keeps the pivot sequence cycle-free, and deterministic for a fixed BLAS thread
count: the dense products with the inverse sum in an order that depends on
the thread count, so a near-tie in pricing or in a ratio test can go the
other way with another one.  The primal ratio
test is Harris's two-pass test, which prefers the largest pivot among the
rows that block within the feasibility tolerance.  The primal simplex
carries the duals ``y = c_B B^-1`` through its pivots, adding ``d_q`` times
the updated pivot row of the inverse, and recomputes them only at a
refactorization; the reduced costs are priced from ``y`` over the nonzeros.

Besides the basis, its inverse and the values, the loops keep from one
iteration to the next the masks of the nonbasic columns that can rise and of
those that can fall.  They are computed once from the statuses and bounds when
a solve takes its starting basis; after that a pivot rewrites the entries of
its entering and its leaving column, and a bound flip those of its column.
The dual simplex computes the leaving row ``rho_r`` of the inverse for its
pivot row ``rho_r [A I]`` and hands it to the pivot's update, which stores it
without computing it again, and its ratio test runs on the eligible columns
alone.  Keeping them changes no operand and no order of operations, only how
many arrays each iteration builds.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .linear import GE, LE, MAX, MIN, LinearModel, ModelArrays, read_model

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
SINGULAR = "singular"
ITERATION_LIMIT = "iteration-limit"

FEAS_TOL = 1e-7
OPT_TOL = 1e-8
DUAL_TOL = 1e-7  # a reduced cost of the wrong sign beyond this, or within this of zero, is shifted
PIV_TOL = 1e-9
REFACTOR_EVERY = 100
KEPT_FACTORIZATIONS = 4
REPAIR_PIVOT_TOL = 1e-7
STALL_LIMIT = 500

_BASIC, _AT_LB, _AT_UB, _FREE = 0, 1, 2, 3


@dataclass
class LpSolution:
    """One solve's result.  ``iterations`` counts the pivots and bound flips of
    both attempts when a failed warm start was followed by a cold start.
    ``warm`` is the status of each of the ``n + m`` columns, the start of a
    later solve."""

    status: str
    primal: np.ndarray | None
    dual: np.ndarray | None
    objective: float
    iterations: int
    warm: np.ndarray | None = None


@dataclass
class StandardForm:
    """``[A I] (x, s) = b`` stored column by column.

    Columns ``0..n-1`` are the model's variables and ``n..n+m-1`` the row
    slacks.  Nonzeros are sorted by column, then row; column ``j`` owns the
    entries ``ptr[j]:ptr[j+1]`` of ``row`` and ``val`` (``col`` repeats ``j``
    for each of them).  ``lb``/``ub`` hold the variable bounds followed by
    the slack bounds that encode the row senses.
    """

    col: np.ndarray
    row: np.ndarray
    val: np.ndarray
    ptr: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``[A I] x`` for a vector over all ``n + m`` columns."""
        return np.bincount(self.row, weights=self.val * x[self.col], minlength=len(self.b))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``y [A I]`` for a vector over the ``m`` rows."""
        return np.bincount(self.col, weights=y[self.row] * self.val, minlength=len(self.ptr) - 1)


def standard_form(arrays: ModelArrays) -> StandardForm:
    """The column-sparse equality form of a model read as ``arrays``
    (:func:`~coopt.linear.read_model`); exact zero coefficients are dropped."""
    ns, m = arrays.lb.size, arrays.count.size
    kept = arrays.val != 0.0
    slacks = np.arange(m)
    row = np.concatenate([arrays.row[kept], slacks])
    col = np.concatenate([arrays.col[kept], ns + slacks])
    val = np.concatenate([arrays.val[kept], np.ones(m)])
    order = np.lexsort((row, col))
    row, col, val = row[order], col[order], val[order]
    ptr = np.zeros(ns + m + 1, dtype=np.intp)
    np.cumsum(np.bincount(col, minlength=ns + m), out=ptr[1:])

    slack_lb = np.where(arrays.sense == GE, -math.inf, 0.0)
    slack_ub = np.where(arrays.sense == LE, math.inf, 0.0)
    lb = np.concatenate([arrays.lb, slack_lb])
    ub = np.concatenate([arrays.ub, slack_ub])
    return StandardForm(col, row, val, ptr, arrays.rhs, lb, ub)


def _repair_status(stat: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Move nonbasic statuses that point at an infinite bound onto a finite one
    (or to free), and free statuses onto a finite bound when one exists."""
    lo_inf, hi_inf = np.isinf(lb), np.isinf(ub)
    out = stat.copy()
    fix_lo = (stat == _AT_LB) & lo_inf
    fix_hi = (stat == _AT_UB) & hi_inf
    fix_free = (stat == _FREE) & ~(lo_inf & hi_inf)
    out[fix_lo] = np.where(hi_inf[fix_lo], _FREE, _AT_UB)
    out[fix_hi] = np.where(lo_inf[fix_hi], _FREE, _AT_LB)
    out[fix_free] = np.where(lo_inf[fix_free], _AT_UB, _AT_LB)
    return out


def carry_basis(model: LinearModel, *sources: tuple[LinearModel, np.ndarray]) -> np.ndarray | None:
    """A warm start for ``model``, the status of each of its columns, from the
    statuses of models that share columns and rows with it, matched by name
    (names are unique within each model): models whose columns and rows it
    holds, or one that holds its own.

    Each column that a source has takes the source column's status, and each
    row that a source has takes the status of the source row's slack.  The
    rows no source has get their slacks basic, and the columns no source has
    sit at their lower bound (the solve moves a status that points at an
    infinite bound onto a finite one).  Returns None unless exactly
    ``model.m`` columns come out basic.
    """
    ns, m = model.n, model.m
    col_at = {v.name: j for j, v in enumerate(model.variables)}
    row_at = {con.name: ns + i for i, con in enumerate(model.constraints)}
    stat = np.full(ns + m, _AT_LB, dtype=np.int8)
    stat[ns:] = _BASIC
    for source, warm in sources:
        at = np.array(
            [col_at.get(v.name, -1) for v in source.variables]
            + [row_at.get(con.name, -1) for con in source.constraints],
            dtype=np.intp,
        )  # each source column's and row's place in ``model``, -1 where it has none
        shared = at >= 0
        stat[at[shared]] = warm[shared]
    return stat if np.count_nonzero(stat == _BASIC) == m else None


def _peeled_inverse(kr: np.ndarray, kc: np.ndarray, kv: np.ndarray, n: int) -> np.ndarray | None:
    """``K^-1`` of the ``n x n`` matrix whose nonzeros are ``K[kr, kc] = kv``.

    Singletons are peeled from the active part of ``K`` one vectorized round
    at a time: every column with one active nonzero left, or, when there is
    none, every row with one.  A row singleton's row has no other nonzero on
    a column still active, nor on an earlier column singleton; a column
    singleton's row has none on an earlier column singleton.  So ``K X = I``
    is solved by substitution over the nonzeros, in this order: the
    row-singleton rounds as peeled, then the bump no round peels (the only
    part that goes to ``np.linalg.solve``), then the column-singleton rounds
    in reverse.  A column singleton ``c`` of the first round, on row ``r``,
    gives ``K^-1 e_r = e_c / pivot``, a column that no substitution reads; so
    the substitution and the bump run on the other columns of ``X``, and
    these unit columns are filled in at the end.  Returns None for a singular
    ``K``: two singletons of one round on one row or column, or a bump that
    LAPACK finds singular or whose inverse is beyond the resolution of double
    precision.
    """
    row_on = np.ones(n, dtype=bool)
    col_on = np.ones(n, dtype=bool)
    piv_col = np.empty(n, dtype=np.intp)  # a singleton row's pivot column
    piv_val = np.empty(n)
    row_rounds: list[np.ndarray] = []
    col_rounds: list[np.ndarray] = []
    unit = np.zeros(0, dtype=np.intp)  # the rows of a first round of column singletons
    r, c, v = kr, kc, kv
    while r.size:
        alone = np.bincount(c, minlength=n)[c] == 1
        rounds, clash = col_rounds, r  # two column singletons on one row
        if not alone.any():
            alone = np.bincount(r, minlength=n)[r] == 1
            rounds, clash = row_rounds, c  # two row singletons on one column
            if not alone.any():
                break
        if np.bincount(clash[alone]).max() > 1:
            return None
        pr, pc = r[alone], c[alone]
        if rounds is col_rounds and r is kr:  # the first round
            unit = pr
        rounds.append(pr)
        piv_col[pr] = pc
        piv_val[pr] = v[alone]
        row_on[pr] = False
        col_on[pc] = False
        live = row_on[r] & col_on[c]
        r, c, v = r[live], c[live], v[live]

    # stage of each row and of each column in the solve order
    bump_rows, bump_cols = np.flatnonzero(row_on), np.flatnonzero(col_on)
    stages = row_rounds + [bump_rows] + col_rounds[::-1]
    at_bump = len(row_rounds)
    row_stage = np.empty(n, dtype=np.intp)
    row_stage[np.concatenate(stages)] = np.repeat(np.arange(len(stages)), [r.size for r in stages])
    col_stage = np.empty(n, dtype=np.intp)
    peeled = ~row_on
    col_stage[piv_col[peeled]] = row_stage[peeled]
    col_stage[bump_cols] = at_bump

    # nonzeros on columns of earlier stages, by stage and row: the substitution's terms
    earlier = col_stage[kc] < row_stage[kr]
    order = np.lexsort((kr[earlier], row_stage[kr[earlier]]))
    er, ec, ev = kr[earlier][order], kc[earlier][order], kv[earlier][order]
    starts = np.flatnonzero(np.r_[True, er[1:] != er[:-1]]) if er.size else np.zeros(0, np.intp)
    seg = np.searchsorted(row_stage[er[starts]], np.arange(len(stages) + 1))  # segments by stage
    bounds = np.r_[starts, er.size]

    other = np.ones(n, dtype=bool)
    other[unit] = False
    at = np.cumsum(other) - 1  # a column of K^-1 outside ``unit``: its column in X
    X = np.zeros((n, n - unit.size))  # X[j] becomes row j of K^-1, on those columns
    ones = np.flatnonzero(peeled & other)
    X[piv_col[ones], at[ones]] = 1.0

    def terms(k: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of stage ``k`` that have terms, and ``K[row, earlier] X[earlier]``."""
        s0, s1 = seg[k], seg[k + 1]
        a, b = bounds[s0], bounds[s1]
        products = X[ec[a:b]]
        products *= ev[a:b, None]
        return er[starts[s0:s1]], np.add.reduceat(products, starts[s0:s1] - a)

    def settle(k: int) -> None:
        """``X[pivot column] = (I[row] - K[row, earlier] X[earlier]) / pivot``, for
        each row of singleton stage ``k``."""
        if seg[k + 1] > seg[k]:
            rows, sums = terms(k)
            X[piv_col[rows]] -= sums
        rows = stages[k]
        X[piv_col[rows]] /= piv_val[rows, None]

    for k in range(at_bump):
        settle(k)
    if bump_rows.size:
        inside = (row_stage[kr] == at_bump) & (col_stage[kc] == at_bump)
        bump = np.zeros((bump_rows.size, bump_rows.size))
        bump[np.searchsorted(bump_rows, kr[inside]),
             np.searchsorted(bump_cols, kc[inside])] = kv[inside]
        rhs = np.zeros((bump_rows.size, X.shape[1]))
        rhs[np.arange(bump_rows.size), at[bump_rows]] = 1.0
        if seg[at_bump + 1] > seg[at_bump]:
            rows, sums = terms(at_bump)
            rhs[np.searchsorted(bump_rows, rows)] -= sums
        used = np.flatnonzero(rhs.any(axis=0))
        try:
            xb = np.linalg.solve(bump, rhs[:, used])
        except np.linalg.LinAlgError:
            return None
        inverse = xb[:, np.searchsorted(used, at[bump_rows])]  # the bump rows' columns
        if not np.max(np.abs(bump)) * np.max(np.abs(inverse)) * np.finfo(float).eps < 1.0:
            return None
        X[np.ix_(bump_cols, used)] = xb
    for k in range(at_bump + 1, len(stages)):
        settle(k)
    kinv = np.zeros((n, n))
    kinv[:, other] = X
    kinv[piv_col[unit], unit] = 1.0 / piv_val[unit]
    return kinv


class SimplexSolver:
    """Reusable solver bound to one model structure.

    Bounds may be overridden per solve, which is what branch-and-bound relies
    on; the rest is read from the model once, at construction, into ``arrays``.
    """

    def __init__(self, model: LinearModel):
        self.model = model
        ns, m = model.n, model.m
        self.ns = ns
        self.m = m
        self.nsm = ns + m
        # sorted basis bytes -> (basis, B0, U, V), least recently used first
        self._kept: OrderedDict[bytes, tuple] = OrderedDict()
        self.refactors = 0  # inverses computed, over every solve
        self.repairs = 0  # warm starts served by repairing a kept factorization

        self.arrays = arrays = read_model(model)
        self.sf = standard_form(arrays)

        sign = 1.0 if model.sense == MIN else -1.0
        self.cost = np.zeros(self.nsm)
        # on the objective's columns only: -1.0 times another column's 0.0 would be -0.0
        self.cost[arrays.obj_col] = sign * arrays.obj_val

    # -- per-solve state ---------------------------------------------------

    def solve(self, *, lb=None, ub=None, warm: np.ndarray | None = None) -> LpSolution:
        self.iterations = 0
        self.lb = self.sf.lb.copy()
        self.ub = self.sf.ub.copy()
        if lb is not None:
            self.lb[: self.ns] = lb
        if ub is not None:
            self.ub[: self.ns] = ub
        if (self.lb > self.ub + 1e-12).any():
            return self._finish(INFEASIBLE)
        self.room = (self.ub - self.lb) > 0

        status = self._try_warm(warm) if warm is not None else None
        if status in (None, SINGULAR, ITERATION_LIMIT):
            status = self._cold_start()
        return self._finish(status)

    def _finish(self, status: str) -> LpSolution:
        if status != OPTIMAL:
            obj = math.inf if status == INFEASIBLE else -math.inf
            if self.model.sense == MAX:
                obj = -obj
            if status in (SINGULAR, ITERATION_LIMIT):
                obj = math.nan
            return LpSolution(status, None, None, obj, self.iterations)
        if self.m:
            self._keep()  # children warm-start from here
        self._recompute_x()
        bl = self.lb[self.basis]
        bu = self.ub[self.basis]
        xb = self.x[self.basis]
        snapped = np.clip(xb, np.maximum(bl, xb - FEAS_TOL * 10), np.minimum(bu, xb + FEAS_TOL * 10))
        self.x[self.basis] = snapped
        y = self._duals(self.cost)
        dual = y if self.model.sense == MIN else -y
        z_internal = float(self.cost @ self.x)
        objective = z_internal * (1.0 if self.model.sense == MIN else -1.0)
        warm = self.stat.copy()
        return LpSolution(OPTIMAL, self.x[: self.ns].copy(), dual.copy(), objective, self.iterations, warm)

    # -- linear algebra helpers --------------------------------------------

    def _ftran(self, j: int) -> np.ndarray:
        """``B^-1 a_j`` for a column of ``[A I]``."""
        lo, hi = self.sf.ptr[j], self.sf.ptr[j + 1]
        rows, vals = self.sf.row[lo:hi], self.sf.val[lo:hi]
        k = self.pivots_since_refactor
        return self.B0[:, rows] @ vals - self.U[:, :k] @ (self.V[:k, rows] @ vals)

    def _row(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B^-1``."""
        k = self.pivots_since_refactor
        return self.B0[r] - self.U[r, :k] @ self.V[:k]

    def _duals(self, c: np.ndarray) -> np.ndarray:
        cb = c[self.basis]
        nz = cb.nonzero()[0]
        k = self.pivots_since_refactor
        return cb[nz] @ self.B0[nz] - (cb[nz] @ self.U[nz, :k]) @ self.V[:k]

    def _reduced_costs(self, c: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """``c - y [A I]``, with ``y = c_B B^-1`` unless the caller carries it."""
        if y is None:
            y = self._duals(c)
        return c - self.sf.rmatvec(y)

    def _alpha_row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``r`` of ``B^-1``, ``rho_r``, and the pivot row ``rho_r [A I]``."""
        rho = self._row(r)
        return rho, self.sf.rmatvec(rho)

    def _refactor(self) -> bool:
        if not self._factor_basis():
            return False
        self._recompute_x()
        return True

    def _factor_basis(self) -> bool:
        """Fresh inverse of the current basis; False when it is singular."""
        binv = self._block_inverse()
        self.refactors += 1
        if binv is None:
            return False
        self._set_inverse(binv)
        return True

    def _set_inverse(
        self, b0: np.ndarray, u: np.ndarray | None = None, v: np.ndarray | None = None
    ) -> None:
        """``B^-1 = b0 - u v``, with room for the updates up to the next refactorization.

        ``b0`` is made read-only: kept factorizations share it, and no update
        writes to it."""
        b0.flags.writeable = False
        self.B0 = b0
        self.U = np.zeros((self.m, REFACTOR_EVERY))
        self.V = np.zeros((REFACTOR_EVERY, self.m))
        self.pivots_since_refactor = 0
        if u is not None:
            self.pivots_since_refactor = k = u.shape[1]
            self.U[:, :k] = u
            self.V[:k] = v

    def _factor_warm_basis(self) -> bool:
        """Inverse of a warm basis, its columns sorted: kept, in the kept
        entry's row order, repaired from a kept one, or fresh."""
        key = self.basis.tobytes()
        kept = self._kept.get(key)
        if kept is not None:
            self._kept.move_to_end(key)
            basis, *inverse = kept
            self.basis = basis.copy()
            self._set_inverse(*inverse)
            return True
        return self._repair() or self._factor_basis()

    def _repair(self) -> bool:
        """Swap the current basis's columns into its nearest kept factorization.

        Returns False, leaving the inverse to be rebuilt, when no kept basis is
        within half the update budget or a swap's pivot is too small.
        """
        target = self.basis
        wanted = np.zeros(self.nsm, dtype=bool)
        wanted[target] = True
        best, best_cost = None, REFACTOR_EVERY // 2 + 1
        for key, (basis, _, u, _) in reversed(self._kept.items()):
            cost = u.shape[1] + int(np.count_nonzero(~wanted[basis]))
            if cost < best_cost:
                best, best_cost = key, cost
        if best is None:
            return False
        self._kept.move_to_end(best)
        basis, b0, u, v = self._kept[best]
        basis = basis.copy()
        self._set_inverse(b0, u, v)
        present = np.zeros(self.nsm, dtype=bool)
        present[basis] = True
        open_rows = np.flatnonzero(~wanted[basis])
        for q in target[~present[target]]:
            w = self._ftran(q)
            size = np.abs(w[open_rows])
            i = int(size.argmax())
            if size[i] <= REPAIR_PIVOT_TOL * np.abs(w).max():
                return False
            r = open_rows[i]
            self._eta_update(w, r)
            basis[r] = q
            open_rows = np.delete(open_rows, i)
        self.basis = basis  # the warm basis's columns, in the kept basis's row order
        self.repairs += 1
        return True

    def _block_inverse(self) -> np.ndarray | None:
        """Inverse of the basis, read from the nonzeros of its columns by
        :func:`_peeled_inverse`; None for a singular basis."""
        starts = self.sf.ptr[self.basis]
        counts = self.sf.ptr[self.basis + 1] - starts
        owner = np.repeat(np.arange(self.m), counts)  # each nonzero's basis position
        first = np.cumsum(counts) - counts  # where each column starts in the gathered list
        nz = starts[owner] + np.arange(owner.size) - first[owner]
        return _peeled_inverse(self.sf.row[nz], owner, self.sf.val[nz], self.m)

    def _keep(self) -> None:
        """Keep the current factorization as the most recent, then drop the
        least recent ones past ``KEPT_FACTORIZATIONS`` bases' worth of bytes."""
        key = np.sort(self.basis).tobytes()
        self._kept.pop(key, None)
        k = self.pivots_since_refactor
        self._kept[key] = (self.basis.copy(), self.B0, self.U[:, :k].copy(), self.V[:k].copy())
        room, bases, fits = KEPT_FACTORIZATIONS * self.B0.nbytes, set(), 0
        for _, b0, u, v in reversed(self._kept.values()):
            room -= u.nbytes + v.nbytes + (0 if id(b0) in bases else b0.nbytes)
            bases.add(id(b0))  # a base that several entries share counts once
            if room < 0 and fits:  # the most recent entry always stays
                break
            fits += 1
        while len(self._kept) > fits:
            self._kept.popitem(last=False)

    def _set_statuses(self, stat: np.ndarray) -> None:
        """Take every column's status, repaired onto the solve's bounds, and the
        masks of the nonbasic columns that can rise and of those that can fall,
        which ``_set_status`` keeps."""
        self.stat = stat = _repair_status(stat, self.lb, self.ub)
        free = stat == _FREE
        self.rise = ((stat == _AT_LB) | free) & self.room
        self.fall = ((stat == _AT_UB) | free) & self.room

    def _set_status(self, j: int, status: int) -> None:
        """Column ``j`` takes ``status``, and its entries of the masks follow."""
        self.stat[j] = status
        room = self.room[j]
        self.rise[j] = room and (status == _AT_LB or status == _FREE)
        self.fall[j] = room and (status == _AT_UB or status == _FREE)

    def _recompute_x(self) -> None:
        stat = self.stat
        x = np.where(stat == _AT_UB, self.ub, np.where(stat == _AT_LB, self.lb, 0.0))
        rhs_eff = self.sf.b - self.sf.matvec(x)
        k = self.pivots_since_refactor
        x[self.basis] = self.B0 @ rhs_eff - self.U[:, :k] @ (self.V[:k] @ rhs_eff)
        self.x = x

    def _pivot(
        self, q: int, r: int, w: np.ndarray, leaving_stat: int, rho: np.ndarray | None = None
    ) -> None:
        """Column ``q``, with ``w = B^-1 a_q``, replaces the basic column of row ``r``.
        That column goes to ``leaving_stat`` at its bound.  ``rho`` is row ``r``
        of the inverse when the caller has it."""
        leaving = self.basis[r]
        self._set_status(leaving, leaving_stat)
        self.x[leaving] = self.ub[leaving] if leaving_stat == _AT_UB else self.lb[leaving]
        self.basis[r] = q
        self._set_status(q, _BASIC)
        self._eta_update(w, r, rho)

    def _eta_update(self, w: np.ndarray, r: int, rho: np.ndarray | None = None) -> None:
        """Append the pivot's rank-one term: the new inverse is the old one minus
        ``(w - e_r) / w_r`` times its row ``r``, which is ``rho`` when given."""
        k = self.pivots_since_refactor
        self.V[k] = self._row(r) if rho is None else rho
        u = self.U[:, k]
        np.divide(w, w[r], out=u)
        u[r] = (w[r] - 1.0) / w[r]
        self.pivots_since_refactor = k + 1

    # -- the two starts and the one path from a basis ------------------------

    def _cold_start(self) -> str:
        """Start from the slack basis, whose inverse is the identity, with each
        structural column at a finite bound when it has one."""
        self.basis = np.arange(self.ns, self.nsm)
        stat = np.full(self.nsm, _AT_LB, dtype=np.int8)
        stat[self.basis] = _BASIC
        self._set_statuses(stat)
        self._set_inverse(np.eye(self.m))
        return self._from_basis()

    def _try_warm(self, stat: np.ndarray) -> str | None:
        """Solve from the statuses ``stat``, None when they are no basis.
        Statuses shorter than ``n + m`` are those of the model before rows
        were appended, whose slacks are basic."""
        if stat.size > self.nsm:
            return None
        stat = np.concatenate([stat, np.full(self.nsm - stat.size, _BASIC, dtype=np.int8)])
        self.basis = np.flatnonzero(stat == _BASIC)
        if self.basis.size != self.m:
            return None
        self._set_statuses(stat)
        if not self._factor_warm_basis():
            return None
        return self._from_basis()

    def _from_basis(self) -> str:
        """Solve from the current basis and its inverse: the primal simplex when
        the basis is primal feasible, else the dual simplex on shifted costs
        and then the primal simplex on the true ones."""
        self._recompute_x()  # places the nonbasic columns on their bounds
        xb = self.x[self.basis]
        primal_viol = float(
            np.maximum(self.lb[self.basis] - xb, xb - self.ub[self.basis]).max(initial=0.0)
        )
        if primal_viol <= FEAS_TOL:
            return self._primal(self.cost)
        d = self._reduced_costs(self.cost)
        rise, fall = self.rise, self.fall
        # a nonbasic column's cost does not enter y = c_B B^-1, so shifting it
        # moves that reduced cost alone: to a margin of the sign that makes the
        # column dual feasible, or to zero for a free column.  A one-way column
        # whose reduced cost is within DUAL_TOL of zero gets the margin too, so
        # the dual ratio test does not tie at zero on it
        near_zero = (rise != fall) & (np.abs(d) <= DUAL_TOL)
        shift = (rise & (d < -DUAL_TOL)) | (fall & (d > DUAL_TOL)) | near_zero
        c = self.cost
        if shift.any():
            margin = DUAL_TOL * (1.0 + np.abs(c))
            target = np.where(rise & fall, 0.0, np.where(rise, margin, -margin))
            c = np.where(shift, c - d + target, c)
            d = np.where(shift, target, d)
        status = self._dual(c, d)
        return self._primal(self.cost) if status == OPTIMAL else status

    # -- primal simplex -------------------------------------------------------

    def _primal(self, c: np.ndarray) -> str:
        max_iter = 20000 + 50 * (self.m + self.ns)
        stall = 0
        bland = False
        y = self._duals(c)  # carried through the pivots, recomputed at each refactorization
        rise, fall = self.rise, self.fall  # kept by the pivots and flips
        for _ in range(max_iter):
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                if not self._refactor():
                    return SINGULAR
                y = self._duals(c)
            d = self._reduced_costs(c, y)
            # the rate at which each column lowers the cost, moved the way it can go
            score = np.maximum(np.where(rise, -d, -math.inf), np.where(fall, d, -math.inf))
            q = int((score > OPT_TOL).argmax() if bland else score.argmax())
            if score[q] <= OPT_TOL:
                return OPTIMAL
            direction = 1.0 if d[q] < 0.0 else -1.0

            w = self._ftran(q)
            delta = -direction * w
            theta, r = self._primal_ratio(q, delta)
            if theta is None:
                return UNBOUNDED
            self.iterations += 1
            gain = d[q] * direction * theta
            if gain > -1e-12:
                stall += 1
                if stall > STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False

            self.x[self.basis] += delta * theta
            self.x[q] += direction * theta
            if r is None:
                flipped = _AT_UB if self.stat[q] == _AT_LB else _AT_LB
                self._set_status(q, flipped)
                self.x[q] = self.ub[q] if flipped == _AT_UB else self.lb[q]
            else:
                # |w[r]| > PIV_TOL: the ratio test only blocks on such rows
                self._pivot(q, r, w, _AT_UB if delta[r] > 0 else _AT_LB)
                # the dual step along the new row r of the inverse, rho_r / w_r,
                # where rho_r is the old row that the update just stored
                y += (d[q] / w[r]) * self.V[self.pivots_since_refactor - 1]
        return ITERATION_LIMIT

    def _primal_ratio(self, q: int, delta: np.ndarray):
        """Harris's two-pass ratio test (Harris 1973) against the entering bound flip.

        Pass 1 takes the least step against the basic bounds relaxed by
        ``FEAS_TOL``; pass 2 takes, among the rows whose exact step is within
        it, the one with the largest ``|delta|`` (lowest basic column on ties),
        so a tiny pivot never blocks when a sound one is as close.  The flip
        wins when it is within the pass-1 step.  Returns ``(step, row)``, with
        row None for the flip, or ``(None, None)`` when nothing blocks.
        """
        rows = (np.abs(delta) > PIV_TOL).nonzero()[0]  # the only rows that can block
        step = delta[rows]
        cols = self.basis[rows]
        up = step > 0
        gap = np.where(up, self.ub[cols], self.lb[cols]) - self.x[cols]
        exact = np.maximum(gap / step, 0.0)
        relaxed = np.maximum((gap + np.where(up, FEAS_TOL, -FEAS_TOL)) / step, 0.0)
        theta_max = float(relaxed.min(initial=math.inf))
        flip = self.ub[q] - self.lb[q]
        if math.isinf(theta_max) and math.isinf(flip):
            return None, None
        if flip <= theta_max:
            return flip, None
        size = np.where(exact <= theta_max, np.abs(step), 0.0)
        best = (size == size.max()).nonzero()[0]
        i = best[cols[best].argmin()]
        return float(exact[i]), int(rows[i])

    # -- dual simplex ----------------------------------------------------------

    def _dual(self, c: np.ndarray, d: np.ndarray) -> str:
        """Bounded dual simplex on the costs ``c`` from the reduced costs ``d`` of
        the current basis; OPTIMAL once the basis is primal feasible.

        The leaving row is the most violated one, lowest basic column on ties;
        after a degeneracy stall it is the violated row of the lowest basic
        column, Bland's rule for the dual simplex, since the ratio test already
        takes the lowest column on ties."""
        max_iter = 20000 + 50 * (self.m + self.ns)
        stall = 0
        bland = False
        for _ in range(max_iter):
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                if not self._refactor():
                    return SINGULAR
                d = self._reduced_costs(c)
            xb = self.x[self.basis]
            viol_lo = self.lb[self.basis] - xb
            viol_hi = xb - self.ub[self.basis]
            vio = np.maximum(viol_lo, viol_hi)
            worst = float(vio.max(initial=0.0))
            if worst <= FEAS_TOL:
                return OPTIMAL
            ties = (vio > FEAS_TOL if bland else vio >= worst - 1e-15).nonzero()[0]
            r = int(ties[self.basis[ties].argmin()])
            bv = self.basis[r]
            row_dir = 1.0 if viol_lo[r] >= viol_hi[r] else -1.0
            target = self.lb[bv] if row_dir > 0 else self.ub[bv]

            rho, alpha = self._alpha_row(r)
            # the columns whose move the row's step allows: alpha row_dir below
            # -PIV_TOL for a rising one, above PIV_TOL for a falling one
            up, down = (self.rise, self.fall) if row_dir > 0 else (self.fall, self.rise)
            cand = ((up & (alpha < -PIV_TOL)) | (down & (alpha > PIV_TOL))).nonzero()[0]
            if not cand.size:
                # the row's value may be rounding carried through the updates:
                # only a fresh one that still violates its bound proves infeasibility
                self._recompute_x()
                xr = self.x[bv]
                if max(self.lb[bv] - xr, xr - self.ub[bv]) > FEAS_TOL:
                    return INFEASIBLE
                continue
            key = -row_dir * d[cand] / alpha[cand]
            np.maximum(key, 0.0, out=key)
            i = int(key.argmin())  # the lowest column on ties
            q = int(cand[i])

            w = self._ftran(q)
            # checked before any state changes, and against the column's scale: the
            # update divides w by w[r], and a pivot far below the column's largest
            # entry wipes out the inverse's accuracy (the ratio test does not look
            # at |alpha|, so a tiny one with a reduced cost of the wrong sign wins)
            small = abs(w[r]) < PIV_TOL * max(1.0, float(np.abs(w).max()))
            if small and self.pivots_since_refactor:
                # the updates may have eroded the pivot: retry on a fresh inverse
                if not self._refactor():
                    return SINGULAR
                d = self._reduced_costs(c)
                continue
            while small:
                # a fresh inverse gives the same small pivot: take the next ratio,
                # which leaves column q dual infeasible for the primal simplex
                key[i] = math.inf
                i = int(key.argmin())
                if math.isinf(key[i]):
                    return SINGULAR  # every eligible column's pivot is small
                q = int(cand[i])
                w = self._ftran(q)
                small = abs(w[r]) < PIV_TOL * max(1.0, float(np.abs(w).max()))
            if key[i] > 0.0:
                stall = 0
                bland = False
            else:
                stall += 1
                if stall > STALL_LIMIT:
                    bland = True
            t = (self.x[bv] - target) / alpha[q]
            self.iterations += 1
            self.x[self.basis] -= t * w
            self.x[q] += t
            self._pivot(q, r, w, _AT_LB if row_dir > 0 else _AT_UB, rho)
            # rank-one reduced-cost update along the departing row
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
        return ITERATION_LIMIT

