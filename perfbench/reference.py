"""HiGHS reference values for the benchmark scenarios.

Every model is the one ``coopt`` builds (``build_p1``, ``build_p2``,
``build_p3``), solved here by ``scipy.optimize.milp`` instead of the in-house
simplex and branch-and-bound, so the two solvers share only the model
builders.

The Nash bargaining reference follows the same two steps as the program, at
a finer grid and with an exact MILP per cell: minimize the hub cost under a
floor ``theta`` on the storage profit over a uniform grid of floors, then run
a golden-section search over the floor with the best cell's binaries pinned.
Each cell's dual bound ``L_i <= f_a*(theta_i)`` also gives a rigorous upper
bound on the Nash product, ``max_i (d1 - L_i) * (theta_{i+1} - d2)``: every
point whose storage profit lies in ``[theta_i, theta_{i+1}]`` costs the hub
at least ``L_i``.

``python3 perfbench/reference.py`` recomputes the values for every
workload's scenario at currency unit 1 and stores them in ``references.json``
(about 90 s, most of it the 101-point grid).
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from workloads import REFERENCES, WORKLOADS  # puts the checkout's src/ on sys.path
from coopt.linear import EQ, GE, LE, MAX
from coopt.models import build_p1, build_p2, build_p3

# HiGHS closes the gap far below the program's 5e-4, so its optimum is the
# yardstick the program's result is measured against
MIP_GAP = 1e-7
NBS_GRID_POINTS = 101
GOLDEN_TOL = 1e-7


def _row_arrays(model):
    rows, cols, vals = [], [], []
    lo = np.empty(model.m)
    hi = np.empty(model.m)
    for i, con in enumerate(model.constraints):
        for j, c in con.coeffs.items():
            rows.append(i)
            cols.append(j)
            vals.append(c)
        lo[i] = con.rhs if con.sense in (GE, EQ) else -np.inf
        hi[i] = con.rhs if con.sense in (LE, EQ) else np.inf
    A = csr_matrix((vals, (rows, cols)), shape=(model.m, model.n))
    return A, lo, hi


class HighsModel:
    """One ``LinearModel``'s rows and bounds in HiGHS form, plus extra rows.

    ``solve`` takes an objective as a ``{column: coefficient}`` map, a sense,
    optional extra rows ``(coeffs, lo, hi)`` and optional pinned columns.
    """

    def __init__(self, model):
        self.n = model.n
        self.A, self.lo, self.hi = _row_arrays(model)
        self.lb = np.array([v.lb for v in model.variables])
        self.ub = np.array([v.ub for v in model.variables])
        self.integrality = np.array([1 if v.binary else 0 for v in model.variables])
        self.binaries = np.flatnonzero(self.integrality)

    def dense(self, coeffs) -> np.ndarray:
        c = np.zeros(self.n)
        for j, v in coeffs.items():
            c[j] += v
        return c

    def solve(self, objective, sense, extra=(), pinned=None, integer=True):
        """Return ``(objective, dual_bound, x)``; raise if HiGHS finds no optimum."""
        sign = -1.0 if sense == MAX else 1.0
        c = sign * self.dense(objective)
        constraints = [LinearConstraint(self.A, self.lo, self.hi)]
        for coeffs, lo, hi in extra:
            constraints.append(LinearConstraint(self.dense(coeffs)[None, :], lo, hi))
        lb, ub = self.lb.copy(), self.ub.copy()
        if pinned is not None:
            lb[self.binaries] = pinned
            ub[self.binaries] = pinned
        res = milp(
            c,
            constraints=constraints,
            integrality=self.integrality if integer else None,
            bounds=Bounds(lb, ub),
            options={"mip_rel_gap": MIP_GAP, "disp": False},
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS: {res.message}")
        bound = getattr(res, "mip_dual_bound", None)
        if bound is None or not integer:
            bound = res.fun
        return sign * res.fun, sign * bound, res.x


def disagreement(scn):
    """HiGHS optima of P1 (hub cost) and P2 (storage profit)."""
    p1 = build_p1(scn.hub, scn.prices, scn.demand)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    d1 = HighsModel(p1).solve(p1.objective, p1.sense)[0]
    d2 = HighsModel(p2).solve(p2.objective, p2.sense)[0]
    return d1, d2


def _p3(scn):
    return build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)


def tcm(scn) -> float:
    """Total-cost minimum of P3: hub cost minus storage profit."""
    p3 = _p3(scn)
    combined = dict(p3.obj_a)
    for j, c in p3.obj_b.items():
        combined[j] = combined.get(j, 0.0) - c
    return HighsModel(p3.base).solve(combined, "min")[0]


def nbs(scn, d1: float, d2: float) -> dict:
    """Reference Nash product and its rigorous upper bound (module docstring)."""
    p3 = _p3(scn)
    hm = HighsModel(p3.base)
    admissible = (p3.obj_a, -np.inf, d1)
    top, top_bound, _ = hm.solve(p3.obj_b, MAX, extra=[admissible])
    thetas = np.linspace(d2, top, NBS_GRID_POINTS)
    edges = list(thetas[1:]) + [max(top, top_bound)]
    best = None
    upper = 0.0
    for theta, edge in zip(thetas, edges):
        f_a, lower, x = hm.solve(p3.obj_a, "min", extra=[admissible, (p3.obj_b, theta, np.inf)])
        upper = max(upper, (d1 - lower) * (edge - d2))
        product = (d1 - f_a) * (p3.value_b(x) - d2)
        if best is None or product > best[0]:
            best = (product, x)
    product, x = best
    pinned = np.round(x[hm.binaries])
    refined = _golden(hm, p3, d1, d2, pinned)
    if refined is not None and refined[0] > product:
        product, x = refined
    return {
        "product": product,
        "bound": upper,
        "f_a": p3.value_a(x),
        "f_b": p3.value_b(x),
        "grid_points": NBS_GRID_POINTS,
    }


def _golden(hm, p3, d1, d2, pinned):
    admissible = (p3.obj_a, -np.inf, d1)
    try:
        hi = hm.solve(p3.obj_b, MAX, extra=[admissible], pinned=pinned, integer=False)[0]
    except RuntimeError:
        return None

    def product_at(theta):
        try:
            f_a, _, x = hm.solve(
                p3.obj_a, "min", extra=[admissible, (p3.obj_b, theta, np.inf)],
                pinned=pinned, integer=False,
            )
        except RuntimeError:
            return -math.inf, None
        return (d1 - f_a) * (p3.value_b(x) - d2), x

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = d2, hi
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    v1, v2 = product_at(c1), product_at(c2)
    while b - a > GOLDEN_TOL * max(1.0, hi - d2):
        if v1[0] >= v2[0]:
            b, c2, v2 = c2, c1, v1
            c1 = b - phi * (b - a)
            v1 = product_at(c1)
        else:
            a, c1, v1 = c1, c2, v2
            c2 = a + phi * (b - a)
            v2 = product_at(c2)
    best = max(v1, v2, key=lambda v: v[0])
    return best if best[1] is not None else None


def compute() -> dict:
    """Reference values of every workload's base scenario (currency unit 1)."""
    out = {}
    for wl in WORKLOADS.values():
        scn = wl.base_scenario()
        t0 = time.perf_counter()
        d1, d2 = disagreement(scn)
        entry = {"d1": d1, "d2": d2}
        if wl.name == "tcm-k2":
            entry["tcm"] = tcm(scn)
        if wl.name == "nbs-k1":
            entry.update(nbs(scn, d1, d2))
        entry["highs_s"] = time.perf_counter() - t0
        out[wl.name] = entry
    return out


def main() -> int:
    doc = {"command": "python3 perfbench/reference.py"}
    doc.update(compute())
    text = json.dumps(doc, indent=2) + "\n"
    REFERENCES.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
