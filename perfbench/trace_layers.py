"""Spans around the public functions of each ``coopt`` layer, from outside.

:meth:`Tracer.install` replaces every public function of the layer modules
(and the two private steps of the bargaining layer that have their own
metrics) with a wrapper that records a span: name, start, end, parent span
and a note of counts taken from the returned object.  Every ``coopt`` module
that binds a wrapped name gets the wrapper; ``solve_milp``, for example, is
bound in ``coopt.bnb``, ``coopt.cli`` and ``coopt.bargain``.  Spans stay in
memory until the run ends.  :func:`layer_metrics` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "io", "models", "simplex", "bnb", "bargain")
_PRIVATE = {"bargain": ("_solve_sweep_cell", "_refine_with_fixed_modes")}


def _model_size(model) -> list:
    model = getattr(model, "base", model)  # BiObjectiveModel -> its LinearModel
    nnz = sum(len(con.coeffs) for con in model.constraints)
    return [model.m, model.n, nnz, len(model.binary_indices())]


def _note(name: str, kwargs, result):
    """Counts a span keeps, read off the wrapped call's returned object."""
    if name == "simplex.SimplexSolver.solve":
        return [result.status, result.iterations, kwargs.get("warm") is not None]
    if name == "bnb.solve_milp":
        return [result.status, result.nodes]
    if name.startswith("models.build_"):
        return _model_size(result)
    if name == "bargain.pareto_frontier":
        return len(result)
    if name == "bargain._solve_sweep_cell":
        return result[1] is not None
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, open_[-1] if open_ else -1, None])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                open_.pop()
            spans[idx][4] = _note(name, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "coopt"]
        for layer in LAYERS:
            mod = sys.modules[f"coopt.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not callable(fn) or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if isinstance(fn, type):
                    if attr == "SimplexSolver":
                        for method in ("__init__", "solve"):
                            setattr(fn, method, self.wrap(f"{layer}.{attr}.{method}",
                                                          getattr(fn, method)))
                    continue
                if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, name, wrapped)


def _self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _inside(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command, as ``{name: (value, unit)}``."""
    own = _self_times(spans)
    self_s = defaultdict(float)
    total = defaultdict(float)  # span duration summed by name
    count = defaultdict(int)
    for (name, start, end, _, _), s in zip(spans, own):
        self_s[name.split(".")[0]] += s
        total[name] += end - start
        count[name] += 1

    solves = [(i, sp) for i, sp in enumerate(spans) if sp[0] == "simplex.SimplexSolver.solve"]
    cold_s = sum(sp[2] - sp[1] for _, sp in solves if not sp[4][2])
    warm_s = sum(sp[2] - sp[1] for _, sp in solves if sp[4][2])
    iters = sum(sp[4][1] for _, sp in solves)
    warm_calls = sum(1 for _, sp in solves if sp[4][2])
    warm_iters = sum(sp[4][1] for _, sp in solves if sp[4][2])
    milps = [sp[4] for sp in spans if sp[0] == "bnb.solve_milp"]
    nodes = sum(note[1] for note in milps)
    lp_in_bnb = sum(1 for i, _ in solves if _inside(spans, i, "bnb.solve_milp"))
    built = [sp[4] for sp in spans if sp[0].startswith("models.build_")]
    rows, cols, nnz, binaries = max(built, default=[0, 0, 0, 0])
    cells = [sp[4] for sp in spans if sp[0] == "bargain._solve_sweep_cell"]
    frontier_points = sum(sp[4] for sp in spans if sp[0] == "bargain.pareto_frontier")

    return {
        "cli.self_s": (self_s["cli"], "s"),
        "io.load_s": (total["io.load_scenario"], "s"),
        "io.report_s": (total["io.emit_report"], "s"),
        "io.self_s": (self_s["io"], "s"),
        "models.build_s": (sum(v for k, v in total.items() if k.startswith("models.build_")), "s"),
        "models.rows": (rows, "count"),
        "models.cols": (cols, "count"),
        "models.nonzeros": (nnz, "count"),
        "models.binaries": (binaries, "count"),
        "models.self_s": (self_s["models"], "s"),
        "simplex.init_s": (total["simplex.SimplexSolver.__init__"], "s"),
        "simplex.inits": (count["simplex.SimplexSolver.__init__"], "count"),
        "simplex.calls": (len(solves), "count"),
        "simplex.iters": (iters, "count"),
        "simplex.cold_s": (cold_s, "s"),
        "simplex.warm_s": (warm_s, "s"),
        "simplex.warm_calls": (warm_calls, "count"),
        "simplex.us_per_iter": (1e6 * (cold_s + warm_s) / iters if iters else 0.0, "us"),
        "simplex.iters_per_warm_call": (warm_iters / warm_calls if warm_calls else 0.0, "count"),
        "simplex.singular": (sum(1 for _, sp in solves if sp[4][0] == "singular"), "count"),
        "simplex.self_s": (self_s["simplex"], "s"),
        "bnb.calls": (len(milps), "count"),
        "bnb.nodes": (nodes, "count"),
        "bnb.lp_per_node": (lp_in_bnb / nodes if nodes else 0.0, "count"),
        "bnb.budget_exhausted": (sum(1 for note in milps if note[0] == "budget-exhausted"), "count"),
        "bnb.self_s": (self_s["bnb"], "s"),
        "bargain.disagreement_s": (total["bargain.disagreement_points"], "s"),
        "bargain.frontier_s": (total["bargain.pareto_frontier"], "s"),
        "bargain.frontier_cells": (len(cells), "count"),
        "bargain.frontier_points": (frontier_points, "count"),
        "bargain.cells_dropped": (sum(1 for kept in cells if not kept), "count"),
        "bargain.tcm_s": (total["bargain.solve_tcm"], "s"),
        "bargain.refine_s": (total["bargain._refine_with_fixed_modes"], "s"),
        "bargain.self_s": (self_s["bargain"], "s"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (wall_s, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead_s": (wall_s - untraced_wall_s, "s"),
        "trace.unaccounted_s": (wall_s - sum(own), "s"),
    }
