"""Linear model containers consumed by the simplex and branch-and-bound solvers.

A :class:`LinearModel` is a plain description: named variables with bounds,
integrality flags and block labels, linear rows with a sense and right-hand
side, and one linear objective.  A :class:`BiObjectiveModel` shares one
constraint set between a minimized and a maximized objective and is
scalarized by the bargaining layer.

:func:`read_model` reads a model in one pass into arrays: each column's
bounds, binary flag and block, the objective's columns and values, each
entry's row, column and value and each row's sense and right-hand side.  The
simplex, the branch-and-bound and the block split read a model through it.
:func:`split_blocks` labels each row from the blocks of its entries' columns
with array operations and gives each block as index arrays of its columns,
rows and entries, with the rows that link two blocks.

No code edits a ``Variable`` or ``Constraint`` of a model it was given:
the solvers only append rows, and the frontier sets the right-hand side of
the one row it adds itself.  :func:`~coopt.bnb.solve_milp` appends its root
cuts to its own copy of the row list, so a model it was given keeps its
rows; only with ``separate`` do its rows, the cuts among them, go to the
model itself.  So :func:`with_objective` shares them with its source and
copies only the two lists, to which a caller may append, and the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

import numpy as np

LE = "<="
EQ = "="
GE = ">="
MIN = "min"
MAX = "max"

INF = math.inf


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = INF
    binary: bool = False
    block: int = -1  # the block the column belongs to; -1 is the block of unlabelled columns

    def __post_init__(self):
        if self.lb > self.ub:
            raise ValueError(f"variable {self.name}: lb {self.lb} > ub {self.ub}")
        if self.binary and not (self.lb >= 0.0 and self.ub <= 1.0):
            raise ValueError(f"binary variable {self.name} must have bounds within [0, 1]")


@dataclass
class Constraint:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self):
        if self.sense not in (LE, EQ, GE):
            raise ValueError(f"constraint {self.name}: bad sense {self.sense!r}")


@dataclass
class LinearModel:
    variables: list[Variable]
    constraints: list[Constraint]
    objective: dict[int, float]
    sense: str = MIN
    # each variable family's columns as a (T,) or (T, K) index array, for the
    # models that coopt.models builds (coopt.models.family_values)
    families: dict[str, np.ndarray] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.sense not in (MIN, MAX):
            raise ValueError(f"bad objective sense {self.sense!r}")
        n = len(self.variables)
        for con in self.constraints:
            for j in con.coeffs:
                if not 0 <= j < n:
                    raise ValueError(f"constraint {con.name} references unknown variable {j}")
        for j in self.objective:
            if not 0 <= j < n:
                raise ValueError(f"objective references unknown variable {j}")

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def m(self) -> int:
        return len(self.constraints)

    def binary_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.binary]


def with_objective(model: LinearModel, coeffs: Mapping[int, float], sense: str) -> LinearModel:
    """``model`` with another objective; it shares the Variable and Constraint objects."""
    return LinearModel(
        list(model.variables), list(model.constraints), dict(coeffs), sense, model.families
    )


def add_constraint(
    model: LinearModel, coeffs: Mapping[int, float], sense: str, rhs: float, name: str = ""
) -> None:
    model.constraints.append(Constraint(dict(coeffs), sense, float(rhs), name))


@dataclass
class ModelArrays:
    """A model as arrays, read in one pass (:func:`read_model`).

    Column ``j`` has the bounds ``lb[j]`` and ``ub[j]``, the binary flag
    ``binary[j]`` and the block ``block[j]``.  The objective is ``obj_val``
    on the columns ``obj_col``, in the order of its dict.  Entry ``k`` is the
    coefficient ``val[k]`` of column ``col[k]`` in row ``row[k]``.  The
    entries run in row order, each row's in the order of its ``coeffs``,
    explicit zeros included; ``count``, ``sense`` and ``rhs`` hold each row's
    number of entries, sense and right-hand side.
    """

    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray
    block: np.ndarray
    obj_col: np.ndarray
    obj_val: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    count: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray


def read_model(model: LinearModel) -> ModelArrays:
    """The columns, objective and rows of ``model`` as :class:`ModelArrays`."""
    variables, n = model.variables, model.n
    cons, m = model.constraints, model.m
    objective = model.objective
    count = np.fromiter(map(len, (con.coeffs for con in cons)), np.intp, m)
    total = int(count.sum())
    return ModelArrays(
        np.fromiter((v.lb for v in variables), float, n),
        np.fromiter((v.ub for v in variables), float, n),
        np.fromiter((v.binary for v in variables), bool, n),
        np.fromiter((v.block for v in variables), np.intp, n),
        np.fromiter(objective, np.intp, len(objective)),
        np.fromiter(objective.values(), float, len(objective)),
        np.repeat(np.arange(m), count),
        np.fromiter(chain.from_iterable(con.coeffs for con in cons), np.intp, total),
        np.fromiter(chain.from_iterable(con.coeffs.values() for con in cons), float, total),
        count,
        np.array([con.sense for con in cons], dtype="<U2"),
        np.fromiter((con.rhs for con in cons), float, m),
    )


@dataclass
class Block:
    """One block of a model: the full model's index of each of its columns and
    of each of its rows, and the place in the model's :class:`ModelArrays` of
    each of its rows' entries, all in the full model's order."""

    label: int
    cols: np.ndarray
    rows: np.ndarray
    entries: np.ndarray


def split_blocks(arrays: ModelArrays) -> tuple[list[Block], list[int]]:
    """The blocks of a model, read as ``arrays`` (:func:`read_model`), by
    rising label, and the rows that link two blocks.

    A column's block is its ``Variable.block``, a row's block is that of its
    first entry's column (-1 for a row without entries), and a row links two
    blocks when another of its entries' columns lies in another block.  Each
    label is found with array operations on the entries' columns; a block
    holds the columns and rows of its label and its rows' entries, as index
    arrays.
    """
    col_block, m = arrays.block, arrays.count.size
    entry_block = col_block[arrays.col]
    row_block = np.full(m, -1, dtype=np.intp)
    filled = arrays.count > 0
    row_block[filled] = entry_block[(np.cumsum(arrays.count) - arrays.count)[filled]]
    other = entry_block != row_block[arrays.row]
    own = np.bincount(arrays.row[other], minlength=m) == 0
    entry_own = own[arrays.row]
    entry_block = row_block[arrays.row]
    labels = sorted(set(col_block.tolist()) | set(row_block[own].tolist()))
    blocks = [
        Block(
            b,
            np.flatnonzero(col_block == b),
            np.flatnonzero((row_block == b) & own),
            np.flatnonzero((entry_block == b) & entry_own),
        )
        for b in labels
    ]
    return blocks, np.flatnonzero(~own).tolist()


def objective_value(coeffs: Mapping[int, float], x) -> float:
    return float(sum(c * x[j] for j, c in coeffs.items()))


@dataclass
class BiObjectiveModel:
    """Shared feasible set with a minimized objective and a maximized one."""

    base: LinearModel
    obj_a: dict[int, float] = field(default_factory=dict)
    obj_b: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        n = self.base.n
        for label, obj in (("obj_a", self.obj_a), ("obj_b", self.obj_b)):
            for j in obj:
                if not 0 <= j < n:
                    raise ValueError(f"{label} references unknown variable {j}")

    def value_a(self, x) -> float:
        return objective_value(self.obj_a, x)

    def value_b(self, x) -> float:
        return objective_value(self.obj_b, x)
