"""Linear model containers consumed by the simplex and branch-and-bound solvers.

A :class:`LinearModel` is a plain description: named variables with bounds,
integrality flags and block labels, linear rows with a sense and right-hand
side, and one linear objective.  A :class:`BiObjectiveModel` shares one
constraint set between a minimized and a maximized objective and is
scalarized by the bargaining layer.

:func:`read_rows` reads a model's row dicts in one pass into arrays of each
entry's row, column and value and of each row's sense and right-hand side;
the simplex's standard form, the branch-and-bound's exclusivity pairs and the
block split read a model's rows through it.
:func:`split_blocks` labels each row from the blocks of its entries' columns
with array operations and gives each block as index arrays of its columns,
rows and entries, with the rows that link two blocks; :func:`linking_rows`
finds those rows alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


def clone(model: LinearModel) -> LinearModel:
    """Copy a model so rows/bounds/objective can be edited independently."""
    return LinearModel(
        variables=[replace(v) for v in model.variables],
        constraints=[Constraint(dict(c.coeffs), c.sense, c.rhs, c.name) for c in model.constraints],
        objective=dict(model.objective),
        sense=model.sense,
    )


def with_objective(model: LinearModel, coeffs: Mapping[int, float], sense: str) -> LinearModel:
    out = clone(model)
    out.objective = dict(coeffs)
    out.sense = sense
    return out


def add_constraint(
    model: LinearModel, coeffs: Mapping[int, float], sense: str, rhs: float, name: str = ""
) -> None:
    model.constraints.append(Constraint(dict(coeffs), sense, float(rhs), name))


@dataclass
class RowArrays:
    """A model's rows as arrays, read in one pass (:func:`read_rows`).

    Entry ``k`` is the coefficient ``val[k]`` of column ``col[k]`` in row
    ``row[k]``.  The entries run in row order, each row's in the order of its
    ``coeffs``, explicit zeros included; ``count``, ``sense`` and ``rhs`` hold
    each row's number of entries, sense and right-hand side.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    count: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray


def read_rows(model: LinearModel) -> RowArrays:
    """The rows of ``model`` as :class:`RowArrays`."""
    cons, m = model.constraints, model.m
    count = np.fromiter(map(len, (con.coeffs for con in cons)), np.intp, m)
    total = int(count.sum())
    return RowArrays(
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
    of each of its rows, and the place in the model's :class:`RowArrays` of
    each of its rows' entries, all in the full model's order."""

    label: int
    cols: np.ndarray
    rows: np.ndarray
    entries: np.ndarray


def _row_blocks(model: LinearModel, rows: RowArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's block (its ``Variable.block``), each row's block (that of
    its first entry's column, -1 for a row without entries), and whether each
    row links two blocks: has an entry on a column of another block."""
    col_block = np.fromiter((v.block for v in model.variables), np.intp, model.n)
    entry_block = col_block[rows.col]
    row_block = np.full(model.m, -1, dtype=np.intp)
    filled = rows.count > 0
    row_block[filled] = entry_block[(np.cumsum(rows.count) - rows.count)[filled]]
    other = entry_block != row_block[rows.row]
    links = np.bincount(rows.row[other], minlength=model.m) > 0
    return col_block, row_block, links


def linking_rows(model: LinearModel) -> list[int]:
    """The rows of ``model`` that link two blocks, as :func:`split_blocks` finds them."""
    return np.flatnonzero(_row_blocks(model, read_rows(model))[2]).tolist()


def split_blocks(
    model: LinearModel, rows: RowArrays | None = None
) -> tuple[list[Block], list[int]]:
    """The blocks of ``model`` by rising label, and the rows that link two blocks.

    ``rows`` is ``model``'s :func:`read_rows`, read here when not given.  A
    column's block is its ``Variable.block``, and a row's block is the one
    block all its columns share (-1 for a row without columns).  Each label
    is found with array operations on the entries' columns; a block holds the
    columns and rows of its label and its rows' entries, as index arrays.
    """
    if rows is None:
        rows = read_rows(model)
    col_block, row_block, links = _row_blocks(model, rows)
    own = ~links
    entry_own = own[rows.row]
    entry_block = row_block[rows.row]
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
    return blocks, np.flatnonzero(links).tolist()


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
