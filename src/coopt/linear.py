"""Linear model containers consumed by the simplex and branch-and-bound solvers.

A :class:`LinearModel` is a plain description: named variables with bounds,
integrality flags and block labels, linear rows with a sense and right-hand
side, and one linear objective.  A :class:`BiObjectiveModel` shares one
constraint set between a minimized and a maximized objective and is
scalarized by the bargaining layer.  :func:`split_blocks` cuts a model into
the sub-models of its blocks and the rows that link them, and
:func:`linking_rows` finds those rows alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

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
class Block:
    """The sub-model of one block, with the full model's index of each of its
    columns."""

    label: int
    model: LinearModel
    cols: list[int]


def _row_labels(model: LinearModel) -> list[set[int]]:
    """The blocks of each row's columns; a column's block is its ``Variable.block``."""
    col_block = [v.block for v in model.variables]
    return [{col_block[j] for j in con.coeffs} for con in model.constraints]


def linking_rows(model: LinearModel) -> list[int]:
    """The rows of ``model`` that link two blocks, as :func:`split_blocks` finds them."""
    return [i for i, labels in enumerate(_row_labels(model)) if len(labels) > 1]


def split_blocks(model: LinearModel) -> tuple[list[Block], list[int]]:
    """The blocks of ``model`` by rising label, and the rows that link two blocks.

    A column's block is its ``Variable.block``, and a row's block is the one
    block all its columns share (-1 for a row without columns).  A block's
    sub-model holds its columns and rows in the full model's order, with the
    objective's terms on its columns and the full model's sense.
    """
    cols: dict[int, list[int]] = {}
    for j, v in enumerate(model.variables):
        cols.setdefault(v.block, []).append(j)
    rows: dict[int, list[int]] = {b: [] for b in cols}
    linking = []
    for i, labels in enumerate(_row_labels(model)):
        if len(labels) > 1:
            linking.append(i)
        else:
            rows.setdefault(labels.pop() if labels else -1, []).append(i)
    blocks = []
    for b in sorted(rows):
        own = cols.get(b, [])
        local = {j: jj for jj, j in enumerate(own)}
        constraints = [model.constraints[i] for i in rows[b]]
        sub = LinearModel(
            [replace(model.variables[j]) for j in own],
            [Constraint({local[j]: c for j, c in con.coeffs.items()}, con.sense, con.rhs, con.name)
             for con in constraints],
            {local[j]: c for j, c in model.objective.items() if j in local},
            model.sense,
        )
        blocks.append(Block(b, sub, own))
    return blocks, linking


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
