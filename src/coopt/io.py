"""Scenario persistence, CSV emission, and report writing.

One JSON document holds a full scenario: ``horizon`` and one object per
field of :class:`~coopt.scenario.ScenarioInputs`, whose keys are the fields
of that section's dataclass in declaration order (``joint`` may be absent).
Those dataclasses are the only description of the format.
:func:`save_scenario` writes them with ``dataclasses.asdict``, and
:func:`load_scenario` reads each field by the kind its annotation names,
then leaves the value checks to the dataclasses, whose hourly series carry
their ranges on their fields (:func:`~coopt.scenario.hourly_fields`); every
error names the field.  CSV is used for the simulated histories and for
every emitted table.  All numbers, numpy floats included, are written with
``repr``-precision (shortest round-trip decimal), which makes outputs
bytewise reproducible for a fixed seed.  The hourly reports read each
solution's variable families as arrays from
:func:`~coopt.models.family_values`, which takes them from the column layout
the builder recorded, so no column name is built or parsed; a lease family
that P1 or P2 lacks is an explicit zero array.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from pathlib import Path

import numpy as np

from .bargain import ResultsBundle
from .models import family_values
from .scenario import ScenarioInputs

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET_EXHAUSTED = 4


class ScenarioError(ValueError):
    """Scenario file rejected; the message names the offending field."""


def _finite(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ScenarioError(f"{where}: {value!r} is not a finite number")
    return float(value)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected an object")
    return value


def _construct(cls, kwargs: dict, prefix: str = ""):
    """``cls(**kwargs)``, with the class's own checks raised as scenario errors."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{prefix}{exc}") from exc


def _read(cls, obj, where: str, horizon: int, prefix: str = ""):
    """The dataclass ``cls`` from its JSON object ``obj``, field by field."""
    _object(obj, where)
    hints = typing.get_type_hints(cls)
    kwargs = {
        f.name: _field(obj, f.name, f"{where}.{f.name}", hints[f.name], horizon)
        for f in dataclasses.fields(cls)
    }
    return _construct(cls, kwargs, prefix)


def _field(obj: dict, key: str, where: str, hint, horizon: int):
    """One field, read as the kind its annotation ``hint`` names: a tuple of
    dataclasses is a non-empty array of objects, any other tuple an hourly
    series, ``int`` an integer and anything else a finite number."""
    series = typing.get_origin(hint) is tuple
    if series and dataclasses.is_dataclass(item := typing.get_args(hint)[0]):
        entries = obj.get(key)
        if not isinstance(entries, list) or not entries:
            raise ScenarioError(f"{where}: expected a non-empty array")
        # an entry's own checks do not know its index, so their messages get it in front
        return tuple(
            _read(item, entry, f"{where}[{i}]", horizon, f"{where}[{i}]: ")
            for i, entry in enumerate(entries)
        )
    if key not in obj:
        raise ScenarioError(f"{where}: missing")
    value = obj[key]
    if series:
        if not isinstance(value, list):
            raise ScenarioError(f"{where}: expected an array")
        out = tuple(_finite(v, f"{where}[{i}]") for i, v in enumerate(value))
        if len(out) != horizon:
            raise ScenarioError(f"{where}: length {len(out)} does not match horizon {horizon}")
        return out
    number = _finite(value, where)
    if hint is int:
        if number != int(number):
            raise ScenarioError(f"{where}: {number} is not an integer")
        return int(number)
    return number


def load_scenario(path) -> ScenarioInputs:
    """Parse and fully validate a scenario document; errors name the field."""
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"no scenario file at {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")

    horizon = doc.get("horizon")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ScenarioError(f"horizon: expected a positive integer, got {horizon!r}")

    sections = {}
    for f in dataclasses.fields(ScenarioInputs):
        if f.name in doc:
            sections[f.name] = _object(doc[f.name], f.name)
        elif f.default is dataclasses.MISSING:  # only `joint` may be absent
            raise ScenarioError(f"{f.name}: section missing")
    hints = typing.get_type_hints(ScenarioInputs)
    parts = {}
    for name, obj in sections.items():
        cls = hints[name]
        if typing.get_args(cls):  # `joint` is annotated `JointTerms | None`
            cls = typing.get_args(cls)[0]
        parts[name] = _read(cls, obj, name, horizon)
    return _construct(ScenarioInputs, parts)


def save_scenario(scn: ScenarioInputs, path) -> None:
    doc = {"horizon": scn.horizon, **dataclasses.asdict(scn)}
    if scn.joint is None:
        del doc["joint"]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# CSV emission


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    # np.float64 subclasses float, and its repr keeps the numpy wrapper
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def write_history(path, columns: dict) -> None:
    """Day-by-hour histories as ``day, hour`` rows with one column per entry of ``columns``."""
    arrays = [np.asarray(a) for a in columns.values()]
    days, hours = arrays[0].shape
    rows = [
        (day, hour, *(float(a[day, hour]) for a in arrays))
        for day in range(days)
        for hour in range(hours)
    ]
    write_csv(path, ("day", "hour", *columns), rows)


def write_bid_history(path, side: dict) -> None:
    """One side of the market as ``day, hour, price, qty, accepted, deployed``
    rows, one per offer, from the arrays of
    :func:`~coopt.presets.synthetic_market_history`.

    Deployment is an hour-level quantity; it is split over every accepted
    offer of the hour in proportion to its accepted energy (its share of the
    hour's cleared total).
    """
    accepted, cleared = side["accepted"], side["cleared"][..., None]
    share = np.divide(accepted, cleared, out=np.zeros_like(accepted), where=cleared > 0)
    columns = (side["price"], side["qty"], accepted, share * side["deployed"][..., None])
    rows = [
        (day, hour, *(float(a[day, hour, i]) for a in columns))
        for day, hour, i in np.ndindex(accepted.shape)
    ]
    write_csv(path, ("day", "hour", "price", "qty", "accepted", "deployed"), rows)


# ---------------------------------------------------------------------------
# result reporting


def emit_report(bundle: ResultsBundle, outdir) -> list[Path]:
    """Write the study tables and hourly series for whatever was solved."""
    points = bundle.joint_points()
    if bundle.p1 is None and bundle.p2 is None and not points:
        raise ValueError("nothing to report: no solve results in the bundle")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = [_write_summary(bundle, points, outdir / "summary.csv")]

    scn = bundle.scenario
    independent = (("p1", bundle.p1_model, bundle.p1), ("p2", bundle.p2_model, bundle.p2))
    solutions = [
        (label, model, sol.incumbent) for label, model, sol in independent if sol is not None
    ]
    solutions += [
        (label, bundle.p3.base, point.assignment)
        for label, point in points.items()
        if point.assignment is not None
    ]
    sources = [(label, _families(model, x, scn)) for label, model, x in solutions]
    hub = [values for label, values in sources if label != "p2"]
    if hub:  # the last solution with hub columns
        written.append(_write_da_commitment(hub[-1], outdir / "da_commitment.csv"))
        written.append(_write_charging_sources(hub[-1], scn, outdir / "charging_sources.csv"))
    storage = [(label, values) for label, values in sources if label != "p1"]
    if storage:
        written.append(_write_reserve_bids(storage, outdir / "reserve_bids.csv"))
        written.append(_write_bss_levels(storage, outdir / "bss_levels.csv"))

    if bundle.bargain is not None:
        result = bundle.bargain
        written.append(write_frontier(
            outdir / "frontier.csv", result.frontier, [("nbs", result.nbs), ("tcm", result.tcm)]
        ))
    return written


def _families(model, x, scn: ScenarioInputs) -> dict[str, np.ndarray]:
    """The variable families of the solution ``x`` of ``model``.  The leased
    space's families, which P1 and P2 lack, are zeros there."""
    zeros = np.zeros((scn.horizon, scn.bss.k))
    leased = dict.fromkeys(("lease_da_in", "lease_to_ev", "stored_hub"), zeros)
    return leased | family_values(model, x)


def _write_summary(bundle: ResultsBundle, points, path: Path):
    # the solver's objectives, which are also what the command prints and the disagreement point
    rows = []
    for quantity, sol, side in (("hub_cost", bundle.p1, "f_a"), ("bss_profit", bundle.p2, "f_b")):
        base = sol.objective if sol is not None else None
        row = [quantity, _blank(base)]
        for label in ("tcm", "nbs"):
            value = getattr(points[label], side) if label in points else None
            missing = value is None or base in (None, 0.0)
            row += [_blank(value), "" if missing else 100.0 * (value - base) / abs(base)]
        rows.append(row)
    write_csv(path, ("quantity", "independent", "tcm", "tcm_delta_pct", "nbs", "nbs_delta_pct"), rows)
    return path


def _blank(v):
    return "" if v is None else float(v)


# A sum over the compartments, ``sum(values.T)``, adds them in compartment
# order, starting from 0 as Python's ``sum`` does.


def _write_da_commitment(v: dict, path: Path):
    rows = zip(
        range(len(v["da_commit"])),
        v["da_commit"], sum(v["lease_da_in"].T), v["da_to_ev"], v["da_to_rt"],
    )
    write_csv(path, ("hour", "commitment", "to_storage", "to_ev", "resale"), rows)
    return path


def _write_charging_sources(v: dict, scn: ScenarioInputs, path: Path):
    rows = zip(
        range(scn.horizon),
        v["da_to_ev"], sum(v["lease_to_ev"].T), v["rt_to_ev"], scn.demand.ev_load,
    )
    write_csv(path, ("hour", "from_da", "from_storage", "from_rt", "demand"), rows)
    return path


def _write_reserve_bids(sources, path: Path):
    header, columns = ["hour"], []
    for label, v in sources:
        header += [f"{label}_bid_up", f"{label}_bid_dn"]
        columns += [sum(v["bid_up"].T), sum(v["bid_dn"].T)]
    write_csv(path, header, zip(range(len(columns[0])), *columns))
    return path


def _write_bss_levels(sources, path: Path):
    header, columns = ["hour", "compartment"], []
    for label, v in sources:
        header += [f"{label}_hub_level", f"{label}_bss_level"]
        columns += [v["stored_hub"], v["stored_bss"]]
    T, K = columns[0].shape
    rows = [(t, k, *(c[t, k] for c in columns)) for t in range(T) for k in range(K)]
    write_csv(path, header, rows)
    return path


def write_frontier(path, frontier, named=()) -> Path:
    """One row per frontier point, keyed by its storage floor, then one per
    ``(label, point)`` in ``named``."""
    keyed = [("" if p.theta is None else p.theta, p) for p in frontier] + list(named)
    rows = [(key, p.f_a, p.f_b, p.tau1, p.tau2, p.product) for key, p in keyed]
    write_csv(path, ("theta", "f_a", "f_b", "tau1", "tau2", "product"), rows)
    return Path(path)
