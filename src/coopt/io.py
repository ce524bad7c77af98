"""Scenario persistence, CSV emission, and report writing.

One JSON document holds a full scenario: ``horizon`` and one object per
field of :class:`~coopt.scenario.ScenarioInputs`, whose keys are the fields
of that section's dataclass in declaration order (``joint`` may be absent).
Those dataclasses are the only description of the format.
:func:`save_scenario` writes them with ``dataclasses.asdict``, and
:func:`load_scenario` reads each field by the kind its annotation names,
then leaves the value checks to the dataclasses; every error names the
field.  CSV is used for the simulated histories and for every emitted
table.  All numbers are written with ``repr``-precision (shortest
round-trip decimal), which makes outputs bytewise reproducible for a fixed
seed.
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
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
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
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
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


def write_bid_history(path, records) -> None:
    """One side's records as ``day, hour, price, qty, accepted, deployed`` rows.

    Deployment is an hour-level quantity; it is attributed to the marginal
    accepted offers proportionally to their accepted energy.
    """
    rows = []
    day_counter: dict[int, int] = {}
    for rec in records:
        day = day_counter.get(rec.hour, 0)
        day_counter[rec.hour] = day + 1
        total = rec.outcome.accepted_quantity
        for (price, qty), accepted in zip(rec.stack.offers, rec.outcome.accepted):
            share = accepted / total if total > 0 else 0.0
            rows.append(
                (day, rec.hour, price, qty, accepted, share * rec.outcome.deployed_quantity)
            )
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
    written = []

    written.append(_write_summary(bundle, points, outdir / "summary.csv"))

    # each source carries its model's name map, built once per model
    joint_layout = bundle.p3.base.var_layout if bundle.p3 is not None else None
    joint_sources = [
        (label, joint_layout, point.assignment)
        for label, point in points.items()
        if point.assignment is not None and joint_layout is not None
    ]
    hourly_sources = list(joint_sources)
    if bundle.p1 is not None:
        hourly_sources.insert(0, ("p1", bundle.p1_model.var_layout, bundle.p1.incumbent))
    if hourly_sources:
        label, layout, x = hourly_sources[-1]
        written.append(_write_da_commitment(bundle.scenario, layout, x, outdir / "da_commitment.csv"))
        written.append(
            _write_charging_sources(bundle.scenario, layout, x, outdir / "charging_sources.csv")
        )

    bss_sources = list(joint_sources)
    if bundle.p2 is not None:
        bss_sources.insert(0, ("p2", bundle.p2_model.var_layout, bundle.p2.incumbent))
    if bss_sources:
        written.append(_write_reserve_bids(bundle.scenario, bss_sources, outdir / "reserve_bids.csv"))
        written.append(_write_bss_levels(bundle.scenario, bss_sources, outdir / "bss_levels.csv"))

    if bundle.bargain is not None:
        result = bundle.bargain
        written.append(write_frontier(
            outdir / "frontier.csv", result.frontier, [("nbs", result.nbs), ("tcm", result.tcm)]
        ))
    return written


def _value(layout: dict[str, int], x, name: str) -> float:
    j = layout.get(name)
    return float(x[j]) if j is not None else 0.0


def _write_summary(bundle: ResultsBundle, points, path: Path):
    rows = []
    # the solver's objectives, which are also what the command prints and the disagreement point
    d1 = bundle.p1.objective if bundle.p1 is not None else None
    d2 = bundle.p2.objective if bundle.p2 is not None else None

    def delta(new, base):
        if new is None or base in (None, 0.0):
            return ""
        return 100.0 * (new - base) / abs(base)

    tcm = points.get("tcm")
    nbs = points.get("nbs")
    rows.append(
        (
            "hub_cost",
            _blank(d1),
            _blank(tcm.f_a if tcm else None),
            _blank(delta(tcm.f_a if tcm else None, d1)),
            _blank(nbs.f_a if nbs else None),
            _blank(delta(nbs.f_a if nbs else None, d1)),
        )
    )
    rows.append(
        (
            "bss_profit",
            _blank(d2),
            _blank(tcm.f_b if tcm else None),
            _blank(delta(tcm.f_b if tcm else None, d2)),
            _blank(nbs.f_b if nbs else None),
            _blank(delta(nbs.f_b if nbs else None, d2)),
        )
    )
    write_csv(path, ("quantity", "independent", "tcm", "tcm_delta_pct", "nbs", "nbs_delta_pct"), rows)
    return path


def _blank(v):
    return "" if v is None or v == "" else float(v)


def _write_da_commitment(scn: ScenarioInputs, layout: dict[str, int], x, path: Path):
    K = scn.bss.k if scn.bss else 0
    rows = []
    for t in range(scn.horizon):
        to_storage = sum(_value(layout, x, f"lease_da_in[{t},{k}]") for k in range(K))
        rows.append(
            (
                t,
                _value(layout, x, f"da_commit[{t}]"),
                to_storage,
                _value(layout, x, f"da_to_ev[{t}]"),
                _value(layout, x, f"da_to_rt[{t}]"),
            )
        )
    write_csv(path, ("hour", "commitment", "to_storage", "to_ev", "resale"), rows)
    return path


def _write_charging_sources(scn: ScenarioInputs, layout: dict[str, int], x, path: Path):
    K = scn.bss.k if scn.bss else 0
    rows = []
    for t in range(scn.horizon):
        from_storage = sum(_value(layout, x, f"lease_to_ev[{t},{k}]") for k in range(K))
        rows.append(
            (
                t,
                _value(layout, x, f"da_to_ev[{t}]"),
                from_storage,
                _value(layout, x, f"rt_to_ev[{t}]"),
                scn.demand.ev_load[t],
            )
        )
    write_csv(path, ("hour", "from_da", "from_storage", "from_rt", "demand"), rows)
    return path


def _write_reserve_bids(scn: ScenarioInputs, sources, path: Path):
    labels = [label for label, _, _ in sources]
    header = ["hour"]
    for label in labels:
        header += [f"{label}_bid_up", f"{label}_bid_dn"]
    rows = []
    for t in range(scn.horizon):
        row = [t]
        for _, layout, x in sources:
            row.append(sum(_value(layout, x, f"bid_up[{t},{k}]") for k in range(scn.bss.k)))
            row.append(sum(_value(layout, x, f"bid_dn[{t},{k}]") for k in range(scn.bss.k)))
        rows.append(tuple(row))
    write_csv(path, tuple(header), rows)
    return path


def _write_bss_levels(scn: ScenarioInputs, sources, path: Path):
    labels = [label for label, _, _ in sources]
    header = ["hour", "compartment"]
    for label in labels:
        header += [f"{label}_hub_level", f"{label}_bss_level"]
    rows = []
    for t in range(scn.horizon):
        for k in range(scn.bss.k):
            row = [t, k]
            for _, layout, x in sources:
                row.append(_value(layout, x, f"stored_hub[{t},{k}]"))
                row.append(_value(layout, x, f"stored_bss[{t},{k}]"))
            rows.append(tuple(row))
    write_csv(path, tuple(header), rows)
    return path


def write_frontier(path, frontier, named=()) -> Path:
    """One row per frontier point, keyed by its storage floor, then one per
    ``(label, point)`` in ``named``."""
    keyed = [("" if p.theta is None else p.theta, p) for p in frontier] + list(named)
    rows = [(key, p.f_a, p.f_b, p.tau1, p.tau2, p.product) for key, p in keyed]
    write_csv(path, ("theta", "f_a", "f_b", "tau1", "tau2", "product"), rows)
    return Path(path)
