"""Scenario persistence, CSV emission, and report writing.

One JSON document holds a full scenario; CSV is used for the simulated
histories and for every emitted table.  All numbers are written with
``repr``-precision (shortest round-trip decimal), which makes outputs
bytewise reproducible for a fixed seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .bargain import ResultsBundle
from .scenario import (
    BssSpec,
    CompartmentSpec,
    DemandProfile,
    HubSpec,
    JointTerms,
    PriceProfiles,
    ReserveProbabilities,
    ScenarioInputs,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET_EXHAUSTED = 4


class ScenarioError(ValueError):
    """Scenario file rejected; the message names the offending field."""


_SERIES_FIELDS = {
    "prices": ("lambda_da", "lambda_rt", "lambda_up", "lambda_dn"),
    "probabilities": ("acc_up", "acc_dn", "dep_up", "dep_dn"),
    "demand": ("ev_load",),
}

_COMPARTMENT_FIELDS = (
    "cap",
    "min_level",
    "max_charge",
    "max_discharge",
    "unit_cost",
    "battery_capacity",
    "life_slope",
    "initial_level",
)


def _series(section: dict, section_name: str, key: str, horizon: int | None):
    if key not in section:
        raise ScenarioError(f"{section_name}.{key}: missing")
    values = section[key]
    if not isinstance(values, list):
        raise ScenarioError(f"{section_name}.{key}: expected an array")
    out = []
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ScenarioError(f"{section_name}.{key}[{i}]: {v!r} is not a finite number")
        out.append(float(v))
    if horizon is not None and len(out) != horizon:
        raise ScenarioError(
            f"{section_name}.{key}: length {len(out)} does not match horizon {horizon}"
        )
    return tuple(out)


def _number(section: dict, section_name: str, key: str):
    if key not in section:
        raise ScenarioError(f"{section_name}.{key}: missing")
    v = section[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ScenarioError(f"{section_name}.{key}: {v!r} is not a finite number")
    return float(v)


def _section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ScenarioError(f"{name}: section missing")
    if not isinstance(doc[name], dict):
        raise ScenarioError(f"{name}: expected an object")
    return doc[name]


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
    if not isinstance(horizon, int) or horizon < 1:
        raise ScenarioError(f"horizon: expected a positive integer, got {horizon!r}")

    prices_sec = _section(doc, "prices")
    probs_sec = _section(doc, "probabilities")
    demand_sec = _section(doc, "demand")
    hub_sec = _section(doc, "hub")
    bss_sec = _section(doc, "bss")

    def build(section, name, cls):
        kwargs = {key: _series(section, name, key, horizon) for key in _SERIES_FIELDS[name]}
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    prices = build(prices_sec, "prices", PriceProfiles)
    probs = build(probs_sec, "probabilities", ReserveProbabilities)
    demand = build(demand_sec, "demand", DemandProfile)

    station_count = _number(hub_sec, "hub", "station_count")
    if station_count != int(station_count):
        raise ScenarioError(f"hub.station_count: {station_count} is not an integer")
    try:
        hub = HubSpec(
            _series(hub_sec, "hub", "da_cap", horizon),
            int(station_count),
            _number(hub_sec, "hub", "station_rate"),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    comps = bss_sec.get("compartments")
    if not isinstance(comps, list) or not comps:
        raise ScenarioError("bss.compartments: expected a non-empty array")
    compartments = []
    for i, entry in enumerate(comps):
        if not isinstance(entry, dict):
            raise ScenarioError(f"bss.compartments[{i}]: expected an object")
        kwargs = {key: _number(entry, f"bss.compartments[{i}]", key) for key in _COMPARTMENT_FIELDS}
        try:
            compartments.append(CompartmentSpec(**kwargs))
        except ValueError as exc:
            raise ScenarioError(f"bss.compartments[{i}]: {exc}") from exc
    bss = BssSpec(tuple(compartments))

    joint = None
    if "joint" in doc:
        joint_sec = _section(doc, "joint")
        try:
            joint = JointTerms(
                _number(joint_sec, "joint", "lease_markup"),
                _number(joint_sec, "joint", "deg_rate"),
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    try:
        return ScenarioInputs(prices, probs, demand, hub, bss, joint)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def save_scenario(scn: ScenarioInputs, path) -> None:
    doc = {
        "horizon": scn.horizon,
        "prices": {key: list(getattr(scn.prices, key)) for key in _SERIES_FIELDS["prices"]},
        "probabilities": {
            key: list(getattr(scn.probabilities, key)) for key in _SERIES_FIELDS["probabilities"]
        },
        "demand": {"ev_load": list(scn.demand.ev_load)},
        "hub": {
            "da_cap": list(scn.hub.da_cap),
            "station_count": scn.hub.station_count,
            "station_rate": scn.hub.station_rate,
        },
        "bss": {
            "compartments": [
                {key: getattr(comp, key) for key in _COMPARTMENT_FIELDS}
                for comp in scn.bss.compartments
            ]
        },
    }
    if scn.joint is not None:
        doc["joint"] = {
            "lease_markup": scn.joint.lease_markup,
            "deg_rate": scn.joint.deg_rate,
        }
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


def write_price_history(path, da, rt) -> None:
    rows = []
    da = np.asarray(da)
    rt = np.asarray(rt)
    for day in range(da.shape[0]):
        for hour in range(da.shape[1]):
            rows.append((day, hour, float(da[day, hour]), float(rt[day, hour])))
    write_csv(path, ("day", "hour", "lambda_da", "lambda_rt"), rows)


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
