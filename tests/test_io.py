import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from coopt.bargain import solve_study
from coopt.cli import main
from coopt.io import (
    EXIT_INPUT_ERROR,
    ScenarioError,
    emit_report,
    load_scenario,
    save_scenario,
    write_csv,
)
from coopt.scenario import hourly_fields

from conftest import tiny_scenario
from oracles import hourly_reports

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", ["median.scenario", "median_k2.scenario"])
def test_bundled_scenario_round_trips_byte_for_byte(tmp_path, name):
    saved = tmp_path / name
    save_scenario(load_scenario(SCENARIOS / name), saved)
    assert saved.read_bytes() == (SCENARIOS / name).read_bytes()


def test_saved_scenario_loads_to_the_same_inputs(tmp_path):
    scn = tiny_scenario(T=3, K=2, seed=4)
    first, second = tmp_path / "first.scenario", tmp_path / "second.scenario"
    save_scenario(scn, first)
    assert load_scenario(first) == scn
    save_scenario(load_scenario(first), second)
    assert second.read_bytes() == first.read_bytes()


def write_with(tmp_path, edit) -> Path:
    path = tmp_path / "edited.scenario"
    save_scenario(tiny_scenario(T=4, K=2), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def set_series_entry(doc):
    doc["prices"]["lambda_da"][3] = "cheap"


def set_compartment_field(doc):
    doc["bss"]["compartments"][1]["cap"] = None


def drop_series(doc):
    del doc["probabilities"]["dep_dn"]


def shorten_series(doc):
    doc["demand"]["ev_load"].pop()


def fractional_station_count(doc):
    doc["hub"]["station_count"] = 2.5


def bss_as_list(doc):
    doc["bss"] = [doc["bss"]]


def empty_compartments(doc):
    doc["bss"]["compartments"] = []


def compartment_not_an_object(doc):
    doc["bss"]["compartments"][1] = 4000.0


def negative_reserve_price(doc):
    doc["prices"]["lambda_up"][2] = -0.01


def probability_above_one(doc):
    doc["probabilities"]["acc_dn"][0] = 1.5


def min_level_above_cap(doc):
    doc["bss"]["compartments"][0]["min_level"] = 5000.0


def zero_station_rate(doc):
    doc["hub"]["station_rate"] = 0


def negative_lease_markup(doc):
    doc["joint"]["lease_markup"] = -1.0


def drop_joint_field(doc):
    del doc["joint"]["deg_rate"]


def fractional_horizon(doc):
    doc["horizon"] = 2.5


def boolean_horizon(doc):
    doc["horizon"] = True


# a range check of the scenario classes reads "<field> must ...", every other message "<field>: ..."
RANGE_RULES = {"hub.station_rate": " must be > 0", "joint.lease_markup": " must be >= 0"}


@pytest.mark.parametrize(
    "edit, field",
    [
        (set_series_entry, "prices.lambda_da[3]"),
        (set_compartment_field, "bss.compartments[1].cap"),
        (drop_series, "probabilities.dep_dn"),
        (shorten_series, "demand.ev_load"),
        (fractional_station_count, "hub.station_count"),
        (bss_as_list, "bss"),
        (empty_compartments, "bss.compartments"),
        (compartment_not_an_object, "bss.compartments[1]"),
        (negative_reserve_price, "prices.lambda_up[2]"),
        (probability_above_one, "probabilities.acc_dn[0]"),
        (min_level_above_cap, "bss.compartments[0]"),
        (zero_station_rate, "hub.station_rate"),
        (negative_lease_markup, "joint.lease_markup"),
        (drop_joint_field, "joint.deg_rate"),
        (fractional_horizon, "horizon"),
        (boolean_horizon, "horizon"),
    ],
)
def test_bad_value_error_names_its_field(tmp_path, edit, field):
    with pytest.raises(ScenarioError) as caught:
        load_scenario(write_with(tmp_path, edit))
    assert str(caught.value).startswith(field + RANGE_RULES.get(field, ":"))


# the range each hourly series declares on its field; an unranged series need only be finite
HOURLY_RANGES = {
    "prices.lambda_da": None,
    "prices.lambda_rt": None,
    "prices.lambda_up": (0.0, math.inf),
    "prices.lambda_dn": (0.0, math.inf),
    "probabilities.acc_up": (0.0, 1.0),
    "probabilities.acc_dn": (0.0, 1.0),
    "probabilities.dep_up": (0.0, 1.0),
    "probabilities.dep_dn": (0.0, 1.0),
    "demand.ev_load": (0.0, math.inf),
    "hub.da_cap": (0.0, math.inf),
}
SCENARIO = tiny_scenario(T=4, K=2)
HOURLY_SERIES = [
    (section.name, getattr(SCENARIO, section.name), f)
    for section in dataclasses.fields(SCENARIO)
    for f in hourly_fields(type(getattr(SCENARIO, section.name)))
]


def test_every_hourly_series_declares_its_range():
    declared = {f"{name}.{f.name}": f.metadata.get("range") for name, _, f in HOURLY_SERIES}
    assert declared == HOURLY_RANGES


@pytest.mark.parametrize(
    "section, part, f", HOURLY_SERIES, ids=[f"{name}.{f.name}" for name, _, f in HOURLY_SERIES]
)
def test_built_section_rejects_an_hour_that_is_not_finite_or_out_of_range(section, part, f):
    lo, hi = f.metadata.get("range", (-math.inf, math.inf))
    bad = [math.nan, math.inf] + [v for v in (lo - 0.5, hi + 0.5) if math.isfinite(v)]
    for value in bad:
        series = list(getattr(part, f.name))
        series[2] = value
        with pytest.raises(ValueError) as caught:
            dataclasses.replace(part, **{f.name: series})
        assert str(caught.value).startswith(f"{section}.{f.name}[2]: ")


@pytest.mark.parametrize("edit", [set_series_entry, set_compartment_field])
def test_malformed_scenario_exits_2(tmp_path, capsys, edit):
    path = write_with(tmp_path, edit)
    assert main(["solve-p1", "--scenario", str(path), "--out", str(tmp_path / "out")]) == (
        EXIT_INPUT_ERROR
    )
    assert capsys.readouterr().err.startswith("input error: ")


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.scenario"
    path.write_text('{"horizon": 2,')
    assert main(["solve-p2", "--scenario", str(path), "--out", str(tmp_path / "out")]) == (
        EXIT_INPUT_ERROR
    )
    assert "invalid JSON" in capsys.readouterr().err


def test_csv_writes_every_float_as_its_shortest_repr(tmp_path):
    path = tmp_path / "floats.csv"
    rows = [
        (1, 0.5, np.float64(0.1), np.float32(0.25)),
        ("x", -0.0, np.float64(-0.0), np.float32(0.1)),
    ]
    write_csv(path, ("a", "b", "c", "d"), rows)
    assert path.read_text().splitlines() == [
        "a,b,c,d", "1,0.5,0.1,0.25", "x,-0.0,-0.0,0.10000000149011612",
    ]


def check_hourly_reports(scn, goal, outdir):
    bundle = solve_study(scn, goal)
    emit_report(bundle, outdir)
    expected = hourly_reports(bundle)
    hourly = ("da_commitment.csv", "charging_sources.csv", "reserve_bids.csv", "bss_levels.csv")
    assert [name for name in hourly if (outdir / name).exists()] == list(expected)
    for name, (header, *rows) in expected.items():
        with open(outdir / name, newline="") as fh:
            written_header, *written = csv.reader(fh)
        assert written_header == header, name
        assert [[float(v) for v in row] for row in written] == rows, name


@pytest.mark.parametrize(
    "goal", ["p1", "p2", "tcm", "nbs"], ids=["solve-p1", "solve-p2", "solve-p3-tcm", "solve-p3-nbs"]
)
def test_hourly_reports_hold_the_solutions(tmp_path, goal):
    check_hourly_reports(tiny_scenario(T=3, K=2), goal, tmp_path)


def test_hourly_reports_hold_the_median_k2_total_cost_solution(tmp_path):
    check_hourly_reports(load_scenario(SCENARIOS / "median_k2.scenario"), "tcm", tmp_path)
