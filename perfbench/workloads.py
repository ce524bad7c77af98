"""The three benchmark workloads: their scenarios, HiGHS references and checks.

Every workload runs one ``coopt`` CLI command on a scenario file the
benchmark writes.  The scenario is ``presets.build_scenario`` at its default
seed 7 (for K=6 and K=2 these are the bundled ``scenarios/*.scenario``).
Scenarios drawn from other preset seeds change the branch-and-bound effort
twofold (README.md), which would measure the draw instead of the code, so
the benchmark seed picks a currency unit ``2**k`` instead and multiplies
every money input by it (energy and reserve prices, compartment unit cost,
lease wear rate).  A power of two scales every objective coefficient
exactly, and on ``p2-k6`` and ``tcm-k2`` each seed hands the program other
numbers but the same search tree.  ``nbs-k1`` keeps currency unit 1: its
epsilon-constraint rows carry money coefficients next to unit slacks, so its
search, and today even its result, moves with the unit (CHANGES.md).
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from coopt.presets import build_scenario  # noqa: E402
from coopt.scenario import BssSpec, PriceProfiles  # noqa: E402

PRESET_SEED = 7
GAP = 5e-4  # the CLI's default --gap, which the checks hold the program to
CURRENCY_EXPONENTS = range(-3, 4)
REFERENCES = Path(__file__).resolve().parent / "references.json"

_NUMBER = r"(-?[0-9.]+(?:e[-+]?[0-9]+)?|nan|inf|-inf)"


@dataclass(frozen=True)
class Workload:
    name: str
    K: int
    compartment_spread: float
    args: tuple[str, ...]
    reports: tuple[str, ...]
    seeded_currency: bool = True

    def base_scenario(self):
        return build_scenario(
            K=self.K, seed=PRESET_SEED, compartment_spread=self.compartment_spread
        )

    def currency_unit(self, seed: int) -> float:
        """The seed's currency unit, a power of two between 1/8 and 8."""
        if not self.seeded_currency:
            return 1.0
        rng = np.random.default_rng(seed)
        return 2.0 ** int(rng.choice(CURRENCY_EXPONENTS))

    def scenario(self, seed: int):
        return scale_money(self.base_scenario(), self.currency_unit(seed))


_BSS_REPORTS = ("summary.csv", "reserve_bids.csv", "bss_levels.csv")
_JOINT_REPORTS = _BSS_REPORTS + ("da_commitment.csv", "charging_sources.csv")

WORKLOADS = {
    wl.name: wl
    for wl in (
        # why each workload is there: BENCHMARK.json and README.md
        Workload("p2-k6", 6, 0.0, ("solve-p2",), _BSS_REPORTS),
        Workload("tcm-k2", 2, 0.05, ("solve-p3-tcm",), _JOINT_REPORTS),
        Workload(
            "nbs-k1", 1, 0.0, ("solve-p3-nbs", "--grid-points", "5"),
            _JOINT_REPORTS + ("frontier.csv",), seeded_currency=False,
        ),
    )
}


def scale_money(scn, factor: float):
    """The scenario with every money input multiplied by ``factor``."""
    p = scn.prices
    prices = PriceProfiles(
        *(tuple(factor * v for v in getattr(p, key))
          for key in ("lambda_da", "lambda_rt", "lambda_up", "lambda_dn"))
    )
    bss = BssSpec(tuple(replace(c, unit_cost=factor * c.unit_cost) for c in scn.bss.compartments))
    joint = replace(scn.joint, deg_rate=factor * scn.joint.deg_rate)
    return replace(scn, prices=prices, bss=bss, joint=joint)


def reference(wl: Workload, scn) -> dict:
    """HiGHS values the run is checked against.

    P1, P2 and the total-cost minimum are solved here on the run's scenario.
    The Nash bargaining reference takes over a minute at its 101-point grid,
    so it is read from ``references.json`` (made by ``reference.py``); the
    freshly solved disagreement point must match the stored one, which
    checks that the stored values belong to this scenario.
    """
    from reference import disagreement, tcm  # scipy is needed only here

    d1, d2 = disagreement(scn)
    ref = {"d1": d1, "d2": d2}
    if wl.name == "tcm-k2":
        ref["tcm"] = tcm(scn)
    if wl.name == "nbs-k1":
        stored = json.loads(REFERENCES.read_text())[wl.name]
        for key, value in (("d1", d1), ("d2", d2)):
            if abs(value - stored[key]) > 1e-6 * max(1.0, abs(stored[key])):
                raise RuntimeError(
                    f"{wl.name}: HiGHS {key} {value!r} is not the stored {stored[key]!r}; "
                    f"regenerate {REFERENCES.name}"
                )
        ref["product"] = stored["product"]
        ref["bound"] = stored["bound"]
    return ref


def _printed(stdout: str, label: str) -> float:
    match = re.search(rf"^{re.escape(label)}: {_NUMBER}$", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"no '{label}' line on stdout")
    return float(match.group(1))


def _within_gap(value: float, ref: float) -> bool:
    return abs(value - ref) <= GAP * max(1.0, abs(ref), abs(value)) + 1e-6 * max(1.0, abs(ref))


def _milp_quality(value: float, ref: float) -> float:
    return 1.0 - abs(value - ref) / max(1.0, abs(ref))


def _summary_disagreement(path: Path) -> tuple[float, float]:
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        cells = line.split(",")
        rows[cells[0]] = float(cells[1])
    return rows["hub_cost"], rows["bss_profit"]


def check(wl: Workload, rc: int, stdout: str, outdir: Path, ref: dict):
    """Check one command's outputs; return ``(errors, result_vs_highs)``."""
    if rc != 0:
        return [f"exit code {rc}"], math.nan
    errors = [f"missing report {name}" for name in wl.reports if not (outdir / name).is_file()]
    try:
        if wl.name == "p2-k6":
            value = _printed(stdout, "bss profit")
            if not _within_gap(value, ref["d2"]):
                errors.append(f"P2 profit {value!r} is not within the gap of HiGHS {ref['d2']!r}")
            return errors, _milp_quality(value, ref["d2"])
        if wl.name == "tcm-k2":
            value = _printed(stdout, "tcm hub cost") - _printed(stdout, "tcm bss profit")
            if not _within_gap(value, ref["tcm"]):
                errors.append(f"TCM {value!r} is not within the gap of HiGHS {ref['tcm']!r}")
            return errors, _milp_quality(value, ref["tcm"])
        return errors + _check_nbs(stdout, outdir, ref), _nbs_quality(stdout, ref)
    except (ValueError, KeyError, OSError) as exc:
        return errors + [f"unreadable output: {exc}"], math.nan


def _nbs_at_reference(stdout: str, ref: dict) -> float:
    f_a, f_b = _printed(stdout, "nbs hub cost"), _printed(stdout, "nbs bss profit")
    return (ref["d1"] - f_a) * (f_b - ref["d2"])


def _nbs_quality(stdout: str, ref: dict) -> float:
    """The NBS's Nash product over the reference one, both at the HiGHS
    disagreement point."""
    return _nbs_at_reference(stdout, ref) / ref["product"]


def _check_nbs(stdout: str, outdir: Path, ref: dict) -> list[str]:
    errors = []
    f_a = _printed(stdout, "nbs hub cost")
    f_b = _printed(stdout, "nbs bss profit")
    product = _printed(stdout, "nash product")
    if f_a > ref["d1"] + GAP * max(1.0, abs(ref["d1"])):
        errors.append(f"hub cost {f_a!r} exceeds its disagreement value {ref['d1']!r}")
    if f_b < ref["d2"] - GAP * max(1.0, abs(ref["d2"])):
        errors.append(f"storage profit {f_b!r} is below its disagreement value {ref['d2']!r}")
    d1, d2 = _summary_disagreement(outdir / "summary.csv")
    recomputed = (d1 - f_a) * (f_b - d2)
    if abs(recomputed - product) > 1e-9 * max(1.0, abs(product)):
        errors.append(f"printed Nash product {product!r} is not (d1-f_a)(f_b-d2) = {recomputed!r}")
    at_ref = _nbs_at_reference(stdout, ref)
    if at_ref > ref["bound"] * (1 + 1e-9):
        errors.append(f"Nash product {at_ref!r} exceeds the reference upper bound {ref['bound']!r}")
    return errors
