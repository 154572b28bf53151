"""The sweep path: rows straight from the float kernels must equal, cell
for cell, what the public record functions give at each point, and a
failing point must fail as the record path does."""

import contextlib
import io
import os
import warnings

import pytest

from sailcost import model
from sailcost.cli import main
from sailcost.costs import closed_form_optimum
from sailcost.errors import SailcostError
from sailcost.kinematics import required_power
from sailcost.optimize import (
    constrained_cost,
    maximize_speed_fixed_cost,
    require_cost_mode,
    sweep_lines,
)
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec
from sailcost.scenario import (
    SWEEP_FIELDS,
    apply_overrides,
    build_scenario,
    parse_entries,
    scenario_with,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
EXAMPLES = ("example1", "example2", "example3")
# Non-default values for every term the defaults leave at 0 or 1.
VARIED = [
    "metrics.a3=1.4e-8 usd/J", "metrics.a4=2.8e-5 usd/J", "metrics.eps_storage=0.8",
    "metrics.N_shot=100", "sail.eps_r=0.9", "sail.alpha=0.2", "array.xi_arr=1",
    "array.eps_b=0.9", "array.alpha_d=1.5",
]
# A valid SI range for every sweepable field.
RANGES = {
    "payload.m0": (1e-4, 1e-2), "sail.h": (1e-7, 1e-5), "sail.rho": (500.0, 3000.0),
    "sail.eps_r": (0.5, 1.0), "sail.alpha": (0.0, 1.0), "sail.xi": (0.5, 1.0),
    "sail.D": (1.0, 100.0), "sail.S_y": (1e8, 1e10), "sail.s": (0.5, 2.0),
    "array.lambda": (5e-7, 2e-6), "array.alpha_d": (1.0, 2.0), "array.xi_arr": (0.5, 1.0),
    "array.eps_b": (0.5, 1.0), "array.d": (1e3, 1e5), "array.P0": (1e9, 1e12),
    "metrics.a1": (0.1, 10.0), "metrics.a2": (100.0, 1e4), "metrics.a3": (0.0, 1e-7),
    "metrics.a4": (0.0, 1e-4), "metrics.eps_storage": (0.5, 1.0), "metrics.N_shot": (1.0, 1e3),
    "target.beta0": (0.05, 0.45), "target.budget": (1e10, 1e12),
}


def _scenario(example, overrides):
    with open(os.path.join(FIXTURES, f"{example}.scn"), encoding="utf-8") as fh:
        return build_scenario(apply_overrides(parse_entries(fh.read()), overrides))


def _record_row(scenario, axis, value):
    """One sweep row from the public record functions."""
    point = scenario_with(scenario, axis, value)
    array = point.array
    geom = (array.wavelength, array.diffraction_factor, array.shape_factor, array.beam_fraction)
    if point.beta_target is None:
        design = maximize_speed_fixed_cost(
            point.budget_target, point.payload, point.sail, *geom, point.metrics
        )
        aperture, power, breakdown = design.aperture, design.power, design.breakdown
    elif axis == "array.d":
        aperture = value
        breakdown = constrained_cost(
            value, point.beta_target, point.payload, point.sail, *geom, point.metrics
        )
        power = required_power(point.beta_target, array, point.sail, point.payload)
    else:
        require_cost_mode(point.mode)
        design = closed_form_optimum(
            point.beta_target, point.payload, point.sail, *geom, point.metrics
        )
        aperture, power, breakdown = design.aperture, design.power, design.breakdown
    row = [
        aperture, power, breakdown.laser, breakdown.optics, breakdown.energy,
        breakdown.storage, breakdown.total,
        model.aperture_flux(power, array.shape_factor, aperture),
    ]
    return row if axis == "array.d" else [value] + row


def _outcome(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn()
        except SailcostError as exc:
            return type(exc), str(exc)


def _grids(axis):
    lo, hi = RANGES[axis]
    even = [lo + i * (hi - lo) / 4 for i in range(5)]
    # The third value is out of range for every field but target.budget
    # under a speed target, which the re-optimization ignores.
    return [even, [lo, hi, -hi, lo]]


CASES = [
    pytest.param(example, overrides, axis, id=f"{example}-{label}-{axis}")
    for example in EXAMPLES
    for label, overrides in (("base", []), ("varied", VARIED))
    for axis in SWEEP_FIELDS
    # The budget sets the array size; that sweep is rejected (test_cli).
    if not (example == "example3" and axis == "array.d")
]


@pytest.mark.parametrize(("example", "overrides", "axis"), CASES)
def test_sweep_rows_equal_record_functions(example, overrides, axis):
    scenario = _scenario(example, overrides)
    for grid in _grids(axis):
        got = _outcome(lambda: sweep_lines(scenario, axis, grid))
        want = _outcome(lambda: [_record_row(scenario, axis, value) for value in grid])
        if isinstance(want, tuple):
            assert got == want
            continue
        header, *lines = got
        assert header.split(",")[0] == ("d_m" if axis == "array.d" else axis)
        assert [[float(cell) for cell in line.split(",")] for line in lines] == want


def test_every_path_and_outcome_is_covered():
    """The differential cases reach all three paths, rows and errors."""
    kinds = set()
    for case in CASES:
        example, overrides, axis = case.values
        scenario = _scenario(example, overrides)
        for grid in _grids(axis):
            result = _outcome(lambda: sweep_lines(scenario, axis, grid))
            kinds.add(result[0] if isinstance(result, tuple) else "rows")
    assert "rows" in kinds and len(kinds) >= 4


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_failing_point_writes_nothing(tmp_path):
    path = tmp_path / "rows.csv"
    code, out, err = _cli(
        "sweep", os.path.join(FIXTURES, "example1.scn"), "--axis", "target.beta0",
        "--from", "0.3", "--to", "1.2", "--points", "4", "-o", str(path),
    )
    assert (code, out, err) == (1, "", "domain_error: beta must be in (0, 1) (got 1.2)\n")
    assert not path.exists()


def test_sweep_to_missing_directory_is_a_validation_error(tmp_path):
    path = tmp_path / "missing" / "rows.csv"
    code, out, err = _cli(
        "sweep", os.path.join(FIXTURES, "example1.scn"), "--axis", "metrics.a1",
        "--from", "0.1 usd/W", "--to", "1 usd/W", "--points", "3", "-o", str(path),
    )
    assert code == 1 and out == ""
    assert err.startswith(f"validation_error: cannot write {str(path)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    ("example", "axis", "start", "stop"),
    [
        ("example1", "metrics.a1", "0.1 usd/W", "10 usd/W"),
        ("example1", "array.d", "1 km", "100 km"),
        ("example3", "metrics.a2", "100 usd/m2", "10000 usd/m2"),
    ],
)
def test_sweep_builds_no_records_per_point(monkeypatch, example, axis, start, stop):
    """A 1000-point sweep validates the four records of the scenario load
    and nothing per point."""
    built = []
    for cls in (SailSpec, ArraySpec, Payload, CostMetrics):
        def counted(record, original=cls.__post_init__):
            built.append(type(record).__name__)
            original(record)

        monkeypatch.setattr(cls, "__post_init__", counted)
    code, out, _ = _cli(
        "sweep", os.path.join(FIXTURES, f"{example}.scn"), "--axis", axis,
        "--from", start, "--to", stop, "--points", "1000", "--log",
    )
    assert code == 0 and out.count("\n") == 1001
    assert sorted(built) == ["ArraySpec", "CostMetrics", "Payload", "SailSpec"]
