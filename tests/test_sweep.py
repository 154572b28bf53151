"""The sweep path: rows straight from the float kernels must equal, cell
for cell, what the public record functions give at each point, and a
failing point must fail as the record path does."""

import contextlib
import io
import math
import os
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sailcost import KinematicsResult, model
from sailcost.cli import main
from sailcost.costs import closed_form_optimum
from sailcost.errors import DegenerateOptimumError, SailcostError, ValidationError
from sailcost.kinematics import required_power
from sailcost.optimize import (
    _SWEEP_COLUMNS,
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
# The parameter record class of each Scenario attribute.
RECORD_CLASSES = {"payload": Payload, "sail": SailSpec, "array": ArraySpec, "metrics": CostMetrics}
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
# Record fields that may be None.
OPTIONAL = ("diameter", "yield_strength", "aperture", "power")
# Fields the kernel of each path never reads, by the target that selects
# the path: a sweep of one is rejected, since only its first column
# would change.
UNREAD = {
    "target.beta0": {"sail.D", "sail.S_y", "sail.s", "array.P0", "target.budget"},
    "target.budget": {
        "sail.S_y", "sail.s", "array.P0",
        "metrics.a3", "metrics.a4", "metrics.eps_storage", "metrics.N_shot",
    },
}


def _scenario(example, overrides):
    with open(os.path.join(FIXTURES, f"{example}.scn"), encoding="utf-8") as fh:
        return build_scenario(apply_overrides(parse_entries(fh.read()), overrides))


def _record_row(scenario, axis, value):
    """One sweep row from the public record functions."""
    point = scenario_with(scenario, axis, value)
    array = point.array
    speed = []
    if point.beta_target is None:
        design = maximize_speed_fixed_cost(
            point.budget_target, point.payload, point.sail, array, point.metrics
        )
        aperture, power, breakdown = design.aperture, design.power, design.breakdown
        speed = [design.beta]
    elif axis == "array.d":
        aperture = value
        breakdown = constrained_cost(
            value, point.beta_target, point.payload, point.sail, array, point.metrics
        )
        power = required_power(point.beta_target, array, point.sail, point.payload)
    else:
        require_cost_mode(point.mode)
        design = closed_form_optimum(
            point.beta_target, point.payload, point.sail, array, point.metrics
        )
        aperture, power, breakdown = design.aperture, design.power, design.breakdown
    row = [
        aperture, power, breakdown.laser, breakdown.optics, breakdown.energy,
        breakdown.storage, breakdown.total,
        model.aperture_flux(power, array.shape_factor, aperture), *speed,
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
    # The third value is out of range for every field.
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
    at_speed = scenario.beta_target is not None or axis == "target.beta0"
    target = "target.beta0" if at_speed else "target.budget"
    for grid in _grids(axis):
        got = _outcome(lambda: sweep_lines(scenario, axis, grid))
        want = _outcome(lambda: [_record_row(scenario, axis, value) for value in grid])
        if axis in UNREAD[target]:
            assert got == (
                ValidationError,
                f"sweep: {axis} cannot be swept under {target}: the rows do not depend on it",
            )
            if not isinstance(want, tuple):
                assert len({tuple(row[1:]) for row in want}) == 1
            continue
        if isinstance(want, tuple):
            assert got == want
            continue
        header, *lines = got
        assert header.split(",")[0] == ("d_m" if axis == "array.d" else axis)
        assert [[float(cell) for cell in line.split(",")] for line in lines] == want


@pytest.mark.parametrize(
    ("axis", "start", "stop"),
    [
        ("payload.m0", "0.5 g", "2 g"),
        ("sail.h", "0.5 um", "2 um"),
        ("sail.rho", "500 kg/m3", "3000 kg/m3"),
        ("array.lambda", "0.5 um", "2 um"),
    ],
)
def test_budget_sweep_rows_show_the_speed(capsys, axis, start, stop):
    """These fields move only the speed a budget buys, so the rows differ
    only in the beta0 column."""
    argv = [
        "sweep", os.path.join(FIXTURES, "example3.scn"), "--axis", axis,
        "--from", start, "--to", stop, "--points", "2",
    ]
    assert main(argv) == 0
    header, first, last = capsys.readouterr().out.splitlines()
    assert header == f"{axis},d_m,P0_W,C1,C2,C3,C4,C_T,F_ap,beta0"
    assert first.split(",")[1:] != last.split(",")[1:]
    # More mass to push, or a wider beam, is slower.
    assert float(first.split(",")[-1]) > float(last.split(",")[-1])


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


# One sweep on each path: re-optimize, fixed aperture, fixed budget.
SWEEP_PATHS = pytest.mark.parametrize(
    ("example", "axis", "start", "stop"),
    [
        ("example1", "metrics.a1", "0.1 usd/W", "10 usd/W"),
        ("example1", "array.d", "1 km", "100 km"),
        ("example3", "metrics.a2", "100 usd/m2", "10000 usd/m2"),
    ],
)


def _sweep_cli(example, axis, start, stop, points, *extra):
    return _cli(
        "sweep", os.path.join(FIXTURES, f"{example}.scn"), "--axis", axis,
        "--from", start, "--to", stop, "--points", str(points), "--log", *extra,
    )


@SWEEP_PATHS
def test_sweep_builds_no_records_per_point(monkeypatch, example, axis, start, stop):
    """A 1000-point sweep validates the four records of the scenario load
    and the swept record at the grid's two extremes, the same records as a
    10-point run of the same sweep: nothing per point."""
    built = []
    for cls in RECORD_CLASSES.values():
        def counted(record, original=cls.__post_init__):
            built.append(type(record).__name__)
            original(record)

        monkeypatch.setattr(cls, "__post_init__", counted)
    swept = RECORD_CLASSES[SWEEP_FIELDS[axis][1]].__name__
    runs = []
    for points in (1000, 10):
        built.clear()
        code, out, _ = _cli(
            "sweep", os.path.join(FIXTURES, f"{example}.scn"), "--axis", axis,
            "--from", start, "--to", stop, "--points", str(points), "--log",
        )
        assert code == 0 and out.count("\n") == points + 1
        runs.append(sorted(built))
    assert runs[0] == runs[1] == sorted(
        ["ArraySpec", "CostMetrics", "Payload", "SailSpec", swept, swept]
    )


@SWEEP_PATHS
def test_sweep_builds_no_kinematics_records_per_point(monkeypatch, example, axis, start, stop):
    """The kernels return floats: a sweep builds no KinematicsResult."""
    built = []

    def counted(record, *args, original=KinematicsResult.__init__, **kwargs):
        built.append(record)
        original(record, *args, **kwargs)

    monkeypatch.setattr(KinematicsResult, "__init__", counted)
    code, out, _ = _sweep_cli(example, axis, start, stop, 1000)
    assert code == 0 and out.count("\n") == 1001
    assert built == []


@SWEEP_PATHS
def test_sweep_memory_peak_is_under_twice_the_table(tmp_path, example, axis, start, stop):
    """The table is held once, as its lines, and written line by line:
    no joined string or encoded copy of it is made."""
    path = tmp_path / "rows.csv"
    # Warm up first: the first run in a process also pays stdlib imports
    # (argparse's gettext, locale) that are not part of the table.
    _sweep_cli(example, axis, start, stop, 2, "-o", str(path))
    tracemalloc.start()
    try:
        result = _sweep_cli(example, axis, start, stop, 5000, "-o", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (0, "", "")
    assert peak <= 2.0 * path.stat().st_size


def test_sweep_ends_exactly_on_its_upper_bound():
    """The last grid point is --to itself: computed as start + 7 steps it
    came out as 1.0000000000000002, past eps_b <= 1."""
    code, out, err = _cli(
        "sweep", os.path.join(FIXTURES, "example1.scn"), "--axis", "array.eps_b",
        "--from", "0.1", "--to", "1", "--points", "8",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 9 and lines[1].startswith("0.1,") and lines[-1].startswith("1.0,")


# Sweeps that cross a record bound, each with the error line and exit
# code it had when every point was checked: the check that runs once per
# sweep must not change which error is reported.
CROSSING_SWEEPS = [
    ("example1", "array.eps_b", "0.5", "1.5",
     "array.eps_b: must satisfy 0 < eps_b <= 1 (got 1.25)"),
    ("example3", "array.eps_b", "0.5", "1.5",
     "array.eps_b: must satisfy 0 < eps_b <= 1 (got 1.25)"),
    ("example1", "sail.eps_r", "0.5", "1.5",
     "sail.eps_r: must satisfy 0 <= eps_r <= 1 (got 1.25)"),
    ("example3", "sail.eps_r", "0.5", "1.5",
     "sail.eps_r: must satisfy 0 <= eps_r <= 1 (got 1.25)"),
    ("example1", "metrics.eps_storage", "0.5", "1.5",
     "metrics.eps_storage: must satisfy 0 < eps_storage <= 1 (got 1.25)"),
    ("example1", "metrics.N_shot", "0.5", "10",
     "metrics.N_shot: must satisfy N_shot >= 1 (got 0.5)"),
    ("example1", "payload.m0", "-1 g", "1 g", "payload.m0: must satisfy m0 > 0 (got -0.001)"),
    ("example3", "payload.m0", "-1 g", "1 g", "payload.m0: must satisfy m0 > 0 (got -0.001)"),
]


@pytest.mark.parametrize(("example", "axis", "start", "stop", "message"), CROSSING_SWEEPS)
def test_sweep_crossing_a_bound_keeps_its_error(example, axis, start, stop, message):
    code, out, err = _cli(
        "sweep", os.path.join(FIXTURES, f"{example}.scn"), "--axis", axis,
        "--from", start, "--to", stop, "--points", "5",
    )
    assert (code, out, err) == (1, "", f"validation_error: {message}\n")


@pytest.mark.parametrize(
    ("axis", "grid", "error"),
    [
        # A bound crossed mid-grid on a lower bound, which a CLI grid
        # (from < to) can cross only at its first point.
        ("metrics.N_shot", [10.0, 5.0, 0.5, 2.0],
         (ValidationError, "metrics.N_shot: must satisfy N_shot >= 1 (got 0.5)")),
        ("payload.m0", [1e-3, 5e-4, -1e-3, 1e-3],
         (ValidationError, "payload.m0: must satisfy m0 > 0 (got -0.001)")),
        # The kernel refuses a valid a1 = 0 before the record refuses -1.
        ("metrics.a1", [0.0, -1.0],
         (DegenerateOptimumError,
          "closed-form optimum needs a1 > 0 and a2 > 0; the minimum is at a boundary "
          "otherwise - use the bounded numeric search")),
        # A NaN lies between no extremes; its record refuses it.
        ("metrics.a1", [1.0, math.nan, 2.0],
         (ValidationError, "metrics.a1: must satisfy a1 >= 0 (got nan)")),
    ],
)
def test_sweep_reports_the_first_failing_point(axis, grid, error):
    scenario = _scenario("example1", [])
    assert _outcome(lambda: sweep_lines(scenario, axis, grid)) == error


def test_empty_grid_gives_the_header_alone():
    header = f"metrics.a1,{_SWEEP_COLUMNS}\n"
    assert sweep_lines(_scenario("example1", []), "metrics.a1", []) == [header]


@pytest.mark.parametrize(
    ("example", "axis", "start", "stop"),
    [
        ("example1", "metrics.a1", 0.1, 10.0),
        ("example1", "array.d", 1e3, 1e5),
        ("example1", "sail.h", 1e-7, 1e-5),
        ("example3", "payload.m0", 1e-4, 1e-2),
    ],
)
def test_valid_sweep_checks_its_record_at_most_twice(monkeypatch, example, axis, start, stop):
    cls = RECORD_CLASSES[SWEEP_FIELDS[axis][1]]
    scenario = _scenario(example, [])
    calls = []

    def counted(record, original=cls.__post_init__):
        calls.append(record)
        original(record)

    monkeypatch.setattr(cls, "__post_init__", counted)
    grid = [start * (stop / start) ** (i / 999) for i in range(1000)]
    assert len(sweep_lines(scenario, axis, grid)) == 1001
    assert len(calls) <= 2


# The bounds of the record checks, and values next to them.
_EDGES = [-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0]


def _values(lo, hi):
    """Floats in [lo, hi], and the edges."""
    return st.sampled_from(_EDGES) | st.floats(lo, hi)


# Every sweepable field of a parameter record.
CHECKED_FIELDS = [axis for axis, row in SWEEP_FIELDS.items() if row[1] in RECORD_CLASSES]
_AXES = {(row[1], row[2]): axis for axis, row in SWEEP_FIELDS.items()}
# Values of either sign from 1e-12 to 1e12, sixteen to a decade.
_LADDER = [sign * 10 ** (k / 16) for sign in (-1.0, 1.0) for k in range(-192, 193)]


@pytest.mark.parametrize("axis", CHECKED_FIELDS)
@settings(max_examples=10)
@given(data=st.data())
def test_record_checks_accept_an_interval_of_each_field(axis, data):
    """What lets a sweep check its record only at the grid's extremes: the
    values of one field that its record accepts form an interval,
    whatever the record's other fields are.  So a record that builds at lo
    and at hi builds at every value in between."""
    _, group, attr, _ = SWEEP_FIELDS[axis]
    cls = RECORD_CLASSES[group]
    fields = {}
    for name in cls._fields:
        values = _values(*RANGES[_AXES[group, name]])
        fields[name] = data.draw(values | st.none() if name in OPTIONAL else values, label=name)
    lo, hi = RANGES[axis]
    even = [lo + (hi - lo) * i / 64 for i in range(65)]
    drawn = data.draw(st.lists(_values(lo, hi), max_size=30), label="values")
    candidates = sorted({*_EDGES, *_LADDER, *even, *drawn})

    def passes(value):
        try:
            cls(**{**fields, attr: value})
        except ValidationError:
            return False
        return True

    accepted = [i for i, value in enumerate(candidates) if passes(value)]
    if accepted:
        assert accepted == list(range(accepted[0], accepted[-1] + 1))
