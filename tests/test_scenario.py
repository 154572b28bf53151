import inspect
import io
import json
import math
import textwrap

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from sailcost import model
from sailcost.errors import NumericRangeError, ParseError, UnitError, ValidationError
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec
from sailcost.scenario import (
    FIELDS,
    MODES,
    Scenario,
    SweepSpec,
    TechCurve,
    apply_overrides,
    build_scenario,
    dump_scenario,
    kernel_point,
    load_scenario,
    parse_entries,
    scenario_with,
    write_results,
)

MINIMAL = textwrap.dedent("""\
    name = t
    mode = optimized
    [target]
    beta0 = 0.2
    [payload]
    m0 = 1 g
    [sail]
    h = 1 um
    rho = 1 g/cc
    eps_r = 1
    [array]
    lambda = 1 um
    [metrics]
    a1 = 1 usd/W
    a2 = 1000 usd/m2
""")


def _scenario(text=MINIMAL):
    return build_scenario(parse_entries(text))


def test_minimal_scenario_builds_with_si_values_and_defaults():
    sc = _scenario()
    assert sc.payload.mass == 1e-3
    assert sc.sail.thickness == 1e-6
    assert sc.sail.density == 1000.0
    assert sc.array.wavelength == 1e-6
    assert sc.array.diffraction_factor == 1.22
    assert sc.array.shape_factor == math.pi / 4
    assert sc.metrics.laser_usd_per_watt == 1.0
    assert sc.beta_target == 0.2
    assert sc.budget_target is None
    assert sc.curve is None


def test_comments_and_blank_lines_ignored():
    sc = _scenario("# header\n\n" + MINIMAL + "\n# trailing\n")
    assert sc.name == "t"


def test_bare_number_on_dimensioned_field_rejected_with_line():
    bad = MINIMAL.replace("h = 1 um", "h = 1e-6")
    with pytest.raises(UnitError, match="missing unit"):
        _scenario(bad)


def test_wrong_dimension_rejected():
    bad = MINIMAL.replace("h = 1 um", "h = 1 g")
    with pytest.raises(UnitError, match="mass unit"):
        _scenario(bad)


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ValidationError, match="unknown key"):
        _scenario(MINIMAL + "[sail]\nwingspan = 3 m\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_entries(MINIMAL + "[sail]\nh = 2 um\n")


def test_missing_required_key():
    bad = MINIMAL.replace("rho = 1 g/cc\n", "")
    with pytest.raises(ValidationError, match="sail.rho"):
        _scenario(bad)


def test_garbage_line_reports_position():
    with pytest.raises(ParseError, match="line 2"):
        parse_entries("name = x\nnot a statement\n")


def test_exactly_one_target_required():
    both = MINIMAL.replace("beta0 = 0.2", "beta0 = 0.2\nbudget = 1e9 usd")
    with pytest.raises(ValidationError, match="exactly one"):
        _scenario(both)
    neither = MINIMAL.replace("beta0 = 0.2\n", "")
    with pytest.raises(ValidationError, match="exactly one"):
        _scenario(neither)


def test_reserved_cost_items_must_be_zero():
    ok = MINIMAL + "[metrics]\na5 = 0\n"
    assert _scenario(ok).name == "t"
    with pytest.raises(ValidationError, match="reserved"):
        _scenario(MINIMAL + "[metrics]\na5 = 3\n")


def test_field_validation_points_at_field():
    bad = MINIMAL.replace("eps_r = 1", "eps_r = 1.5")
    with pytest.raises(ValidationError, match="sail.eps_r"):
        _scenario(bad)


@pytest.mark.parametrize(
    "overrides, error",
    [
        (["metrics.N_shot=inf"], ValidationError),
        (["sail.xi=inf"], ValidationError),
        (["techcurve.a1_base=100 usd/W", "techcurve.halving_months=nan"], ValidationError),
        (["sail.h=inf um"], UnitError),
        (["metrics.a5=nan"], ValidationError),
    ],
)
def test_non_finite_values_rejected_for_every_field_kind(overrides, error):
    with pytest.raises(error):
        build_scenario(apply_overrides(parse_entries(MINIMAL), overrides))


def test_overrides_merge_and_revalidate():
    entries = apply_overrides(parse_entries(MINIMAL), ["metrics.a1=0.1 usd/W"])
    assert build_scenario(entries).metrics.laser_usd_per_watt == 0.1
    with pytest.raises(UnitError):
        build_scenario(apply_overrides(parse_entries(MINIMAL), ["sail.h=2"]))


def test_dump_load_fixed_point():
    sc = _scenario(MINIMAL + "[techcurve]\na1_base = 100 usd/W\n")
    text = dump_scenario(sc)
    again = build_scenario(parse_entries(text))
    assert again == sc
    assert dump_scenario(again) == text


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_FRACTION = st.floats(min_value=0.0, max_value=1.0)
_OPEN_FRACTION = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def _scenarios(draw):
    eps_r, alpha = draw(_FRACTION), draw(_FRACTION)
    a1, a2 = draw(_NON_NEGATIVE), draw(_NON_NEGATIVE)
    assume(model.coupling(eps_r, alpha) > 0 and (a1 > 0 or a2 > 0))
    beta = draw(st.none() | _OPEN_FRACTION.filter(lambda b: b < 1))
    return Scenario(
        name="s",
        mode=draw(st.sampled_from(MODES)),
        payload=Payload(draw(_POSITIVE)),
        sail=SailSpec(
            draw(_POSITIVE), draw(_POSITIVE), eps_r, alpha, draw(_POSITIVE),
            draw(st.none() | _POSITIVE), draw(st.none() | _POSITIVE), draw(_POSITIVE),
        ),
        array=ArraySpec(
            draw(_POSITIVE), draw(st.floats(min_value=1.0, allow_infinity=False)),
            draw(_POSITIVE), draw(_OPEN_FRACTION),
            draw(st.none() | _POSITIVE), draw(st.none() | _NON_NEGATIVE),
        ),
        metrics=CostMetrics(
            a1, a2, draw(_NON_NEGATIVE), draw(_NON_NEGATIVE), draw(_OPEN_FRACTION),
            draw(st.floats(min_value=1.0, allow_infinity=False)),
        ),
        beta_target=beta,
        budget_target=draw(_POSITIVE) if beta is None else None,
        curve=draw(st.none() | st.builds(
            TechCurve, _POSITIVE, st.floats(allow_nan=False, allow_infinity=False), _POSITIVE,
        )),
    )


# The first text draw in a fresh checkout builds Hypothesis's unicode
# table, which takes seconds once.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(_scenarios(), st.text())
def test_dump_load_round_trip(scenario, name):
    """A scenario with any name the record accepts loads back from its
    dump unchanged, and dumps again to the same text; the record refuses
    exactly the names the format cannot hold."""
    try:
        scenario = scenario.replace(name=name)
    except ValidationError:
        assert not name or "#" in name or name != name.strip() or len(name.splitlines()) > 1
        return
    text = dump_scenario(scenario)
    again = build_scenario(parse_entries(text))
    assert again == scenario
    assert dump_scenario(again) == text


@pytest.mark.parametrize("name", ["", "0\r", "\r", "a\nb", "a#b", " a", "a\t"])
def test_scenario_refuses_names_a_dump_cannot_hold(name):
    with pytest.raises(ValidationError, match="^name: "):
        _scenario().replace(name=name)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "case.scn"
    path.write_text(MINIMAL)
    assert load_scenario(path).name == "t"


def test_scenario_with_replaces_nested_field():
    sc = _scenario()
    varied = scenario_with(sc, "metrics.a1", 0.5)
    assert varied.metrics.laser_usd_per_watt == 0.5
    assert varied.sail == sc.sail
    assert scenario_with(sc, "payload.m0", 2e-3).payload.mass == 2e-3


PATH_KERNELS = (model.cost_optimum, model.fixed_aperture_design, model.budget_design)


def test_kernel_names_match_the_path_kernels_one_to_one():
    """Every path-kernel parameter is the kernel name of exactly one field,
    and every kernel name is read by some path kernel.  ``shape_factor``
    sits on both the sail and the array, so a clash, or a renamed
    parameter, would otherwise surface as an error in a user's run."""
    names = [row[3] for row in FIELDS.values() if row[3] is not None]
    assert len(names) == len(set(names))
    read = set()
    for kernel in PATH_KERNELS:
        params = set(inspect.signature(kernel).parameters)
        assert params <= set(names), (kernel.__name__, params - set(names))
        read |= params
    assert read == set(names)


def test_kernel_point_reads_each_field_under_its_kernel_name():
    sail = SailSpec(1e-6, 1000.0, 0.9, 0.2, shape_factor=0.5, diameter=3.0)
    metrics = CostMetrics(1.0, 1000.0, 2e-9, 3e-6, 0.5, 10.0)
    point = kernel_point(
        model.fixed_aperture_design, Payload(1e-3), sail, 1e-6, 1.5, 1.0, 0.9, metrics,
        beta_target=0.2,
    )
    assert list(point) == list(inspect.signature(model.fixed_aperture_design).parameters)
    assert point == {
        "aperture": None, "beta": 0.2, "m0": 1e-3, "h": 1e-6, "rho": 1000.0, "xi": 0.5,
        "sail_diameter": 3.0, "reflectivity": 0.9, "absorptivity": 0.2, "wavelength": 1e-6,
        "diffraction_factor": 1.5, "array_shape": 1.0, "beam_fraction": 0.9, "a1": 1.0,
        "a2": 1000.0, "a3": 2e-9, "a4": 3e-6, "storage_efficiency": 0.5, "shots": 10.0,
    }
    budget = kernel_point(
        model.budget_design, Payload(1e-3), sail, 1e-6, 1.5, 1.0, 0.9, metrics,
        budget_target=4e10,
    )
    assert budget["total_usd"] == 4e10 and "a3" not in budget


def test_sweep_grids():
    lin = SweepSpec("metrics.a1", 1.0, 3.0, 5)
    assert lin.grid() == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])
    log = SweepSpec("array.d", 1.0, 100.0, 3, scale="log")
    assert log.grid() == pytest.approx([1.0, 10.0, 100.0])


@given(
    st.floats(min_value=-1e12, max_value=1e12),
    st.floats(min_value=1e-15, max_value=1e6),
    st.integers(min_value=2, max_value=300),
    st.sampled_from(["linear", "log"]),
)
def test_sweep_grid_ends_exactly_on_its_endpoints(start, span, points, scale):
    if scale == "log":
        start = abs(start) or 1.0
        stop = start * (1 + span)
    else:
        stop = start + span * max(1.0, abs(start))
    assume(start < stop)
    grid = SweepSpec("metrics.a1", start, stop, points, scale).grid()
    assert len(grid) == points
    assert grid[0] == start and grid[-1] == stop
    assert all(start <= value <= stop for value in grid)


def test_sweep_validation():
    with pytest.raises(ValidationError):
        SweepSpec("name", 0.0, 1.0, 3)
    with pytest.raises(ValidationError):
        SweepSpec("array.d", 5.0, 1.0, 3)
    with pytest.raises(ValidationError):
        SweepSpec("array.d", 1.0, 2.0, 1)
    with pytest.raises(ValidationError):
        SweepSpec("array.d", -1.0, 2.0, 3, scale="log")


def test_csv_output_deterministic():
    rows = [{"a": 1.0, "b": 0.1}, {"a": 2.0, "b": 1e22}]
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_results(rows, "csv", buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    assert bufs[0] == "a,b\n1.0,0.1\n2.0,1e+22\n"


def test_csv_floats_round_trip():
    value = 193085264928.40485
    buf = io.StringIO()
    write_results([{"x": value}], "csv", buf)
    cell = buf.getvalue().splitlines()[1]
    assert float(cell) == value


def test_csv_rejects_ragged_records():
    with pytest.raises(ValidationError, match="homogeneous"):
        write_results([{"a": 1}, {"b": 2}], "csv", io.StringIO())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_results_are_refused_and_nothing_is_written(tmp_path, fmt, bad):
    path = tmp_path / "out"
    with pytest.raises(NumericRangeError, match="non-finite"):
        write_results([{"a": 1.0}, {"a": bad}], fmt, str(path))
    assert not path.exists()


def test_json_output(tmp_path):
    path = tmp_path / "out.json"
    n = write_results([{"a": 1.5}], "json", str(path))
    data = path.read_bytes()
    assert len(data) == n
    assert data.endswith(b"\n")
    assert b"\r" not in data
    assert json.loads(data) == [{"a": 1.5}]


def test_unwritable_destination(tmp_path):
    with pytest.raises(ValidationError, match="cannot write"):
        write_results([{"a": 1}], "json", str(tmp_path / "no" / "dir" / "x.json"))
