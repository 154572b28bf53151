import ast
import inspect
import json
import math
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from sailcost import model, roadmap
from sailcost.cli import main
from sailcost.errors import ParseError, UnitError, ValidationError
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
    write_text,
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


_BUDGET = MINIMAL.replace("beta0 = 0.2", "budget = 1e9 usd")


@pytest.mark.parametrize(
    ("text", "changes", "override", "error"),
    [
        (MINIMAL, {"mode": "turbo"}, "mode=turbo",
         "mode: expected one of ('optimized', 'non-optimized', 'strength-limited') "
         "(got 'turbo')"),
        (MINIMAL, {"beta_target": 1.5}, "target.beta0=1.5",
         "target.beta0: must satisfy 0 < beta0 < 1 (got 1.5)"),
        (_BUDGET, {"budget_target": -1.0}, "target.budget=-1 usd",
         "target.budget: must satisfy budget > 0 (got -1.0)"),
    ],
    ids=["mode", "beta0", "budget"],
)
def test_scenario_refuses_what_the_file_format_refuses(text, changes, override, error):
    """A Scenario built in code checks its mode and targets, and gives the
    line that a scenario file with the same value gives."""
    with pytest.raises(ValidationError) as built:
        _scenario(text).replace(**changes)
    with pytest.raises(ValidationError) as parsed:
        build_scenario(apply_overrides(parse_entries(text), [override]))
    assert str(built.value) == str(parsed.value) == error


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


def test_load_scenario_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.scn"
    path.write_bytes(MINIMAL.encode("utf-8") + "# café\n".encode("latin-1"))
    with pytest.raises(ParseError, match=rf"byte {len(MINIMAL) + 5} is not UTF-8"):
        load_scenario(path)


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


PATH_KERNELS = (model.cost_optimum, model.fixed_aperture_design, model.budget_design)
# Kernel parameters that no field feeds: each caller derives and gives them.
DERIVED = {"eta", "mass_term", "beam_energy"}
SRC = Path(__file__).resolve().parent.parent / "src" / "sailcost"


def _fed_kernels():
    """The kernels of ``model`` that the package passes to ``kernel_point``
    by name, as ``kernel_point(model.<kernel>, ...)``."""
    fed = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "kernel_point":
                first = node.args[0]
                if isinstance(first, ast.Attribute) and getattr(first.value, "id", None) == "model":
                    fed.add(getattr(model, first.attr))
    return fed


def test_kernel_names_match_the_path_kernels_one_to_one():
    """Every path-kernel parameter is the kernel name of exactly one field;
    every parameter of another kernel that a record function feeds through
    ``kernel_point`` is one too, or a derived value that its caller gives;
    and every kernel name is read by some kernel.  ``shape_factor`` sits
    on both the sail and the array, so a clash, or a renamed parameter,
    would otherwise surface as an error in a user's run."""
    names = [row[3] for row in FIELDS.values() if row[3] is not None]
    assert len(names) == len(set(names))
    fed = _fed_kernels()
    assert {
        model.launch, model.optimized_launch, model.strength_limited_geometry,
        model.cost_terms, model.budget_laser_metric,
    } <= fed
    read = set()
    for kernel in (*PATH_KERNELS, *fed):
        params = set(inspect.signature(kernel).parameters)
        allowed = set(names) | (set() if kernel in PATH_KERNELS else DERIVED)
        assert params <= allowed, (kernel.__name__, params - allowed)
        read |= params
    assert read - DERIVED == set(names)
    assert {"power", "yield_strength", "stress_factor"} <= read


def test_kernel_point_reads_each_field_under_its_kernel_name():
    sail = SailSpec(1e-6, 1000.0, 0.9, 0.2, shape_factor=0.5, diameter=3.0)
    metrics = CostMetrics(1.0, 1000.0, 2e-9, 3e-6, 0.5, 10.0)
    array = ArraySpec(1e-6, 1.5, 1.0, 0.9)
    point = kernel_point(model.fixed_aperture_design, Payload(1e-3), sail, array, metrics, beta=0.2)
    assert list(point) == list(inspect.signature(model.fixed_aperture_design).parameters)
    assert point == {
        "aperture": None, "beta": 0.2, "m0": 1e-3, "h": 1e-6, "rho": 1000.0, "xi": 0.5,
        "sail_diameter": 3.0, "reflectivity": 0.9, "absorptivity": 0.2, "wavelength": 1e-6,
        "diffraction_factor": 1.5, "array_shape": 1.0, "beam_fraction": 0.9, "a1": 1.0,
        "a2": 1000.0, "a3": 2e-9, "a4": 3e-6, "storage_efficiency": 0.5, "shots": 10.0,
    }
    # A target the kernel does not take is a kernel name, so it is ignored.
    budget = kernel_point(
        model.budget_design, Payload(1e-3), sail, array, metrics, beta=0.2, total_usd=4e10
    )
    assert budget["total_usd"] == 4e10 and "a3" not in budget and "beta" not in budget


def test_kernel_point_gives_by_kernel_name_and_refuses_other_names():
    sail = SailSpec(1e-6, 1000.0, 0.9, yield_strength=2e9, stress_factor=3.0)
    array = ArraySpec(1e-6, aperture=10.0, power=5e9)
    # A given value replaces the field's; a record not given leaves None.
    point = kernel_point(model.cost_terms, array=array, aperture=20.0, beam_energy=1.0)
    assert (point["power"], point["aperture"], point["beam_energy"]) == (5e9, 20.0, 1.0)
    assert point["a1"] is None
    assert kernel_point(
        model.strength_limited_geometry, Payload(1e-3), sail, array, eta=1.8
    ) == {
        "power": 5e9, "m0": 1e-3, "rho": 1000.0, "eta": 1.8, "yield_strength": 2e9,
        "stress_factor": 3.0,
    }
    with pytest.raises(TypeError, match="beta_target"):
        kernel_point(model.cost_optimum, Payload(1e-3), sail, array, beta_target=0.2)
    with pytest.raises(TypeError, match="eta"):
        kernel_point(model.cost_optimum, Payload(1e-3), sail, array, eta=1.8)


def test_sweep_grids():
    lin = SweepSpec("metrics.a1", 1.0, 3.0, 5)
    assert list(lin.values(range(lin.points))) == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])
    log = SweepSpec("array.d", 1.0, 100.0, 3, scale="log")
    assert list(log.values(range(log.points))) == pytest.approx([1.0, 10.0, 100.0])


def _grid_list(start, stop, n, scale):
    """The grid as a list built point by point, with both ends exact and
    every point between them clamped into ``[start, stop]``."""
    if scale == "log":
        ratio = stop / start
        inner = [start * ratio ** (i / (n - 1)) for i in range(1, n - 1)]
    else:
        step = (stop - start) / (n - 1)
        inner = [start + i * step for i in range(1, n - 1)]
    return [start, *(min(max(value, start), stop) for value in inner), stop]


@given(
    st.floats(min_value=-1e12, max_value=1e12),
    st.floats(min_value=1e-15, max_value=1e6),
    st.integers(min_value=2, max_value=20001),
    st.sampled_from(["linear", "log"]),
    st.data(),
)
def test_sweep_grid_ends_exactly_on_its_endpoints(start, span, points, scale, data):
    """Each point, read over the whole grid or over any range of its
    indices, as a chunk reads it, is the float that the list
    ``_grid_list`` builds holds there."""
    if scale == "log":
        start = abs(start) or 1.0
        stop = start * (1 + span)
    else:
        stop = start + span * max(1.0, abs(start))
    assume(start < stop)
    spec = SweepSpec("metrics.a1", start, stop, points, scale)
    expected = _grid_list(start, stop, points, scale)
    grid = list(spec.values(range(points)))
    assert grid == expected
    assert grid[0] == start and grid[-1] == stop
    assert all(start <= value <= stop for value in grid)
    bounds = st.none() | st.integers(-points - 2, points + 2)
    a, b = data.draw(bounds, label="a"), data.draw(bounds, label="b")
    step = data.draw(st.none() | st.integers(-3, 3).filter(bool), label="step")
    assert list(spec.values(range(points)[a:b:step])) == expected[a:b:step]


def _ulps_above(value, ulps):
    for _ in range(ulps):
        value = math.nextafter(value, math.inf)
    return value


@settings(max_examples=400)
@given(
    st.sampled_from(["linear", "log"]),
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=-1e12, max_value=1e12),
    st.integers(min_value=1, max_value=8) | st.floats(min_value=1e-6, max_value=1e6),
)
def test_every_grid_point_lies_between_its_ends(scale, points, start, apart):
    """Whether the ends are far apart or ``apart`` ulps apart, where a
    computed log point can round past ``stop``, every point lies in
    ``[start, stop]``, and the first and last are the ends themselves."""
    if scale == "log":
        start = abs(start) or 1.0
    if isinstance(apart, int):
        stop = _ulps_above(start, apart)
    elif scale == "log":
        stop = start * (1 + apart)
    else:
        stop = start + apart * max(1.0, abs(start))
    assume(start < stop)
    spec = SweepSpec("metrics.a1", start, stop, points, scale)
    grid = list(spec.values(range(points)))
    assert all(start <= value <= stop for value in grid)
    assert grid[0] == start and grid[-1] == stop


def test_sweep_validation():
    with pytest.raises(ValidationError):
        SweepSpec("name", 0.0, 1.0, 3)
    with pytest.raises(ValidationError):
        SweepSpec("array.d", 5.0, 1.0, 3)
    with pytest.raises(ValidationError):
        SweepSpec("array.d", 1.0, 2.0, 1)
    with pytest.raises(ValidationError):
        SweepSpec("array.d", -1.0, 2.0, 3, scale="log")


# A result reaches ``write_text`` only through a CLI command, which
# formats it and refuses a non-finite value first, so the output contract
# is checked through the CLI.
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EX1, EX3 = str(FIXTURES / "example1.scn"), str(FIXTURES / "example3.scn")


def test_csv_output_deterministic(tmp_path):
    """A roadmap table written to a file, twice, is the golden stdout
    table byte for byte: LF line endings on every platform."""
    golden = Path(__file__).resolve().parent / "golden" / "roadmap-example3.csv"
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["roadmap", EX3, "--stages", "1,20", "-o", str(path)]) == 0
        assert path.read_bytes() == golden.read_bytes()


def test_csv_floats_round_trip(capsys):
    """Each roadmap cell reads back as the exact float of its stage."""
    stages = ["0.1", "1", "20"]
    assert main(["roadmap", EX3, "--stages", ",".join(stages)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    scenario = load_scenario(EX3)
    plan = roadmap.plan_stages(
        [float(x) for x in stages], scenario.budget_target, scenario.curve,
        scenario.payload, scenario.sail, scenario.array, scenario.metrics,
    )
    assert header == "designation,beta0,entry_month,a1_usd_per_W,d_m,P0_W,C_T"
    assert len(lines) == len(plan.stages)
    for line, stage in zip(lines, plan.stages):
        design = stage.design
        assert [float(cell) for cell in line.split(",")] == [
            stage.designation, design.beta, stage.entry_month,
            stage.metrics.laser_usd_per_watt, design.aperture, design.power,
            design.breakdown.total,
        ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_results_are_refused_and_nothing_is_written(
    capsys, monkeypatch, tmp_path, fmt, bad
):
    """A non-finite value in a roadmap table (CSV) or an energy document
    (JSON) stops the run with one numeric_error line, and no file."""
    path = tmp_path / "out"
    if fmt == "csv":
        plan_stages = roadmap.plan_stages

        def bad_plan(*args):
            plan = plan_stages(*args)
            *stages, last = plan.stages
            return plan.replace(stages=(*stages, last.replace(entry_month=bad)))

        monkeypatch.setattr(roadmap, "plan_stages", bad_plan)
        argv, message = ["roadmap", EX3, "--stages", "1,20"], "entry_month is non-finite"
    else:
        monkeypatch.setattr("sailcost.cli.storage_cost", lambda *args: bad)
        argv, message = ["energy", EX1], "non-finite result"
    assert main([*argv, "-o", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"numeric_error: {message}; inputs out of numeric range\n"
    )
    assert not path.exists()


def test_json_output(tmp_path):
    path = tmp_path / "out.json"
    assert main(["optimize", EX1, "-o", str(path)]) == 0
    data = path.read_bytes()
    assert data.endswith(b"\n")
    assert b"\r" not in data
    assert [doc["scenario"] for doc in json.loads(data)] == ["example1"]


def test_unwritable_destination(tmp_path):
    with pytest.raises(ValidationError, match="cannot write"):
        write_text(["a\n"], str(tmp_path / "no" / "dir" / "x.csv"))
