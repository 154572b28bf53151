import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from sailcost.checks import CheckResult
from sailcost.cli import main
from sailcost.energy import energy_per_shot
from sailcost.scenario import FIELDS

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
EX1 = os.path.join(FIXTURES, "example1.scn")
EX2 = os.path.join(FIXTURES, "example2.scn")
EX3 = os.path.join(FIXTURES, "example3.scn")


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_optimize_example1(capsys):
    code, out, err = _run(capsys, "optimize", EX1)
    assert code == 0 and err == ""
    doc = json.loads(out)[0]
    assert doc["scenario"] == "example1"
    assert doc["optimum"]["d_m"] == pytest.approx(9.1e3, rel=0.02)
    assert doc["optimum"]["P0_W"] == pytest.approx(128e9, rel=0.02)
    assert doc["costs"]["C_T"] == pytest.approx(193e9, rel=0.02)
    assert doc["costs"]["f1"] == pytest.approx(2 / 3, rel=1e-9)
    assert doc["kinematics"]["beta0"] == pytest.approx(0.2, rel=1e-9)


def test_optimize_example2(capsys):
    code, out, _ = _run(capsys, "optimize", EX2)
    doc = json.loads(out)[0]
    assert code == 0
    assert doc["optimum"]["d_m"] == pytest.approx(4.2e3, rel=0.02)
    assert doc["costs"]["C_T"] == pytest.approx(41e9, rel=0.025)


def test_set_override(capsys):
    code, out, _ = _run(capsys, "optimize", EX1, "--set", "metrics.a1=0.1 usd/W")
    base = json.loads(out)[0]
    code2, out2, _ = _run(capsys, "optimize", EX2)
    assert code == code2 == 0
    assert base["optimum"] == json.loads(out2)[0]["optimum"]


def test_solve_requires_design_point(capsys):
    code, _, err = _run(capsys, "solve", EX1)
    assert code == 1
    assert err.startswith("validation_error:")


def test_solve_at_explicit_point(capsys):
    code, out, _ = _run(
        capsys, "solve", EX1, "--set", "array.d=10 km", "--set", "array.P0=100 GW"
    )
    assert code == 0
    doc = json.loads(out)[0]
    assert doc["kinematics"]["beta0"] == pytest.approx(0.1853, rel=1e-3)
    assert doc["costs"]["C1"] == pytest.approx(100e9, rel=1e-12)


def test_max_speed(capsys, tmp_path):
    scn = tmp_path / "b.scn"
    with open(EX1) as fh:
        text = fh.read().replace("beta0 = 0.2", "budget = 193085264928.40485 usd")
    scn.write_text(text)
    code, out, _ = _run(capsys, "max-speed", str(scn))
    assert code == 0
    doc = json.loads(out)[0]
    assert doc["kinematics"]["beta0"] == pytest.approx(0.2, rel=1e-6)
    assert doc["costs"]["C2"] == pytest.approx(doc["costs"]["C_T"] / 3, rel=1e-9)


def test_sweep_fixed_aperture_columns(capsys):
    code, out, _ = _run(
        capsys, "sweep", EX1, "--axis", "array.d",
        "--from", "1 km", "--to", "100 km", "--points", "5", "--log",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d_m,P0_W,C1,C2,C3,C4,C_T,F_ap"
    assert len(lines) == 6
    first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert first["d_m"] == 1000.0
    # power * aperture is constant at fixed beta
    last = dict(zip(lines[0].split(","), map(float, lines[5].split(","))))
    assert first["P0_W"] * first["d_m"] == pytest.approx(
        last["P0_W"] * last["d_m"], rel=1e-9
    )


def test_sweep_metric_axis_reoptimizes(capsys):
    code, out, _ = _run(
        capsys, "sweep", EX1, "--axis", "metrics.a1",
        "--from", "0.1 usd/W", "--to", "1 usd/W", "--points", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("metrics.a1,")
    rows = [dict(zip(lines[0].split(","), map(float, l.split(",")))) for l in lines[1:]]
    assert rows[0]["C_T"] == pytest.approx(41598959289.57521, rel=1e-9)
    assert rows[-1]["C_T"] == pytest.approx(193085264928.40485, rel=1e-9)
    for row in rows:
        assert row["C1"] == pytest.approx(2 * row["C2"], rel=1e-9)


def test_roadmap_and_energy(capsys, tmp_path):
    scn = tmp_path / "r.scn"
    with open(EX1) as fh:
        text = fh.read().replace("beta0 = 0.2", "budget = 100e9 usd")
    scn.write_text(text + "\n[techcurve]\na1_base = 100 usd/W\n")
    code, out, _ = _run(capsys, "roadmap", str(scn), "--stages", "0.1,1,20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "designation"
    assert len(lines) == 4

    code, out, _ = _run(
        capsys, "energy", EX1,
        "--set", "metrics.a4=2.8e-5 usd/J", "--set", "metrics.a3=1.4e-8 usd/J",
        "--set", "array.P0=100 GW", "--lifetime-hours", "1e5",
    )
    assert code == 0
    doc = json.loads(out)[0]
    assert doc["E_gamma_J"] == pytest.approx(17975103574736.35, rel=1e-9)
    assert doc["lifetime_usd_per_optical_watt"] == pytest.approx(10.08, rel=1e-12)


def test_output_file_and_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SAILCOST_OUTPUT_DIR", str(tmp_path))
    code, out, _ = _run(capsys, "optimize", EX1, "-o", "result.json")
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "result.json").read_text())[0]["scenario"] == "example1"


def test_identical_invocations_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["optimize", EX1, "-o", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_metadata_flag_adds_timestamp(capsys):
    _, plain, _ = _run(capsys, "optimize", EX1)
    _, stamped, _ = _run(capsys, "optimize", EX1, "--metadata")
    assert "generated_at" not in plain
    assert "generated_at" in stamped


def test_error_contract_on_stderr(capsys):
    code, out, err = _run(capsys, "optimize", EX1, "--set", "sail.eps_r=2")
    assert code == 1 and out == ""
    assert err.startswith("validation_error: ")
    code, _, err = _run(capsys, "optimize", EX1, "--set", "sail.h=1")
    assert code == 1 and err.startswith("unit_error: ")
    code, _, err = _run(capsys, "optimize", "/no/such/file.scn")
    assert code == 1 and err.startswith("io_error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", EX1, "--axis", "sail.eps_r", "--from", "abc", "--to", "1", "--points", "3"),
        ("sweep", EX1, "--axis", "sail.eps_r", "--from", "0.5", "--to", "inf", "--points", "3"),
        ("roadmap", EX3, "--stages", "1,x"),
        ("optimize", EX1, "--set", "metrics.a3=1e-8 usd/J", "--set", "metrics.N_shot=inf"),
        ("energy", EX1, "--set", "array.P0=100 GW", "--lifetime-hours", "nan"),
        ("energy", EX1, "--set", "array.P0=100 GW", "--lifetime-hours", "inf"),
        ("energy", EX1, "--set", "array.P0=100 GW", "--lifetime-hours", "-5"),
        ("energy", EX1, "--set", "array.P0=100 GW", "--lifetime-hours", "1e5", "--wall-plug", "nan"),
        ("sweep", EX3, "--axis", "array.d", "--from", "1 km", "--to", "2 km", "--points", "3"),
        ("sweep", EX1, "--axis", "name", "--from", "1", "--to", "2", "--points", "3"),
        ("sweep", EX1, "--axis", "mode", "--from", "1", "--to", "2", "--points", "3"),
        ("sweep", EX1, "--axis", "metrics.a5", "--from", "1", "--to", "2", "--points", "3"),
        ("sweep", EX3, "--axis", "techcurve.halving_months", "--from", "1", "--to", "2",
         "--points", "3"),
        ("energy", EX1, "--wall-plug", "7"),
        ("energy", EX1, "--wall-plug", "0"),
    ],
)
def test_bad_flag_values_are_validation_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("validation_error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # Results that overflow to Infinity or NaN.
        ("energy", EX1, "--set", "metrics.a4=1e300 usd/J"),
        ("solve", EX1, "--set", "metrics.a1=1e300 usd/W", "--set", "array.P0=1e10 W",
         "--set", "array.d=10 km"),
        ("sweep", EX1, "--axis", "metrics.a4", "--from", "1e300 usd/J", "--to", "1e305 usd/J",
         "--points", "2"),
        # Intermediates that overflow or divide by an underflowed zero.
        ("optimize", EX1, "--set", "target.beta0=1e-300"),
        ("optimize", EX1, "--set", "payload.m0=1e-300 kg"),
        ("solve", EX1, "--set", "array.P0=1e-300 W", "--set", "array.d=1e300 m"),
        ("sweep", EX1, "--axis", "array.d", "--from", "1 m", "--to", "1e300 m", "--points", "3",
         "--log"),
        ("roadmap", EX3, "--stages", "1e-300"),
        # The laser metric that fits the budget overflows, or underflows to 0.
        ("roadmap", EX3, "--stages", "1,10,20", "--set", "metrics.a2=1e-300 usd/m2"),
        ("roadmap", EX3, "--stages", "1,10,20", "--set", "metrics.a2=1e300 usd/m2"),
        ("roadmap", EX3, "--stages", "1,10,20", "--set", "target.budget=1e300 usd"),
        # A stage whose entry month overflows: the CSV table's own check.
        ("roadmap", EX3, "--stages", "1,20", "--set", "metrics.a2=1e100 usd/m2",
         "--set", "techcurve.a1_base=1e300 usd/W"),
    ],
)
def test_finite_inputs_out_of_float_range_are_numeric_errors(capsys, tmp_path, argv):
    """No output holds Infinity or NaN, and no finite flag value gives an
    internal_error: the run stops with one numeric_error line and exit 3,
    and writes neither stdout nor its output file."""
    out_path = tmp_path / "out"
    for extra in ((), ("-o", str(out_path))):
        code, out, err = _run(capsys, *argv, *extra)
        assert (code, out) == (3, "")
        assert err.startswith("numeric_error: ") and err.count("\n") == 1
    assert not out_path.exists()


with open(EX3, "rb") as _fh:
    _EX3_TEXT = _fh.read()
# Scenario file contents that the rejection rows name in place of a file path.
SCENARIO_TEXTS = {
    "no-curve.scn": _EX3_TEXT[:_EX3_TEXT.index(b"[techcurve]")],
    "unterminated.scn": b"[sail\n",
    "indented-unterminated.scn": b"  [sail\n",
    "empty-section.scn": b"[ ]\n",
    "junk.scn": b"junk\n",
    "not-utf8.scn": b"\xff\xfe",
}
_DESIGN_POINT = ("--set", "array.P0=10 GW", "--set", "array.d=10 km")


@pytest.mark.parametrize(
    ("argv", "code", "line"),
    [
        (("energy", EX1, "--set", "mode=strength-limited", "--set", "sail.S_y=1 GPa"), 1,
         "validation_error: strength-limited mode requires array.P0"),
        (("solve", EX1, "--set", "mode=non-optimized", *_DESIGN_POINT), 1,
         "validation_error: non-optimized mode requires sail.D"),
        (("solve", EX1, "--set", "sail.D=10 m", *_DESIGN_POINT), 1,
         "domain_error: sail.D must be absent in the optimized regime (it is derived)"),
        (("optimize", EX3), 1, "validation_error: optimize requires a target.beta0 scenario"),
        (("energy", EX3), 1, "validation_error: energy requires a target.beta0 scenario"),
        (("energy", EX1, "--lifetime-hours", "1000"), 1,
         "validation_error: lifetime energy cost requires array.P0"),
        (("roadmap", EX1, "--stages", "1,10,20"), 1,
         "validation_error: roadmap requires a target.budget scenario"),
        (("roadmap", "no-curve.scn", "--stages", "1,10,20"), 1,
         "validation_error: roadmap requires a [techcurve] block"),
        (("max-speed", EX3, "--set", "metrics.a1=0 usd/W"), 1,
         "domain_error: fixed-budget speed maximum needs a1 > 0 and a2 > 0"),
        (("optimize", EX1, "--set", "metrics.a1=0 usd/W"), 1,
         "degenerate_optimum: closed-form optimum needs a1 > 0 and a2 > 0; "
         "the minimum is at a boundary otherwise"),
        (("optimize", "unterminated.scn"), 1,
         "parse_error: line 1, col 1: unterminated section header"),
        (("optimize", "empty-section.scn"), 1, "parse_error: line 1: empty section name"),
        (("optimize", "junk.scn"), 1, "parse_error: line 1: expected 'key = value' (got 'junk')"),
        (("optimize", EX1, "--set", "sail.h"), 1,
         "validation_error: override must be field.path=value (got 'sail.h')"),
        (("optimize", EX1, "--set", "metrics.a5=abc"), 1,
         "validation_error: metrics.a5 (line 0): expected 0, got 'abc'"),
        (("optimize", EX1, "--set", "mode=fast"), 1,
         "validation_error: mode: expected one of "
         "('optimized', 'non-optimized', 'strength-limited') (got 'fast')"),
        (("max-speed", EX3, "--set", "target.budget=0 usd"), 1,
         "validation_error: target.budget: must satisfy budget > 0 (got 0.0)"),
        # Two faults: the records, sail included, are built before the
        # Scenario checks its mode, so the sail's bound is reported.
        (("optimize", EX1, "--set", "mode=turbo", "--set", "sail.h=-1 m"), 1,
         "validation_error: sail.h: must satisfy h > 0 (got -1.0)"),
        (("optimize", EX1, "--set", "sail.h=1 um extra"), 1,
         "unit_error: line 0: sail.h: cannot parse quantity '1 um extra'"),
        (("optimize", EX1, "--set", "sail.h=one um"), 1,
         "unit_error: line 0: sail.h: bad number 'one'"),
        # A zero optics metric leaves no array size that fits the budget.
        (("roadmap", EX3, "--stages", "1,10,20", "--set", "metrics.a2=0 usd/m2"), 1,
         "domain_error: the laser metric a1 that fits the budget needs a2 > 0 (got 0.0)"),
        # Grid energy alone costs more than the budget at the faster stage.
        (("roadmap", EX3, "--stages", "1,20", "--set", "metrics.a3=1e-2 usd/J"), 1,
         "infeasible_budget: energy and storage at beta = 0.2 cost 179751035747.36353 USD; "
         "the budget of 100000000000.0 USD leaves nothing for the laser and optics"),
        (("optimize", "not-utf8.scn"), 1, "parse_error: byte 0 is not UTF-8 (invalid start byte)"),
        # Columns are 1-based: the bracket is the third character.
        (("optimize", "indented-unterminated.scn"), 1,
         "parse_error: line 1, col 3: unterminated section header"),
        # Two faults at once: every field's own bound is checked before
        # the rule that spans a1 and a2.
        (("optimize", EX1, "--set", "metrics.a1=0 usd/W", "--set", "metrics.a2=0 usd/m2",
          "--set", "metrics.N_shot=0.5"), 1,
         "validation_error: metrics.N_shot: must satisfy N_shot >= 1 (got 0.5)"),
        # A size the model derives, not one the scenario sets, that over- or
        # underflows names that quantity.  The fixed-budget array size d*
        # overflows, which leaves -inf power.
        (("max-speed", EX3, "--set", "metrics.a2=1e-300 usd/m2"), 3,
         "numeric_error: d* is non-finite; inputs out of numeric range"),
        (("sweep", EX3, "--axis", "metrics.a2", "--from", "1e-300 usd/m2", "--to", "1 usd/m2",
          "--points", "3"), 3,
         "numeric_error: d* is non-finite; inputs out of numeric range"),
        # The fixed-budget and the cost-optimal d* underflow to zero.
        (("max-speed", EX3, "--set", "target.budget=5e-324 usd",
          "--set", "metrics.a2=1e300 usd/m2"), 3,
         "numeric_error: d* is 0.0; inputs out of numeric range"),
        (("optimize", EX1, "--set", "metrics.a1=1e-300 usd/W", "--set", "metrics.a2=1e300 usd/m2"),
         3, "numeric_error: d* is 0.0; inputs out of numeric range"),
        # A budget this small buys a beam power at which the launch speed
        # underflows to zero; that is no answer, so no zero speed is printed.
        (("max-speed", EX3, "--set", "target.budget=1e-300 usd"), 3,
         "numeric_error: v0 is 0.0; inputs out of numeric range"),
        (("sweep", EX3, "--axis", "target.budget", "--from", "1e-300 usd", "--to", "1e9 usd",
          "--points", "3"), 3,
         "numeric_error: v0 is 0.0; inputs out of numeric range"),
        # The mass-optimized sail diameter underflows.
        (("solve", EX1, "--set", "payload.m0=1e-300 kg", "--set", "sail.h=1e10 m",
          "--set", "sail.rho=1e300 kg/m3", "--set", "array.P0=1 GW", "--set", "array.d=1 km"),
         3,
         "numeric_error: D is 0.0; inputs out of numeric range"),
        # The strength-limited thickness underflows, though the file sets h.
        (("solve", EX1, "--set", "mode=strength-limited", "--set", "sail.S_y=1e300 Pa",
          "--set", "payload.m0=1e-290 kg", "--set", "array.P0=1 W", "--set", "array.d=1 km"), 3,
         "numeric_error: h is 0.0; inputs out of numeric range"),
        # The strength-limited diameter underflows, before the thickness
        # divides by it.
        (("solve", EX1, "--set", "mode=strength-limited", "--set", "sail.S_y=1e-300 Pa",
          "--set", "payload.m0=1e-300 kg", "--set", "array.P0=1 GW", "--set", "array.d=1 km"), 3,
         "numeric_error: D is 0.0; inputs out of numeric range"),
        (("energy", EX1, "--set", "mode=strength-limited", "--set", "sail.S_y=1e-300 Pa",
          "--set", "payload.m0=1e-300 kg", "--set", "array.P0=1 GW"), 3,
         "numeric_error: D is 0.0; inputs out of numeric range"),
        # The launch time underflows to zero while the launch speed is
        # finite, before the mean acceleration divides by it.
        (("solve", EX1, "--set", "mode=non-optimized", "--set", "sail.D=1e-100 m",
          "--set", "payload.m0=1e-100 kg", "--set", "array.d=1.22e-106 m",
          "--set", "array.P0=1.5e108 W"), 3,
         "numeric_error: t0 is 0.0; inputs out of numeric range"),
        # The cost-optimal d* overflows; the spot size it would reach
        # next is not blamed.
        (("optimize", EX1, "--set", "metrics.a1=1e300 usd/W", "--set", "metrics.a2=1e-300 usd/m2"),
         3, "numeric_error: d* is non-finite; inputs out of numeric range"),
        # The mass-optimized sail diameter overflows, also where its
        # areal density xi h rho underflows to zero.
        (("optimize", EX1, "--set", "sail.h=1e-320 m"), 3,
         "numeric_error: D is non-finite; inputs out of numeric range"),
        (("solve", EX1, "--set", "sail.h=1e-200 m", "--set", "sail.rho=1e-200 kg/m3",
          "--set", "array.P0=1 GW", "--set", "array.d=1 km"), 3,
         "numeric_error: D is non-finite; inputs out of numeric range"),
        # A positive target speed whose beam power underflows to zero.
        (("optimize", EX1, "--set", "target.beta0=1e-200"), 3,
         "numeric_error: P0 is 0.0; inputs out of numeric range"),
        (("sweep", EX1, "--set", "target.beta0=1e-200", "--axis", "array.d", "--from", "1 km",
          "--to", "2 km", "--points", "2"), 3,
         "numeric_error: P0 is 0.0; inputs out of numeric range"),
        # A positive budget whose leftover buys a beam power that underflows.
        (("max-speed", EX3, "--set", "target.budget=1e-320 usd", "--set", "metrics.a1=1e10 usd/W"),
         3, "numeric_error: P0 is 0.0; inputs out of numeric range"),
    ],
)
def test_rejected_run_prints_its_one_error_line(capsys, tmp_path, argv, code, line):
    """Each rejection exits with its code, prints exactly its one error
    line and nothing on stdout, and writes no output file."""
    for name, text in SCENARIO_TEXTS.items():
        (tmp_path / name).write_bytes(text)
    command, scenario, *rest = argv
    if scenario in SCENARIO_TEXTS:
        scenario = str(tmp_path / scenario)
    out_path = tmp_path / "out"
    for extra in ((), ("-o", str(out_path))):
        assert _run(capsys, command, scenario, *rest, *extra) == (code, "", f"{line}\n")
    assert not out_path.exists()


def test_a_negative_zero_input_is_stored_as_zero(capsys):
    """A ``-0`` bare number or quantity parses as 0.0, so no output cell
    prints a negative zero."""
    for argv in (
        ("optimize", EX1, "--set", "metrics.a3=-0 usd/J"),
        ("energy", EX1, "--set", "metrics.a4=-0 usd/J"),
        ("sweep", EX1, "--axis", "metrics.a3", "--from", "-0 usd/J", "--to", "1e-9 usd/J",
         "--points", "2"),
        ("sweep", EX1, "--axis", "sail.alpha", "--from", "-0", "--to", "0.5", "--points", "2"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert "-0.0" not in re.split(r"[\s,:\[\]{}]+", out), argv


@pytest.mark.parametrize(
    ("start", "stop", "scale"),
    [("1e-300 usd/W", "1e300 usd/W", ["--log"]), ("-1e308 usd/W", "1e308 usd/W", [])],
    ids=["log-ratio", "linear-step"],
)
def test_sweep_grid_that_overflows_is_rejected(capsys, start, stop, scale):
    code, out, err = _run(
        capsys, "sweep", EX1, "--axis", "metrics.a1", "--from", start, "--to", stop,
        "--points", "3", *scale,
    )
    assert (code, out) == (1, "")
    assert err.startswith("validation_error: sweep: ") and err.count("\n") == 1


def test_roadmap_stages_cost_the_budget_with_the_scenarios_own_fields(capsys):
    """Each stage's laser metric makes its minimum cost the budget with the
    scenario's sail, array and energy terms, not a default sail and array."""
    code, out, err = _run(
        capsys, "roadmap", EX3, "--stages", "1,10,20", "--set", "target.budget=41e9 usd",
        "--set", "sail.eps_r=0.9", "--set", "array.alpha_d=1.5", "--set", "array.xi_arr=1",
        "--set", "metrics.a3=1e-8 usd/J",
    )
    assert (code, err) == (0, "")
    assert [row["C_T"] for row in csv.DictReader(io.StringIO(out))] == ["41000000000.0"] * 3


def test_techcurve_keys_without_base_are_rejected(capsys, tmp_path):
    """Any [techcurve] key builds the curve, so its base value is required."""
    missing = (1, "", "validation_error: missing required key 'techcurve.a1_base'\n")
    assert _run(capsys, "optimize", EX1, "--set", "techcurve.halving_months=12") == missing
    scn = tmp_path / "curve.scn"
    with open(EX1) as fh:
        scn.write_text(fh.read() + "\n[techcurve]\nhalving_months = 12\n")
    assert _run(capsys, "optimize", str(scn)) == missing


@pytest.mark.parametrize(
    "overrides",
    [["mode=non-optimized", "sail.D=2 km"], ["mode=strength-limited", "sail.S_y=1 GPa", "sail.xi=1"]],
)
def test_energy_uses_the_sail_mass_of_the_mode(capsys, overrides):
    """At the speed solve reaches, energy's beam energy is solve's: both
    accelerate the payload plus the sail the mode sizes."""
    sets = [arg for o in overrides for arg in ("--set", o)] + ["--set", "array.P0=100 GW"]
    code, out, _ = _run(capsys, "solve", EX1, *sets, "--set", "array.d=10 km")
    assert code == 0
    solved = json.loads(out)[0]
    beta = solved["kinematics"]["beta0"]
    code, out, err = _run(capsys, "energy", EX1, *sets, "--set", f"target.beta0={beta!r}")
    assert code == 0 and err == ""
    assert json.loads(out)[0]["E_gamma_J"] == solved["energy"]["E_gamma_J"]


def test_energy_warns_once_at_the_beta_limit():
    """An ``energy`` run at beta >= 0.5 prints its document and one
    warning, in 2 lines of stderr, like every other answer; the library's
    ``energy_per_shot``, given the same beta, stays silent."""
    run = subprocess.run(
        [sys.executable, "-m", "sailcost.cli", "energy", EX1, "--set", "target.beta0=0.7"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0 and json.loads(run.stdout)[0]["beta0"] == 0.7
    warning, _ = run.stderr.splitlines()
    message = "beta = 0.7 >= 0.5: non-relativistic model is inaccurate here"
    assert warning.endswith(f"UserWarning: {message}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy_per_shot(0.7, 2.0, 2.0)


@pytest.mark.parametrize(
    "overrides",
    [["mode=non-optimized"], ["mode=non-optimized", "sail.D=2 km"],
     ["mode=strength-limited", "sail.S_y=1 GPa"]],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("max-speed", EX3),
        ("sweep", EX1, "--axis", "array.d", "--from", "1 km", "--to", "2 km", "--points", "3"),
        ("sweep", EX3, "--axis", "metrics.a2", "--from", "100 usd/m2", "--to", "1000 usd/m2",
         "--points", "3"),
        ("roadmap", EX3, "--stages", "1,20"),
    ],
)
def test_cost_paths_refuse_other_modes(capsys, argv, overrides):
    """max-speed, every sweep path and roadmap (which inverts the cost
    optimum) are defined for the mass-optimized sail only, like optimize."""
    sets = [arg for o in overrides for arg in ("--set", o)]
    assert _run(capsys, *argv, *sets) == (
        1, "", "validation_error: cost optimization is defined in optimized mode\n"
    )


def test_roadmap_refuses_a_given_sail_diameter(capsys):
    """The optimized regime derives sail.D, so roadmap refuses a given one
    with the line optimize prints."""
    refused = (
        1, "", "domain_error: sail.D must be absent in the optimized regime (it is derived)\n"
    )
    assert _run(capsys, "optimize", EX1, "--set", "sail.D=10 m") == refused
    assert _run(capsys, "roadmap", EX3, "--stages", "1,20", "--set", "sail.D=10 m") == refused


def test_energy_refuses_a_given_sail_diameter_in_optimized_mode(capsys):
    """energy accelerates the 2 m0 craft of the optimized regime, which
    derives sail.D, so a given one is refused with optimize's line, not
    dropped."""
    assert _run(capsys, "energy", EX1, "--set", "sail.D=10 m") == (
        1, "", "domain_error: sail.D must be absent in the optimized regime (it is derived)\n"
    )


def test_speed_target_sweep_refuses_a_given_sail_diameter(capsys):
    """A sweep that re-optimizes under target.beta0 is the optimized
    regime's, like optimize, so it refuses a given sail.D with the same line."""
    assert _run(
        capsys, "sweep", EX1, "--set", "sail.D=10 m", "--axis", "metrics.a1",
        "--from", "1 usd/W", "--to", "2 usd/W", "--points", "2",
    ) == (1, "", "domain_error: sail.D must be absent in the optimized regime (it is derived)\n")


def test_max_speed_checks_the_target_before_the_mode(capsys):
    assert _run(capsys, "max-speed", EX1, "--set", "mode=non-optimized") == (
        1, "", "validation_error: max-speed requires a target.budget scenario\n"
    )


ZERO_THRUST = "validation_error: sail: must satisfy 2 eps_r + (1 - eps_r) alpha > 0 (got (0.0, 0.0))\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", EX1, "--set", "sail.eps_r=0"),
        ("sweep", EX1, "--axis", "sail.eps_r", "--from", "0", "--to", "1", "--points", "3"),
    ],
)
def test_zero_thrust_sail_is_a_validation_error(capsys, argv):
    """eps_r = alpha = 0 gives zero momentum coupling: no launch exists."""
    assert _run(capsys, *argv) == (1, "", ZERO_THRUST)


@pytest.mark.parametrize("command", ["sweep", "roadmap"])
def test_csv_subcommands_reject_metadata(command):
    """--metadata only exists on the JSON subcommands."""
    extra = {
        "sweep": ["--axis", "metrics.a2", "--from", "1 usd/m2", "--to", "2 usd/m2", "--points", "2"],
        "roadmap": ["--stages", "1,20"],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "sailcost.cli", command, EX3, *extra, "--metadata"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --metadata" in proc.stderr


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "sailcost.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_validate_writes_to_output_path(capsys, monkeypatch, tmp_path):
    """validate -o PATH writes exactly the bytes a stdout run prints."""
    results = [CheckResult("first", True, "ok"), CheckResult("second", False, "off by 2")]
    monkeypatch.setattr("sailcost.checks.run_all", lambda: results)
    code, printed, _ = _run(capsys, "validate")
    path = tmp_path / "validate.txt"
    assert _run(capsys, "validate", "-o", str(path)) == (code, "", "") == (1, "", "")
    assert path.read_bytes() == printed.encode("utf-8") == b"PASS first: ok\nFAIL second: off by 2\n"


# The fuzzer's base invocation of each subcommand, before the drawn --set values.
_FUZZ_BASE = {
    "solve": (EX1, "--set", "array.P0=100 GW", "--set", "array.d=10 km"),
    "optimize": (EX1,),
    "max-speed": (EX3,),
    "energy": (EX1, "--set", "array.P0=100 GW", "--lifetime-hours", "1e5"),
    "roadmap": (EX3, "--stages", "1,10,20"),
}
# Sweep axis -> (fixture, --from, --to).
_FUZZ_SWEEPS = {
    "metrics.a1": (EX1, "0.1 usd/W", "1 usd/W"),
    "array.d": (EX1, "1 km", "20 km"),
    "metrics.a2": (EX3, "100 usd/m2", "1000 usd/m2"),
}
_FUZZ_KEYS = sorted(key for key, (kind, *_) in FIELDS.items() if kind != "string")
_SPECIAL_VALUES = [0.0, 1.0, 1e300, 1e-300, 1e12, 1e-12]
_fuzz_values = st.tuples(
    st.sampled_from([1.0, -1.0]),
    st.sampled_from(_SPECIAL_VALUES) | st.floats(-300, 300).map(lambda e: 10.0**e),
).map(lambda pair: pair[0] * pair[1])


@st.composite
def _fuzz_sets(draw):
    """1-3 ``--set`` values, each with the unit of its FIELDS row."""
    sets = []
    for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), min_size=1, max_size=3)):
        kind = FIELDS[key][0]
        unit = "" if kind in ("number", "reserved-zero") else f" {kind}"
        sets.append(f"{key}={draw(_fuzz_values)!r}{unit}")
    return sets


def _finite_numbers(text, fmt):
    """Whether every number in a JSON or CSV output is finite."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return all(math.isfinite(float(cell)) for row in rows for cell in row)

    def walk(node):
        if isinstance(node, dict):
            return all(walk(value) for value in node.values())
        if isinstance(node, list):
            return all(walk(value) for value in node)
        return not isinstance(node, float) or math.isfinite(node)

    return walk(json.loads(text))


def _moving_when_powered(command, doc):
    """Whether a design document with a positive beam power prints a
    positive speed, time and beam energy, and an ``optimize`` or
    ``max-speed`` document, whose target is positive, a positive beam
    power: a zero there is an underflow, not an answer."""
    if "optimum" not in doc:
        return True
    if not doc["optimum"]["P0_W"] > 0:
        return command not in ("optimize", "max-speed")
    kin, energy = doc["kinematics"], doc["energy"]
    return all(value > 0 for value in (
        kin["beta0"], kin["v0"], kin["v_inf"], kin["t0_s"], energy["E_gamma_J"]
    ))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(_FUZZ_BASE) + ["sweep"]),
    sets=_fuzz_sets(),
    axis=st.sampled_from(sorted(_FUZZ_SWEEPS)),
    points=st.integers(0, 50),
    log=st.booleans(),
)
@example(
    command="roadmap", sets=["metrics.a2=1e-300 usd/m2"], axis="metrics.a1", points=3, log=False
)
@example(
    command="max-speed", sets=["target.budget=1e-300 usd"], axis="metrics.a1", points=3, log=False
)
@example(command="optimize", sets=["target.beta0=1e-200"], axis="metrics.a1", points=3, log=False)
@example(
    command="max-speed", sets=["target.budget=1e-320 usd", "metrics.a1=1e10 usd/W"],
    axis="metrics.a1", points=3, log=False,
)
def test_cli_contract_holds_for_any_set_value(command, sets, axis, points, log):
    """Every run either succeeds with only finite numbers in its output,
    and a positive speed, time and beam energy wherever the beam power is
    positive, or fails with exactly one ``code: message`` line, exit 1, 2
    or 3, and no output file; never an ``internal_error``."""
    if command == "sweep":
        fixture, start, stop = _FUZZ_SWEEPS[axis]
        argv = [command, fixture, "--axis", axis, "--from", start, "--to", stop,
                "--points", str(points), *(["--log"] if log else [])]
    else:
        argv = [command, *_FUZZ_BASE[command]]
    for value in sets:
        argv += ["--set", value]
    _assert_contract(argv)


def _assert_contract(argv):
    """Run ``argv`` in process with ``-o`` and check the CLI contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([*argv, "-o", path])
        assert out.getvalue() == ""
        if code == 0:
            assert err.getvalue() == ""
            with open(path, encoding="utf-8") as fh:
                fmt = "csv" if argv[0] in ("sweep", "roadmap") else "json"
                text = fh.read()
            assert _finite_numbers(text, fmt), argv
            if fmt == "json":
                assert _moving_when_powered(argv[0], json.loads(text)[0]), argv
        else:
            assert code in (1, 2, 3), argv
            assert re.fullmatch(r"[a-z_]+: [^\n]+\n", err.getvalue()), (argv, err.getvalue())
            assert not err.getvalue().startswith("internal_error"), (argv, err.getvalue())
            assert not os.path.exists(path), argv


_MUTATIONS = ("drop", "duplicate", "unknown", "unit", "byte")
_BAD_UNITS = ("", "furlong", "kg", "usd/W", "um um")
_BAD_BYTES = (b"\xff", b"\x80", b"\xc3")


def _mutate(text, kind, at, unit, byte):
    """The scenario text with one defect of ``kind``: a key line dropped,
    duplicated, preceded by an unknown key or given a bad unit suffix, or
    a byte that is not UTF-8 inserted; ``at`` picks the place."""
    lines = text.split(b"\n")
    keyed = [i for i, line in enumerate(lines) if b"=" in line.split(b"#")[0]]
    i = keyed[at % len(keyed)]
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "unknown":
        lines.insert(i, b"bogus = 1")
    elif kind == "unit":
        key, value = lines[i].split(b"#")[0].split(b"=", 1)
        lines[i] = key + b"= " + value.split()[0] + b" " + unit.encode()
    else:
        at %= len(text) + 1
        return text[:at] + byte + text[at:]
    return b"\n".join(lines)


@st.composite
def _fuzz_range(draw):
    """Sweep endpoints that are reversed, equal, overflowing, or any two values."""
    shape = draw(st.sampled_from(["reversed", "equal", "overflowing", "any"]))
    if shape == "overflowing":
        big = draw(st.floats(1e308, 1.7e308))
        return draw(st.sampled_from([(-big, big), (1 / big, big)]))
    start, stop = draw(_fuzz_values), draw(_fuzz_values)
    if shape == "equal":
        return start, start
    if shape == "reversed":
        return max(start, stop), min(start, stop)
    return start, stop


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    # Half the runs sweep, so that half of those reach the drawn range.
    command=st.sampled_from(sorted(_FUZZ_BASE) + ["sweep"] * len(_FUZZ_BASE)),
    axis=st.sampled_from(sorted(_FUZZ_SWEEPS)),
    bounds=_fuzz_range(),
    points=st.integers(0, 50),
    log=st.booleans(),
    mutation=st.tuples(
        st.sampled_from(_MUTATIONS), st.integers(0, 10**4), st.sampled_from(_BAD_UNITS),
        st.sampled_from(_BAD_BYTES),
    ),
    mutate=st.booleans(),
)
@example(
    command="optimize", axis="metrics.a1", bounds=(1.0, 2.0), points=3, log=False,
    mutation=("byte", 0, "", b"\xff"), mutate=True,
)
def test_cli_contract_holds_for_any_sweep_range_or_scenario_text(
    command, axis, bounds, points, log, mutation, mutate
):
    """The contract of ``test_cli_contract_holds_for_any_set_value`` for
    sweep ranges that are reversed, equal or overflow, and for scenario
    files with a dropped, duplicated or unknown key, a bad unit suffix, or
    bytes that are not UTF-8.  Every run but half the sweeps reads a
    mutated scenario file."""
    if command == "sweep":
        fixture = _FUZZ_SWEEPS[axis][0]
        unit = FIELDS[axis][0]
        start, stop = (f"{value!r} {unit}" for value in bounds)
        rest = ["--axis", axis, "--from", start, "--to", stop, "--points", str(points),
                *(["--log"] if log else [])]
    else:
        fixture, *rest = _FUZZ_BASE[command]
    with tempfile.TemporaryDirectory() as tmp:
        if mutate or command != "sweep":
            with open(fixture, "rb") as fh:
                text = _mutate(fh.read(), *mutation)
            fixture = os.path.join(tmp, "mutated.scn")
            with open(fixture, "wb") as fh:
                fh.write(text)
        _assert_contract([command, fixture, *rest])
