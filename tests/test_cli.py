import json
import os
import subprocess
import sys

import pytest

from sailcost import cli
from sailcost.checks import CheckResult
from sailcost.cli import main

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
    ],
)
def test_bad_flag_values_are_validation_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("validation_error: ") and err.count("\n") == 1


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


def test_validate_subcommand_passes(capsys):
    code, out, _ = _run(capsys, "validate")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS ") for line in lines)


def test_validate_writes_to_output_path(capsys, monkeypatch, tmp_path):
    """validate -o PATH writes exactly the bytes a stdout run prints."""
    results = [CheckResult("first", True, "ok"), CheckResult("second", False, "off by 2")]
    monkeypatch.setattr(cli, "run_all", lambda: results)
    code, printed, _ = _run(capsys, "validate")
    path = tmp_path / "validate.txt"
    assert _run(capsys, "validate", "-o", str(path)) == (code, "", "") == (1, "", "")
    assert path.read_bytes() == printed.encode("utf-8") == b"PASS first: ok\nFAIL second: off by 2\n"
