"""Golden outputs: stdout of fixed CLI invocations on the fixtures and of
``validate``, and the canonical dump of each fixture, must stay
byte-identical.  Run this file as a script to re-record the files under
tests/golden/ after an intended output change."""

import contextlib
import io
from pathlib import Path

import pytest

from sailcost.cli import main
from sailcost.scenario import dump_scenario, load_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EX1 = str(ROOT / "fixtures" / "example1.scn")
EX2 = str(ROOT / "fixtures" / "example2.scn")
EX3 = str(ROOT / "fixtures" / "example3.scn")

# The example-1 cost optimum, as `optimize` prints it.
D_OPT = "9052.509685395 m"
P_OPT = "128723509952.26982 W"

CASES = {
    "optimize-example1.json": ["optimize", EX1],
    "optimize-example2.json": ["optimize", EX2],
    "optimize-example1-energy.json": [
        "optimize", EX1, "--set", "metrics.a3=1.4e-8 usd/J", "--set", "metrics.a4=2.8e-5 usd/J",
        "--set", "metrics.eps_storage=0.8", "--set", "metrics.N_shot=100",
    ],
    "energy-example1.json": ["energy", EX1],
    "energy-example2.json": [
        "energy", EX2, "--set", "array.P0=100 GW", "--set", "metrics.a3=1.4e-8 usd/J",
        "--set", "metrics.a4=2.8e-5 usd/J", "--lifetime-hours", "1e5",
    ],
    "solve-example1-optimum.json": [
        "solve", EX1, "--set", f"array.d={D_OPT}", "--set", f"array.P0={P_OPT}",
        "--set", "metrics.a3=1.4e-8 usd/J", "--set", "metrics.a4=2.8e-5 usd/J",
        "--set", "metrics.N_shot=100",
    ],
    "solve-example1-non-optimized.json": [
        "solve", EX1, "--set", "mode=non-optimized", "--set", "sail.D=2 km",
        "--set", f"array.d={D_OPT}", "--set", f"array.P0={P_OPT}",
    ],
    "solve-example1-strength-limited.json": [
        "solve", EX1, "--set", "mode=strength-limited", "--set", "sail.S_y=1 GPa",
        "--set", f"array.d={D_OPT}", "--set", f"array.P0={P_OPT}",
    ],
    "max-speed-example3.json": [
        "max-speed", EX3, "--set", "metrics.a3=1.4e-8 usd/J", "--set", "metrics.a4=2.8e-5 usd/J",
    ],
    "roadmap-example3.csv": ["roadmap", EX3, "--stages", "1,20"],
    "sweep-a1-example1.csv": [
        "sweep", EX1, "--axis", "metrics.a1", "--from", "0.1 usd/W", "--to", "10 usd/W",
        "--points", "7", "--log",
    ],
    "sweep-d-example1.csv": [
        "sweep", EX1, "--axis", "array.d", "--from", "1 km", "--to", "100 km",
        "--points", "7", "--log", "--set", "metrics.a3=1.4e-8 usd/J",
        "--set", "metrics.a4=2.8e-5 usd/J",
    ],
    "sweep-a2-example3.csv": [
        "sweep", EX3, "--axis", "metrics.a2", "--from", "100 usd/m2",
        "--to", "10000 usd/m2", "--points", "7", "--log",
    ],
    # Its detail lines print the checks' measured gaps, so this also pins
    # the numeric oracle's results.
    "validate.txt": ["validate"],
}
# Canonical dumps of the fixtures.
DUMPS = {f"dump-{Path(path).name}": path for path in (EX1, EX2, EX3)}


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert _stdout(CASES[name]) == (GOLDEN / name).read_bytes()


def _dump(path):
    return dump_scenario(load_scenario(path)).encode("utf-8")


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_matches_golden(name):
    assert _dump(DUMPS[name]) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_bytes(_stdout(argv))
        print(f"wrote {GOLDEN / name}")
    for name, path in DUMPS.items():
        (GOLDEN / name).write_bytes(_dump(path))
        print(f"wrote {GOLDEN / name}")
