import ast
import collections
import importlib
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sailcost

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
FIXTURES = ROOT / "fixtures"


def test_version_matches_pyproject():
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert match and sailcost.__version__ == match.group(1)


def test_public_names_are_those_of_their_modules():
    assert sailcost.__all__ == sorted(sailcost.__all__)
    for name in sailcost.__all__:
        module = importlib.import_module(f"sailcost.{sailcost._MODULE_OF[name]}")
        assert getattr(sailcost, name) is getattr(module, name), name
    assert set(dir(sailcost)) >= set(sailcost.__all__)


def test_moved_names_stay_importable_from_their_old_modules():
    from sailcost import costs, optimize, roadmap, scenario

    assert roadmap.TechCurve is scenario.TechCurve is sailcost.TechCurve
    assert optimize.require_cost_mode is costs.require_cost_mode


def test_star_import():
    namespace = {}
    exec("from sailcost import *", namespace)
    assert set(sailcost.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        sailcost.frobnicate
    assert not hasattr(sailcost, "_no_such_name")


# Runs the CLI as ``python -m sailcost.cli`` does, then prints its exit
# code and the modules it loaded as the last line.
_CHILD = """
import json, runpy, sys
try:
    runpy.run_module("sailcost.cli", run_name="__main__", alter_sys=True)
    code = None
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""
_OPTIONAL = {"sailcost.checks", "sailcost.optimize", "sailcost.roadmap", "csv"}
# The records need neither, and importing them dominated a cold start.
_NEVER = {"dataclasses", "inspect"}
EX1, EX3 = str(FIXTURES / "example1.scn"), str(FIXTURES / "example3.scn")


@pytest.mark.parametrize(
    ("argv", "needs"),
    [
        (["solve", EX1, "--set", "array.P0=100 GW", "--set", "array.d=10 km"], set()),
        (["optimize", EX1], set()),
        (["energy", EX1], set()),
        (["max-speed", EX3], {"sailcost.optimize"}),
        (["sweep", EX1, "--axis", "metrics.a1", "--from", "0.1 usd/W", "--to", "1 usd/W",
          "--points", "3"], {"sailcost.optimize"}),
        (["roadmap", EX3, "--stages", "1,2"], {"sailcost.roadmap", "csv"}),
        (["validate"], {"sailcost.checks", "sailcost.optimize", "sailcost.roadmap"}),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, needs):
    if argv != ["validate"]:
        argv = [*argv, "-o", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True, check=True
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert _OPTIONAL & set(modules) == needs
    assert not _NEVER & set(modules)


def test_package_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, sailcost; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    assert [m for m in json.loads(proc.stdout) if m.startswith("sailcost")] == ["sailcost"]


# Module-level functions that only the tests call: reference
# implementations that check the model from outside it.
_TEST_REFERENCES = {
    "scenario_with",  # the record-rebuilding sweep point the kernel sweep is checked against
    "speed_curve_fixed_cost",  # the beta^2(d) scan that checks the fixed-budget speed maximum
}


def test_every_module_function_is_named_somewhere_in_the_package():
    """No helper that nothing calls: each module-level function is named in
    ``src/`` outside its own ``def``, unless it is public, a dunder, or a
    test reference implementation."""
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "sailcost").glob("*.py"))]

    def names(node):
        return [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        ]

    used = collections.Counter(name for tree in trees for name in names(tree))
    unused = [
        func.name
        for tree in trees for func in tree.body
        if isinstance(func, ast.FunctionDef)
        and used[func.name] == names(func).count(func.name)
        and func.name not in sailcost._MODULE_OF
        and func.name not in _TEST_REFERENCES
        and not (func.name.startswith("__") and func.name.endswith("__"))
    ]
    assert unused == []


_LOOSE_ARRAY_FLOATS = {"wavelength", "diffraction_factor", "array_shape", "beam_fraction"}
_RECORD_ORDER = ("payload", "sail", "array", "metrics")


def test_record_functions_take_the_array_spec_in_scenario_order():
    """A public cost, optimizer or roadmap function that takes a parameter
    record takes the array as one ``ArraySpec``, never as its loose floats,
    and takes its records in the Scenario's order."""
    from sailcost import costs, optimize, roadmap

    checked = []
    for module in (costs, optimize, roadmap):
        for name, func in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(func):
                continue
            if func.__module__ != module.__name__:
                continue
            params = list(inspect.signature(func).parameters)
            if not {"payload", "sail", "metrics"} & set(params):
                continue
            checked.append(name)
            assert not _LOOSE_ARRAY_FLOATS & set(params), (name, params)
            records = [p for p in params if p in _RECORD_ORDER]
            assert records == [p for p in _RECORD_ORDER if p in records], (name, params)
    assert {
        "a1_for_budget", "closed_form_optimum", "cost_components", "plan_stages",
        "speed_curve_fixed_cost", "time_of_entry",
    } <= set(checked)
