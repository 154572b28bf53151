import ast
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
# code, the modules loaded at its end and those loaded before it started
# as the last line; ``json`` is imported only after the modules are listed.
_CHILD = """
import sys
before = sorted(sys.modules)
import runpy
try:
    runpy.run_module("sailcost.cli", run_name="__main__", alter_sys=True)
    code = None
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps([code, modules, before]))
"""
# Modules a subcommand loads only when it runs them.  No subcommand loads
# ``csv``: every table is written as ``repr`` cells.  Only the commands
# that write a JSON document load ``json``.  A new module stays off the
# common path the same way: the command that uses it imports it, not
# ``__init__.py``, the top level of ``cli.py``, ``scenario`` or ``costs``.
_OPTIONAL = {"sailcost.checks", "sailcost.optimize", "sailcost.roadmap", "csv", "json"}
# The records need neither, and importing them dominated a cold start.
_NEVER = {"dataclasses", "inspect"}
EX1, EX3 = str(FIXTURES / "example1.scn"), str(FIXTURES / "example3.scn")


@pytest.mark.parametrize(
    ("argv", "needs"),
    [
        (["solve", EX1, "--set", "array.P0=100 GW", "--set", "array.d=10 km"], {"json"}),
        (["optimize", EX1], {"json"}),
        (["energy", EX1], {"json"}),
        (["max-speed", EX3], {"json"}),
        (["sweep", EX1, "--axis", "metrics.a1", "--from", "0.1 usd/W", "--to", "1 usd/W",
          "--points", "3"], {"sailcost.optimize"}),
        (["roadmap", EX3, "--stages", "1,2"], {"sailcost.roadmap"}),
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
    code, modules, before = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert _OPTIONAL & set(modules) == needs
    assert not _NEVER & set(modules)
    # Pure standard library at runtime (README): what site hooks loaded
    # before the CLI started is not the CLI's.
    loaded = {name.partition(".")[0] for name in set(modules) - set(before)}
    assert loaded - sys.stdlib_module_names == {"sailcost"}


def test_package_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, sailcost; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    assert [m for m in json.loads(proc.stdout) if m.startswith("sailcost")] == ["sailcost"]


# The only module-level functions that nothing in the package calls,
# as (module, name): the library's scenario I/O (README "Library").
_UNCALLED = {("scenario", "dump_scenario"), ("scenario", "load_scenario")}


def _references(module, tree):
    """Each (module, name) that the code of ``module`` reads, with the
    top-level statement it is read in: a bare name resolves to the
    module's own definition or to what ``from .other import name``
    brought in, and ``other.name`` to ``other``'s definition when
    ``other`` came from ``from . import other``."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    for statement in tree.body:
        for node in ast.walk(statement):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue  # a name bound, not read: a field or a variable
            if isinstance(node, ast.Name):
                yield names.get(node.id, (module, node.id)), statement
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                yield (modules[node.value.id], node.attr), statement


def test_every_module_function_is_named_somewhere_in_the_package():
    """No helper that nothing calls: each module-level function is named in
    ``src/`` outside its own ``def``, as the function of its own module
    (a namesake in another module does not count), unless it is a dunder
    or listed in ``_UNCALLED``.  Being public earns no exemption."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "sailcost").glob("*.py"))
    }
    named = {
        ref
        for module, tree in trees.items()
        for ref, statement in _references(module, tree)
        if not (isinstance(statement, ast.FunctionDef) and ref == (module, statement.name))
    }
    unused = [
        f"{module}.{func.name}"
        for module, tree in trees.items() for func in tree.body
        if isinstance(func, ast.FunctionDef)
        and (module, func.name) not in named | _UNCALLED
        and not (func.name.startswith("__") and func.name.endswith("__"))
    ]
    assert unused == []
    assert not _UNCALLED & named  # a listed function that gained a caller leaves the list


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
    } <= set(checked)


# Modules that may read a parameter record's fields into a ``model`` call:
# the records themselves, and the one argument table.
_FIELD_READERS = {"params", "scenario"}


def test_model_calls_take_no_record_field_outside_the_argument_table():
    """Outside ``params`` and ``scenario``, no ``model.<fn>(...)`` call reads
    a field of a parameter record (``sail.thickness``, ``payload.mass``,
    ...) into its arguments: those fields reach a kernel only through
    ``scenario.kernel_point``."""
    from sailcost.scenario import FIELDS

    fields = {attr for _, record, attr, *_ in FIELDS.values() if record in _RECORD_ORDER}
    found = []
    for path in sorted((ROOT / "src" / "sailcost").glob("*.py")):
        if path.stem in _FIELD_READERS:
            continue
        for call in ast.walk(ast.parse(path.read_text())):
            func = getattr(call, "func", None)
            if not (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "model"):
                continue
            args = [*call.args, *(keyword.value for keyword in call.keywords)]
            found += [
                f"{path.stem}:{node.lineno} model.{func.attr}(... .{node.attr} ...)"
                for arg in args for node in ast.walk(arg)
                if isinstance(node, ast.Attribute) and node.attr in fields
            ]
    assert found == []


def test_params_writes_no_single_field_bound_by_hand():
    """Each single-field bound is written once, in its row of ``FIELDS``:
    no ``require`` call in ``params.py`` passes a field's dotted key.  Only
    the cross-field rules remain, each keyed by its record, and no other
    module defines or calls ``require``: a bound written there would be a
    second copy of a ``FIELDS`` rule."""
    elsewhere = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "sailcost").glob("*.py")) if path.name != "params.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "name", None) == "require"
        or isinstance(node, ast.Call)
        and "require" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert elsewhere == []
    tree = ast.parse((ROOT / "src" / "sailcost" / "params.py").read_text())
    keys = [
        call.args[1].value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and len(call.args) > 1
        and "require" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        and isinstance(call.args[1], ast.Constant)
    ]
    assert sorted(keys) == ["metrics", "sail"]


def test_scenario_writes_no_single_field_bound_by_hand():
    """The bounds of the Scenario's own fields and of the tech curve are
    rules of ``FIELDS`` too: no error message in ``scenario.py`` starts
    with the key of a field that has a rule, and ``TechCurve`` defines no
    ``__post_init__``."""
    from sailcost.params import FIELDS

    keys = tuple(key for key, (*_, rule) in FIELDS.items() if rule is not None)
    tree = ast.parse((ROOT / "src" / "sailcost" / "scenario.py").read_text())
    found = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and call.args
                and getattr(call.func, "id", "").endswith("Error")):
            continue
        message = call.args[0]
        if isinstance(message, ast.JoinedStr) and message.values:
            message = message.values[0]
        if isinstance(message, ast.Constant) and str(message.value).startswith(keys):
            found.append(f"scenario:{call.lineno} {message.value!r}")
    assert found == []
    curve = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "TechCurve"
    )
    assert "__post_init__" not in [getattr(node, "name", None) for node in curve.body]


def _names_warnings(module: str) -> bool:
    """Whether ``sailcost/<module>.py`` imports or names ``warnings``."""
    tree = ast.parse((ROOT / "src" / "sailcost" / f"{module}.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    named = [node.id for node in ast.walk(tree) if isinstance(node, ast.Name)]
    return "warnings" in imported + modules + named


def test_model_neither_imports_nor_names_warnings():
    """The kernels compute and their callers warn: ``model.py`` neither
    imports ``warnings`` nor names it."""
    assert not _names_warnings("model")


def test_forked_sweep_chunks_set_no_warning_filter():
    """A forked sweep chunk runs only kernels, which never warn, so
    ``optimize.py`` needs no warning filter around it and names no
    ``warnings``."""
    assert not _names_warnings("optimize")


def test_readme_is_at_most_250_lines():
    """README was cut to 250 lines with every contract kept; it stays
    within them."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= 250


def test_readme_names_every_long_option():
    """README states the CLI contract, so every long option that
    ``cli.build_parser`` defines, on any subcommand, appears in it."""
    import argparse

    from sailcost.cli import build_parser

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    parsers, options = [build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif not isinstance(action, argparse._HelpAction):
                options.update(o for o in action.option_strings if o.startswith("--"))
    assert {"--output", "--wall-plug", "--stages"} <= options  # every subcommand is read
    missing = [o for o in sorted(options) if not re.search(rf"{re.escape(o)}(?![\w-])", readme)]
    assert missing == []
