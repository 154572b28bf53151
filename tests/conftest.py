"""Test-session setup: the CLI tests that start ``python -m sailcost.cli``
as a child process find the package under ``src`` with a plain
``python -m pytest`` run too (``pythonpath`` in ``pyproject.toml`` only
reaches this process)."""

import os

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
