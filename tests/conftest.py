"""Test-session setup: the CLI tests that start ``python -m sailcost.cli``
as a child process find the package under ``src`` with a plain
``python -m pytest`` run too (``pythonpath`` in ``pyproject.toml`` only
reaches this process).  A forked child that returns into pytest instead
of exiting is ended when its test does, so it cannot run the rest of the
session a second time."""

import os

import pytest

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
_SESSION_PID = os.getpid()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    if os.getpid() != _SESSION_PID:
        os._exit(70)
