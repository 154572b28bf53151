"""The sweep path: rows straight from the float kernels must equal, cell
for cell, what the public record functions give at each point, and a
failing point must fail as the record path does."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sailcost import KinematicsResult, cli, model, optimize
from sailcost.cli import main
from sailcost.costs import closed_form_optimum, maximize_speed_fixed_cost
from sailcost.errors import DegenerateOptimumError, SailcostError, ValidationError
from sailcost.optimize import (
    constrained_cost,
    require_cost_mode,
    sweep_lines,
)
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec
from sailcost.scenario import (
    SWEEP_FIELDS,
    apply_overrides,
    build_scenario,
    kernel_point,
    SweepSpec,
    parse_entries,
    sweep_field,
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
    "target.beta0": {"sail.S_y", "sail.s", "array.P0", "target.budget"},
    "target.budget": {
        "sail.S_y", "sail.s", "array.P0",
        "metrics.a3", "metrics.a4", "metrics.eps_storage", "metrics.N_shot",
    },
}


def _scenario(example, overrides):
    with open(os.path.join(FIXTURES, f"{example}.scn"), encoding="utf-8") as fh:
        return build_scenario(apply_overrides(parse_entries(fh.read()), overrides))


def scenario_with(scenario, axis, si_value):
    """Copy of a scenario with one sweepable field replaced (SI value)."""
    _, record, attr, *_ = sweep_field(axis)
    if record is None:
        return scenario.replace(**{attr: si_value})
    return scenario.replace(**{record: getattr(scenario, record).replace(**{attr: si_value})})


def test_scenario_with_replaces_nested_field():
    sc = _scenario("example1", [])
    varied = scenario_with(sc, "metrics.a1", 0.5)
    assert varied.metrics.laser_usd_per_watt == 0.5
    assert varied.sail == sc.sail
    assert scenario_with(sc, "payload.m0", 2e-3).payload.mass == 2e-3


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
        mass = model.mass_term(**kernel_point(model.mass_term, point.payload, point.sail))
        power = model.required_power(**kernel_point(
            model.required_power, point.payload, point.sail, array,
            beta=point.beta_target, eta=point.sail.coupling, mass_term=mass,
        ))
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


def _specs(axis):
    lo, hi = RANGES[axis]
    # The second starts out of range, at -hi, for every field.
    specs = [SweepSpec(axis, lo, hi, 5), SweepSpec(axis, -hi, lo, 5)]
    if axis == "metrics.a1":
        # a1 = 0 passes its record, but leaves the cost optimum degenerate.
        specs.append(SweepSpec(axis, 0.0, hi, 2))
    return specs


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
    for spec in _specs(axis):
        grid = list(spec.values(range(spec.points)))
        got = _outcome(lambda: "".join(sweep_lines(scenario, spec)).splitlines())
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
        for spec in _specs(axis):
            result = _outcome(lambda: sweep_lines(scenario, spec))
            kinds.add(result[0] if isinstance(result, tuple) else "rows")
    assert "rows" in kinds and DegenerateOptimumError in kinds and len(kinds) >= 4


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
    assert (code, out, err) == (
        1, "", "validation_error: target.beta0: must satisfy 0 < beta0 < 1 (got 1.2)\n"
    )
    assert not path.exists()


def _cli_warned(*argv):
    """``_cli`` with every warning recorded instead of ignored: the exit
    code, stdout, stderr and the warnings issued."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


_PAST_BETA_BOUND = (
    "sweep", os.path.join(FIXTURES, "example1.scn"), "--axis", "target.beta0",
    "--from", "0.3", "--to", "1.2",
)
_BETA_BOUND_ERROR = "validation_error: target.beta0: must satisfy 0 < beta0 < 1 (got {})\n"


def test_sweep_past_a_bound_issues_no_warning():
    """--to fails its record, so the first failing point is reported
    before any kernel runs: the points below it, beta 0.6 and 0.9, warn
    nothing."""
    result = _cli_warned(*_PAST_BETA_BOUND, "--points", "4")
    assert result == (1, "", _BETA_BOUND_ERROR.format(1.2), [])


def test_sweep_past_a_bound_forks_no_child(chunked):
    """However many points it has, a sweep with a failing end computes
    none of them; the first failing point is the first past beta0 < 1."""
    result = _cli_warned(*_PAST_BETA_BOUND, "--points", "20000")
    assert result == (1, "", _BETA_BOUND_ERROR.format(1.000010000500025), [])
    assert chunked == []


@pytest.mark.parametrize(
    ("example", "command", "axis", "start", "stop", "failing", "error"),
    [
        ("example1", "optimize", "target.beta0", "0.3", "1.2", "1.2",
         "validation_error: target.beta0: must satisfy 0 < beta0 < 1 (got 1.2)\n"),
        ("example3", "max-speed", "target.budget", "-1 usd", "1e9 usd", "-1 usd",
         "validation_error: target.budget: must satisfy budget > 0 (got -1.0)\n"),
    ],
)
def test_swept_target_fails_as_set_does(example, command, axis, start, stop, failing, error):
    """A target is checked by the Scenario that holds it, so the first
    failing point of a sweep prints the line that ``--set`` of its value
    does."""
    path = os.path.join(FIXTURES, f"{example}.scn")
    swept = _cli("sweep", path, "--axis", axis, "--from", start, "--to", stop, "--points", "4")
    assert swept == _cli(command, path, "--set", f"{axis}={failing}") == (1, "", error)


def test_sweep_to_missing_directory_is_a_validation_error(spools, tmp_path):
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
    10-point run of the same sweep: nothing per point.  Records are
    counted at ``__init__``, so a build that a field's rule refuses counts
    too."""
    built = []
    for cls in RECORD_CLASSES.values():
        def counted(record, *args, original=cls.__init__, **kwargs):
            built.append(type(record).__name__)
            original(record, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
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
def test_sweep_memory_grows_by_at_most_8_bytes_per_point(tmp_path, example, axis, start, stop):
    """Neither the rows nor the grid wait in memory: from 4 000 to 12 000
    points the peak of this process's Python allocations grows by at most
    64 KiB, 8 B a point.  The rows wait in spool files, and each chunk of
    the grid computes its own points; a list of the grid took ~40 B a
    point, and holding every row as text took ~205 B."""
    path = tmp_path / "rows.csv"
    # Warm up first: the first run in a process also pays stdlib imports
    # (argparse's gettext, locale) that are not part of the table.
    _sweep_cli(example, axis, start, stop, 2, "-o", str(path))
    peaks = []
    for points in (4000, 12000):
        tracemalloc.start()
        try:
            result = _sweep_cli(example, axis, start, stop, points, "-o", str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result == (0, "", "")
    assert peaks[1] - peaks[0] <= 64 * 1024


@pytest.fixture
def spools(monkeypatch, tmp_path_factory):
    """Temp files go to an empty directory; after the test it is still
    empty, and no file is open that was not open before."""
    open_fds = os.listdir("/proc/self/fd")
    tempdir = tmp_path_factory.mktemp("spools")
    monkeypatch.setattr(tempfile, "tempdir", str(tempdir))
    yield
    assert os.listdir("/proc/self/fd") == open_fds
    assert os.listdir(tempdir) == []


@pytest.fixture(params=[2, 4], ids=lambda cpus: f"{cpus}-cpus")
def chunked(request, monkeypatch, spools):
    """Sweeps of 16 points or more run in chunks, one per CPU of
    ``request.param`` usable CPUs, with their spools as ``spools`` checks
    them.  Yields the pids forked; after the test no child of this process
    is left, reaped or not."""
    forked = []

    def fork(original=os.fork):
        pid = original()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(optimize, "_MIN_CHUNK", 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    monkeypatch.setattr(os, "fork", fork)
    yield forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_chunk(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@SWEEP_PATHS
def test_chunked_sweep_is_byte_identical_to_one_chunk(
    chunked, monkeypatch, example, axis, start, stop
):
    cpus = len(os.sched_getaffinity(0))
    result = _sweep_cli(example, axis, start, stop, 40)
    assert len(chunked) == cpus - 1
    _one_chunk(monkeypatch)
    assert _sweep_cli(example, axis, start, stop, 40) == result
    assert result[0] == 0 and result[1].count("\n") == 41 and result[2] == ""


def test_threaded_process_sweeps_in_one_chunk(chunked, monkeypatch):
    """A forked child would hold no copy of another running thread, so
    while one runs the grid is not split."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        result = _sweep_cli("example1", "metrics.a1", "0.1 usd/W", "10 usd/W", 40)
    finally:
        release.set()
        thread.join()
    assert chunked == []
    assert _sweep_cli("example1", "metrics.a1", "0.1 usd/W", "10 usd/W", 40) == result
    assert len(chunked) == len(os.sched_getaffinity(0)) - 1


# A child's text is dropped, and its chunk run here, on exit 1, without the
# end marker, or with any other last byte, such as a once-used second marker.
@pytest.mark.parametrize(
    ("text", "status"), [("forged\n\0", 1), ("forged\n", 0), ("", 0), ("forged\n\1", 0)]
)
def test_child_text_counts_only_with_exit_0_and_end_marker(chunked, monkeypatch, text, status):
    def forge(rows, chunk, spool):  # runs in the child, which exits
        try:
            spool.write(text)
            spool.flush()
        finally:
            os._exit(status)

    monkeypatch.setattr(optimize, "_spool_rows", forge)
    result = _sweep_cli("example1", "metrics.a1", "0.1 usd/W", "10 usd/W", 40)
    assert len(chunked) == len(os.sched_getaffinity(0)) - 1
    _one_chunk(monkeypatch)
    assert _sweep_cli("example1", "metrics.a1", "0.1 usd/W", "10 usd/W", 40) == result


# Runs the CLI on the arguments after the first, with that many usable
# CPUs, and with every forked child leaving ``_spool_rows`` by an exception.
_ESCAPING_CHILD = """
import os, sys
from sailcost import optimize
from sailcost.cli import main

def escape(rows, chunk, spool):
    raise RuntimeError("left _spool_rows")

cpus = int(sys.argv.pop(1))
optimize._MIN_CHUNK = 8
optimize._spool_rows = escape
os.sched_getaffinity = lambda pid: set(range(cpus))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("cpus", [2, 4])
def test_child_that_leaves_spool_rows_kills_no_process_group(cpus):
    """A child that ever left ``_spool_rows`` by an exception would unwind
    through ``_rows_in_chunks`` with no pid of its own to kill, and none
    of an older sibling's: each such child prints its one
    ``internal_error`` line and kills nothing, and this process reruns its
    chunk.  The sweep runs in a new session, so a kill of its process
    group reaches no further."""
    argv = [
        "sweep", os.path.join(FIXTURES, "example1.scn"), "--axis", "metrics.a1",
        "--from", "0.1 usd/W", "--to", "10 usd/W", "--points", "40", "--log",
    ]
    run = subprocess.run(
        [sys.executable, "-c", _ESCAPING_CHILD, str(cpus), *argv],
        capture_output=True, text=True, start_new_session=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    # The children print at once, so one's line break may follow another's line.
    line = "internal_error: RuntimeError('left _spool_rows')"
    assert (run.stderr.replace("\n", ""), run.stderr.count("\n")) == (line * (cpus - 1), cpus - 1)
    assert _cli(*argv) == (0, run.stdout, "")


def test_chunk_that_cannot_be_forked_runs_in_this_process(chunked, monkeypatch):
    """So does every chunk when no spool file can be made: its rows wait
    in memory instead."""
    fork = os.fork

    def fork_once():
        if chunked:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    result = _sweep_cli("example1", "metrics.a1", "0.1 usd/W", "10 usd/W", 40)
    assert len(chunked) == 1

    def no_file(*args, **kwargs):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(tempfile, "TemporaryFile", no_file)
        assert _sweep_cli("example1", "metrics.a1", "0.1 usd/W", "10 usd/W", 40) == result
    assert len(chunked) == 1
    _one_chunk(monkeypatch)
    assert _sweep_cli("example1", "metrics.a1", "0.1 usd/W", "10 usd/W", 40) == result


# Sweeps with the exit code and error line of the one serial loop.  A
# sweep whose --from or --to fails its record fails before any chunk
# runs, so it forks no child.  Otherwise the only failing point lies in
# the last chunk, or in the first, which this process runs while the
# children run theirs.  The first-chunk sweep has 4000 points, so when
# this process raises, a child may still be computing or writing its
# spool, and must be ended and reaped all the same.
CHUNK_FAILURES = [
    (["--axis", "metrics.N_shot", "--from", "0.5", "--to", "10", "--points", "2000"], False, 1,
     "validation_error: metrics.N_shot: must satisfy N_shot >= 1 (got 0.5)"),
    (["--axis", "array.eps_b", "--from", "0.5", "--to", "1.01", "--points", "40"], False, 1,
     "validation_error: array.eps_b: must satisfy 0 < eps_b <= 1 (got 1.01)"),
    (["--axis", "metrics.eps_storage", "--from", "1e-300", "--to", "1", "--points", "4000"],
     True, 3,
     "numeric_error: sweep: the row at metrics.eps_storage = 1e-300 is non-finite; "
     "inputs out of numeric range"),
    (["--axis", "payload.m0", "--from", "1 g", "--to", "1e300 kg", "--log", "--points", "40"],
     True, 3,
     "numeric_error: sweep: the row at payload.m0 = 1.7012542798525652e+292 is non-finite; "
     "inputs out of numeric range"),
]


@pytest.mark.parametrize(("flags", "forks", "code", "line"), CHUNK_FAILURES)
def test_failure_in_one_chunk_gives_the_serial_error(
    chunked, monkeypatch, tmp_path, flags, forks, code, line
):
    path = tmp_path / "rows.csv"
    argv = ["sweep", os.path.join(FIXTURES, "example1.scn"), *flags]
    result = _cli(*argv, "-o", str(path))
    assert len(chunked) == (len(os.sched_getaffinity(0)) - 1 if forks else 0)
    assert result == (code, "", f"{line}\n")
    assert not path.exists()
    _one_chunk(monkeypatch)
    assert _cli(*argv) == result


# Runs that reach beta 0.5, each with its stdout line count and the one
# warning it issues, under the ``default`` filter and under ``always``
# alike.  Four are 40-point sweeps: in the first only the last point
# reaches beta = 0.5; in the second every point of every chunk is at beta
# 0.6; in the third, on the budget path, the speeds of the last chunk's
# rows cross 0.5 and end at 0.69, and the warning names that last row; in
# the fourth, on the fixed-aperture path, every array size holds the
# target 0.5.  Then ``optimize`` and ``max-speed``, whose launch at the
# design point warns no second time.
_SWEEP_40 = ("--points", "40")
WARNING_RUNS = [
    (("sweep", "example1", "--axis", "target.beta0", "--from", "0.1", "--to", "0.5", *_SWEEP_40),
     41, "beta = 0.5 >= 0.5: non-relativistic model is inaccurate here"),
    (("sweep", "example1", "--set", "target.beta0=0.6", "--axis", "metrics.a1",
      "--from", "0.1 usd/W", "--to", "10 usd/W", "--log", *_SWEEP_40),
     41, "beta = 0.6 >= 0.5: non-relativistic model is inaccurate here"),
    (("sweep", "example3", "--axis", "target.budget", "--from", "1e11 usd", "--to", "1e12 usd",
      "--log", *_SWEEP_40),
     41, "beta = 0.6866 >= 0.5: non-relativistic model is inaccurate here"),
    (("sweep", "example1", "--set", "target.beta0=0.5", "--axis", "array.d",
      "--from", "1 km", "--to", "30 km", *_SWEEP_40),
     41, "beta = 0.5 >= 0.5: non-relativistic model is inaccurate here"),
    (("optimize", "example1", "--set", "target.beta0=0.7"),
     32, "beta = 0.7 >= 0.5: non-relativistic model is inaccurate here"),
    (("max-speed", "example3", "--set", "target.budget=1e12 usd"),
     32, "beta = 0.6866 >= 0.5: non-relativistic model is inaccurate here"),
]


@pytest.mark.parametrize("action", ["default", "always", "error"])
@pytest.mark.parametrize(("argv", "lines", "message"), WARNING_RUNS)
def test_warning_in_a_forked_chunk_is_the_serial_warning(
    chunked, monkeypatch, action, argv, lines, message
):
    """A run warns once, from this process, naming its caller in
    ``cli.py``: a sweep however its grid was split, a design subcommand
    once for the design and its launch.  Under ``error`` it writes nothing
    and exits 3, and leaves no spool open."""
    command, example, *flags = argv

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                code = main([command, os.path.join(FIXTURES, f"{example}.scn"), *flags])
        issued = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        return code, out.getvalue(), err.getvalue(), issued

    result = run()
    assert len(chunked) == (len(os.sched_getaffinity(0)) - 1 if command == "sweep" else 0)
    code, out, err, issued = result
    if action == "error":
        line = f"internal_error: UserWarning({message!r})\n"
        assert (code, out, err, issued) == (3, "", line, [])
    else:
        assert (code, out.count("\n"), err) == (0, lines, "")
        assert [warning[:3] for warning in issued] == [(UserWarning, message, cli.__file__)]
    _one_chunk(monkeypatch)
    assert run() == result


@pytest.mark.parametrize(("example", "flags", "column"), [
    ("example1", ("--axis", "target.beta0", "--from", "0.3", "--to", "0.9"), 0),
    ("example3", ("--axis", "target.budget", "--from", "1e11 usd", "--to", "1e12 usd", "--log"),
     -1),
])
def test_every_point_of_a_warning_sweep_is_computed_once(
    chunked, monkeypatch, tmp_path, example, flags, column
):
    """Over every process, each row's beta passes ``model.check_beta``
    exactly once, where a kernel computes that row: a chunk whose rows
    reach beta 0.5 is kept, not computed again here.  The warning
    computes the first and last rows once more, on every path.  Each call
    appends its beta to a file that every child shares."""
    calls = tmp_path / "calls"
    fd = os.open(calls, os.O_WRONLY | os.O_APPEND | os.O_CREAT)

    def check_beta(beta, original=model.check_beta):
        os.write(fd, f"{beta!r}\n".encode())
        original(beta)

    monkeypatch.setattr(model, "check_beta", check_beta)
    try:
        code, out, _ = _cli(
            "sweep", os.path.join(FIXTURES, f"{example}.scn"), *flags, "--points", "40"
        )
    finally:
        os.close(fd)
    assert code == 0 and len(chunked) == len(os.sched_getaffinity(0)) - 1
    betas = [line.split(",")[column] for line in out.splitlines()[1:]]
    assert max(map(float, betas)) >= 0.5
    assert sorted(calls.read_text().split()) == sorted(betas + [betas[0], betas[-1]])


def test_at_speed_kernels_return_the_beta_they_are_given():
    """The at-speed path kernels return their target, not the launch's
    own v0/c, which here is 0.4999999999999999, so a sweep's warning
    reads the target from its end rows."""
    scenario = _scenario("example1", [])
    records = scenario.payload, scenario.sail, scenario.array, scenario.metrics
    for kernel in (model.cost_optimum, model.fixed_aperture_design):
        point = kernel_point(kernel, *records, beta=0.5, aperture=7777.0)
        assert kernel(**point)[2] == 0.5


_BUDGET_PARAMETERS = kernel_point(model.budget_design)
BUDGET_AXES = [
    axis for axis, row in SWEEP_FIELDS.items()
    if row[3] in _BUDGET_PARAMETERS and axis != "sail.D"
]


@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("axis", BUDGET_AXES)
def test_budget_sweep_speed_is_monotone(axis, scale):
    """The premise of a budget sweep's one warning: the speed at a fixed
    budget is monotone in each field it depends on, so the fastest row is
    the first or the last one, on a base where every term matters."""
    scenario = _scenario("example3", ["sail.eps_r=0.9", "sail.alpha=0.2"])
    start, stop = RANGES[axis]
    if scale == "log" and start == 0:
        start = stop / 100
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        text = "".join(sweep_lines(scenario, SweepSpec(axis, start, stop, 40, scale)))
    betas = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]
    assert betas in (sorted(betas), sorted(betas, reverse=True))
    assert len(set(betas)) > 1


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


def test_log_sweep_with_ends_a_few_ulps_apart_stays_below_its_upper_bound():
    """Ends 3 ulps apart: 9 computed points used to round to
    0.0019067271780583122, above --to, and were printed."""
    code, out, err = _sweep_cli(
        "example1", "sail.h", "0.0019067271780583114 m", "0.001906727178058312 m", 40
    )
    assert (code, err) == (0, "")
    values = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert len(values) == 40
    assert values[0] == 0.0019067271780583114 and values[-1] == 0.001906727178058312
    assert max(values) <= 0.001906727178058312


def test_log_sweep_just_below_a_bound_prints_every_row():
    """Both ends are valid speeds, 1 ulp apart, below beta0 < 1: a
    computed point used to round to 1.0 and fail that bound.  The sweep
    prints its 4 rows and warns once, in 2 lines of stderr."""
    low, high = "0.9999999999999998", "0.9999999999999999"
    run = subprocess.run(
        [sys.executable, "-m", "sailcost.cli", "sweep", os.path.join(FIXTURES, "example1.scn"),
         "--axis", "target.beta0", "--from", low, "--to", high, "--points", "4", "--log"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    header, *rows = run.stdout.splitlines()
    assert header.startswith("target.beta0,")
    assert [row.split(",")[0] for row in rows] == [low, low, high, high]
    warning, _ = run.stderr.splitlines()
    message = "beta = 1 >= 0.5: non-relativistic model is inaccurate here"
    assert warning.endswith(f"UserWarning: {message}")


# Sweeps that cross a record bound, each with the error line of its first
# failing point, reported before any kernel runs.  The bound may be a rule
# over two fields, which only a rebuilt record checks.
CROSSING_SWEEPS = [
    ("example1", "sail.eps_r", "0", "1",
     "sail: must satisfy 2 eps_r + (1 - eps_r) alpha > 0 (got (0.0, 0.0))"),
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
    # The kernel fails at the first point, 1e-300, whose record passes;
    # the record failure at a later point is reported instead.
    ("example1", "metrics.eps_storage", "1e-300", "1.5",
     "metrics.eps_storage: must satisfy 0 < eps_storage <= 1 (got 1.125)"),
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


def test_sweep_crossing_a_cross_field_rule_keeps_its_error():
    """a1 = 0 is inside a1's own bound, but with a2 = 0 it breaks the rule
    that spans both: the sweep's record rebuild reports that rule."""
    code, out, err = _cli(
        "sweep", os.path.join(FIXTURES, "example1.scn"), "--set", "metrics.a2=0 usd/m2",
        "--axis", "metrics.a1", "--from", "0 usd/W", "--to", "1 usd/W", "--points", "5",
    )
    assert (code, out, err) == (
        1, "", "validation_error: metrics: must satisfy a1 > 0 or a2 > 0 (got (0.0, 0.0))\n"
    )


def _count_rebuilds(monkeypatch, axis):
    """The swept values its record is rebuilt at, in order, and the point
    counts of the sweeps that computed rows, as two lists that fill as
    sweeps run.  Rebuilds are counted at ``__init__``: a value that its
    field's rule refuses never reaches ``__post_init__``."""
    _, group, attr, *_ = SWEEP_FIELDS[axis]
    cls = RECORD_CLASSES[group]
    values, computed = [], []

    def counted(record, *args, original=cls.__init__, **kwargs):
        values.append(kwargs[attr])
        original(record, *args, **kwargs)

    def rows_in_chunks(rows, points, original=optimize._rows_in_chunks):
        computed.append(points)
        return original(rows, points)

    monkeypatch.setattr(cls, "__init__", counted)
    monkeypatch.setattr(optimize, "_rows_in_chunks", rows_in_chunks)
    return values, computed


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
    """A 1000-point sweep rebuilds its record at ``start`` and ``stop``
    only."""
    scenario = _scenario(example, [])
    values, computed = _count_rebuilds(monkeypatch, axis)
    sweep = SweepSpec(axis, start, stop, 1000, "log")
    assert len("".join(sweep_lines(scenario, sweep)).splitlines()) == 1001
    assert (values, computed) == ([start, stop], [1000])


@pytest.mark.parametrize(
    ("axis", "start", "stop", "points", "scale", "checked", "error"),
    [
        # The ends pass: they alone are checked.
        ("metrics.a1", 0.5, 2.0, 4, "linear", [0.5, 2.0], None),
        ("metrics.a1", 0.1, 20.0, 5, "log", [0.1, 20.0], None),
        ("array.eps_b", 0.1, 1.0, 8, "linear", [0.1, 1.0], None),
        # Only the stop fails: a bisection over the points between them
        # finds the first failing one.
        ("array.eps_b", 0.5, 1.25, 4, "linear", [0.5, 1.25, 0.75, 1.0],
         (ValidationError, "array.eps_b: must satisfy 0 < eps_b <= 1 (got 1.25)")),
        ("array.eps_b", 0.5, 1.5, 5, "linear", [0.5, 1.5, 1.0, 1.25],
         (ValidationError, "array.eps_b: must satisfy 0 < eps_b <= 1 (got 1.25)")),
        ("metrics.eps_storage", 0.25, 4.0, 5, "log", [0.25, 4.0, 1.0, 2.0],
         (ValidationError, "metrics.eps_storage: must satisfy 0 < eps_storage <= 1 (got 2.0)")),
        # The start fails: it is the first failing point.
        ("metrics.N_shot", 0.5, 2.0, 4, "linear", [0.5],
         (ValidationError, "metrics.N_shot: must satisfy N_shot >= 1 (got 0.5)")),
        ("metrics.a1", -1.0, 1.0, 3, "linear", [-1.0],
         (ValidationError, "metrics.a1: must satisfy a1 >= 0 (got -1.0)")),
    ],
)
def test_sweep_checks_its_record_at_its_ends(
    monkeypatch, axis, start, stop, points, scale, checked, error
):
    """The record is rebuilt at the sweep's ``start`` and ``stop``, so a
    passing sweep rebuilds it twice.  A failing ``start`` raises at once;
    when only ``stop`` fails, the record is rebuilt at the points a
    bisection visits, and the first failing point raises, before any row
    is computed."""
    scenario = _scenario("example1", [])
    values, computed = _count_rebuilds(monkeypatch, axis)
    sweep = SweepSpec(axis, start, stop, points, scale)
    outcome = _outcome(lambda: "".join(sweep_lines(scenario, sweep)))
    assert values == checked
    if error is None:
        assert outcome.count("\n") == points + 1
        assert computed == [points]
    else:
        assert outcome == error
        assert computed == []


@pytest.mark.parametrize("points", [10, 1000, 100000])
def test_a_failing_stop_is_located_by_bisection(monkeypatch, points):
    """When only ``stop`` fails, the record is rebuilt at the two ends and
    at no more than ``ceil(log2(points))`` points between them, and the
    error names the first failing grid point, the one a scan in grid order
    reaches first."""
    axis = "array.eps_b"
    scenario = _scenario("example1", [])
    values, computed = _count_rebuilds(monkeypatch, axis)
    sweep = SweepSpec(axis, 0.5, 1.5, points, "linear")
    first = next(value for value in sweep.values(range(points)) if value > 1)
    assert _outcome(lambda: "".join(sweep_lines(scenario, sweep))) == (
        ValidationError, f"array.eps_b: must satisfy 0 < eps_b <= 1 (got {first!r})"
    )
    assert values[:2] == [0.5, 1.5]
    assert len(values) <= math.ceil(math.log2(points)) + 2
    assert computed == []


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
    """What lets a sweep check its record only at the grid's two ends: the
    values of one field that its record accepts form an interval, whatever
    the record's other fields are.  So a record that builds at lo and at
    hi builds at every value in between."""
    _, group, attr, *_ = SWEEP_FIELDS[axis]
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
