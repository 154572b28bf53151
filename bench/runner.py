"""Running ops and judging their results.

An op runs either as the user runs it, a ``python -m sailcost.cli``
child process spawned by ``launch.py``, or in this process through
``sailcost.cli.main`` for the traced run.  Either way one pass runs the workload's ops one at a time,
each after the previous one has finished (a closed loop with one
client), and is then judged op by op.
"""

import base64
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import verify

OP_TIMEOUT_S = 120


def child_env(root):
    """The environment of every child: the checkout's own sources, and no
    output-directory redirection from the caller's shell."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("SAILCOST_OUTPUT_DIR", None)
    return env


def run_child(cmd, env, cwd):
    """Run one child to completion; returns (exit code, stdout, stderr,
    seconds).  A child past the timeout is killed and waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\ntimed out after {OP_TIMEOUT_S} s".encode()
    return proc.returncode, out, err, time.perf_counter() - start


class Launcher:
    """Runs ops through one ``launch.py`` process, which spawns each op
    and measures its latency.  Call it with an argument list; ``close``
    returns the peak RSS of the ops and of the launcher itself, in KiB
    (``children_maxrss_kb``, ``self_peak_kb``)."""

    def __init__(self, root, cwd):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
        self.proc = subprocess.Popen(
            [sys.executable, script, str(OP_TIMEOUT_S)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(root), cwd=cwd, text=True,
        )

    def __call__(self, argv):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["rc"], base64.b64decode(reply["stdout"]),
                base64.b64decode(reply["stderr"]), reply["seconds"])

    def close(self):
        self.proc.stdin.close()
        reply = json.loads(self.proc.stdout.readline())
        self.proc.wait()
        return reply

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def in_process_executor(cli):
    """Calls ``cli.main`` through the module attribute, so a traced
    wrapper bound there is the one that runs."""

    def execute(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
        return rc, out.getvalue().encode(), err.getvalue().encode(), seconds

    return execute


def startup_probe(root, repeats=5):
    """Median seconds of ``python -c pass`` and of a fresh interpreter
    importing ``sailcost.cli``, interleaved so drift hits both alike."""
    env = child_env(root)
    bare, imported = [], []
    for _ in range(repeats):
        bare.append(run_child([sys.executable, "-c", "pass"], env, root)[3])
        imported.append(run_child([sys.executable, "-c", "import sailcost.cli"], env, root)[3])
    return statistics.median(bare), statistics.median(imported)


@dataclass
class Result:
    op: object
    rc: int | None
    stdout: bytes
    stderr: bytes
    seconds: float
    data: bytes = b""
    failure: str | None = None


@dataclass
class Pass:
    results: list
    wall_s: float

    def digest(self):
        """SHA-256 of the pass's result bytes (stdout or ``-o`` file) in op order."""
        h = hashlib.sha256()
        for r in self.results:
            h.update(r.data)
        return h.hexdigest()


class Judge:
    """Checks every result of the first pass in full; a later pass's
    result passes when its exit code, stderr and bytes equal the first
    pass's, and any difference is a failure, since the CLI promises
    byte-identical output for identical invocations."""

    def __init__(self):
        self.first = {}

    def __call__(self, index, result):
        h = hashlib.sha256
        key = (result.rc, h(result.stderr).digest(), h(result.data).digest())
        if index in self.first:
            first_key, verdict = self.first[index]
            if key == first_key:
                return verdict
            return verify.check(result.op, result.rc, result.stdout, result.stderr, result.data) \
                or "output differs from the first pass"
        verdict = verify.check(result.op, result.rc, result.stdout, result.stderr, result.data)
        self.first[index] = (key, verdict)
        return verdict


def run_pass(ops, execute, judge):
    """Run every op once, in order, then judge the results."""
    for op in ops:
        if op.output is not None and os.path.exists(op.output):
            os.unlink(op.output)
    results = []
    start = time.perf_counter()
    previous = None
    for op in ops:
        argv = op.argv
        if op.after_optimum:
            try:
                argv = argv + verify.optimum_overrides(previous.stdout)
            except (ValueError, KeyError, AttributeError) as exc:
                results.append(Result(op, None, b"", b"", 0.0, failure=f"no optimum to solve at: {exc!r}"))
                previous = None
                continue
        previous = Result(op, *execute(argv))
        results.append(previous)
    wall = time.perf_counter() - start
    for index, result in enumerate(results):
        if result.failure:
            continue
        if result.op.output is None:
            result.data = result.stdout
        else:
            try:
                with open(result.op.output, "rb") as fh:
                    result.data = fh.read()
            except OSError:
                result.data = b""
        result.failure = judge(index, result)
    return Pass(results, wall)
