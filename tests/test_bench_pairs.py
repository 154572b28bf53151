"""tools/bench_pairs.py on a throwaway repository: each side runs from an
archive of its commit, the sides alternate, and the records are summarized."""

import importlib
import json
import os
import subprocess
import tempfile

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")

# A stand-in for bench/run.py: it logs which copy ran it and writes the
# run record where the real one does, with op_p50_s set to ``VALUE``.
FAKE_RUN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path(__file__).resolve().parent.parent
with open({log!r}, "a") as log:
    log.write("{side} " + args["--seed"] + "\\n")
out = root / ".bench_build" / "sailcost-bench"
out.mkdir(parents=True, exist_ok=True)
record = {{
    "args": {{"workload": args["--workload"], "seed": int(args["--seed"]),
              "seconds": float(args["--seconds"]), "trace": 0}},
    "environment": {{"python": "3", "commit": "unknown", "nproc": 2}},
    "metrics": {{"op_p50_s": {value}}},
    "info": {{"output_sha256": "same"}},
    "attempted": 1,
    "failures": [],
}}
name = args["--workload"] + "-seed" + args["--seed"] + "-trace0.json"
(out / name).write_text(json.dumps(record))
"""


def _git(repo, *argv):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *argv],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def _commit(repo, log, side, value):
    (repo / "bench" / "run.py").write_text(FAKE_RUN.format(log=str(log), side=side, value=value))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", side)
    return _git(repo, "rev-parse", "HEAD")


def test_pairs_alternate_between_archived_commits(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    bench_pairs = importlib.import_module("bench_pairs")
    repo, log, scratch = tmp_path / "repo", tmp_path / "runs.log", tmp_path / "tmp"
    (repo / "bench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    scratch.mkdir()
    monkeypatch.setattr(bench_pairs, "REPO", repo)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    _git(repo, "init", "-q")
    parent = _commit(repo, log, "parent", 0.2)
    change = _commit(repo, log, "change", 0.1)
    # Neither side may run the working checkout's uncommitted file.
    (repo / "bench" / "run.py").write_text(FAKE_RUN.format(log=str(log), side="dirty", value=9))

    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main([
        "--workload", "cli-mix", "--pairs", "4", "--seeds", "1,2", "--out", str(out),
    ]) == 0
    assert log.read_text().splitlines() == [
        "parent 1", "change 1", "change 2", "parent 2",
        "parent 1", "change 1", "change 2", "parent 2",
    ]
    assert not (repo / ".bench_build").exists()
    assert os.listdir(scratch) == []
    doc = json.loads(out.read_text())
    assert {label: group["commit"] for label, group in doc["groups"].items()} == {
        "parent": parent, "change": change,
    }
    for group in doc["groups"].values():
        run = group["workloads"]["cli-mix"]
        assert (run["runs"], run["seconds"], run["metrics"]["op_p50_s"]["n"]) == (4, 1.0, 4)
    op = doc["pairs"]["workloads"]["cli-mix"]["op_p50_s"]
    assert (op["pairs"], op["second_better"]) == (4, 4)


def test_schedule_alternates_the_first_side_and_cycles_the_seeds(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    bench_pairs = importlib.import_module("bench_pairs")
    first = ("parent", "change")
    assert bench_pairs.schedule(5, [1, 2, 3]) == [
        (1, first), (2, first[::-1]), (3, first), (1, first[::-1]), (2, first),
    ]
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "cli-mix", "--pairs", "0", "--out", "x.json"])
