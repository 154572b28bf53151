"""tools/bench_summary.py: run records in, one BENCH document out."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_summary.py")
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def _record(workload, seed, op_p50_s, commit="abc", trace=0):
    return {
        "args": {"workload": workload, "seed": seed, "seconds": 50.0, "trace": trace},
        "environment": {"python": "3.11.7", "commit": commit, "nproc": 2},
        "metrics": {"op_p50_s": op_p50_s, "peak_rss_mib": 20.0},
        "info": {"output_sha256": f"sha-{workload}"},
        "attempted": 10,
        "failures": [],
    }


def test_summary_holds_medians_quartiles_and_runs_by_seed(tmp_path):
    paths = []
    for seed, value in enumerate([0.5, 0.1, 0.4, 0.2, 0.3], start=1):
        path = tmp_path / f"run{seed}.json"
        path.write_text(json.dumps(_record("sweep-large", seed, value)))
        paths.append(str(path))
    traced = tmp_path / "traced.json"
    traced.write_text(json.dumps(_record("cli-mix", 1, 0.9, commit="def", trace=1)))
    out = tmp_path / "BENCH_1.json"
    assert bench_summary.main(
        ["--out", str(out), "--group", "parent", *paths, "--group", "change", str(traced)]
    ) == 0
    doc = json.loads(out.read_text())
    assert (doc["python"], doc["nproc"]) == ("3.11.7", 2)
    parent = doc["groups"]["parent"]
    assert parent["commit"] == "abc"
    sweep = parent["workloads"]["sweep-large"]
    assert (sweep["runs"], sweep["failed"], sweep["attempted"]) == (5, 0, 50)
    op = sweep["metrics"]["op_p50_s"]
    assert (op["median"], op["n"]) == (0.3, 5)
    assert op["q1"] == pytest.approx(0.15) and op["q3"] == pytest.approx(0.45)
    assert op["by_seed"] == {"1": 0.5, "2": 0.1, "3": 0.4, "4": 0.2, "5": 0.3}
    single = doc["groups"]["change"]["workloads"]["cli-mix+trace"]["metrics"]["op_p50_s"]
    assert (single["median"], single["q1"], single["q3"]) == (0.9, 0.9, 0.9)


def test_a_label_without_records_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_summary.main(["--out", str(tmp_path / "x.json"), "--group", "parent"])
