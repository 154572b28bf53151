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
    assert op["by_seed"] == {"1": [0.5], "2": [0.1], "3": [0.4], "4": [0.2], "5": [0.3]}
    single = doc["groups"]["change"]["workloads"]["cli-mix+trace"]["metrics"]["op_p50_s"]
    assert (single["median"], single["q1"], single["q3"]) == (0.9, 0.9, 0.9)


def test_runs_that_share_a_seed_all_count(tmp_path):
    """Seeds 1-3 in turn over 10 runs: the median, the quartiles and ``n``
    take all 10 values, not the last run of each seed (which would give
    a median of 0.92), and each seed lists its runs in the given order."""
    values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.53, 0.6, 0.91, 0.92, 0.93]
    records = [_record("cli-mix", run % 3 + 1, value) for run, value in enumerate(values)]
    mix = bench_summary.summarize_group(records)["cli-mix"]
    op = mix["metrics"]["op_p50_s"]
    assert (mix["runs"], op["n"], op["median"]) == (10, 10, pytest.approx(0.515))
    assert op["q1"] == pytest.approx(0.275) and op["q3"] == pytest.approx(0.9125)
    assert op["by_seed"] == {
        "1": [0.1, 0.4, 0.6, 0.93], "2": [0.2, 0.5, 0.91], "3": [0.3, 0.53, 0.92],
    }


def test_a_label_without_records_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_summary.main(["--out", str(tmp_path / "x.json"), "--group", "parent"])


def test_two_groups_count_the_pairs_the_second_one_is_lower_in(tmp_path):
    """Runs pair by seed and by order within a seed: seed 1's two runs
    pair in turn, and the change's extra seed-2 run and the parent's
    seed-3 run pair with nothing.  The change is lower in 2 of 3 pairs of
    ``op_p50_s`` and in none of ``peak_rss_mib``, which ties throughout."""
    parent = [_record("cli-mix", 1, 0.5), _record("cli-mix", 1, 0.3),
              _record("cli-mix", 2, 0.4), _record("cli-mix", 3, 0.1)]
    change = [_record("cli-mix", 1, 0.4), _record("cli-mix", 1, 0.2),
              _record("cli-mix", 2, 0.6), _record("cli-mix", 2, 0.1)]
    doc = bench_summary.summarize({"parent": parent, "change": change})
    op = doc["pairs"]["workloads"]["cli-mix"]["op_p50_s"]
    assert op.pop("first_iqr") == pytest.approx(0.475 - 0.15)
    assert doc["pairs"] == {
        "first": "parent", "second": "change",
        "workloads": {"cli-mix": {
            "op_p50_s": {
                "pairs": 3, "second_better": 2, "gain_shown": False, "worse_than_bound": False,
            },
            "peak_rss_mib": {
                "pairs": 3, "second_better": 0, "first_iqr": 0.0, "gain_shown": False,
                "worse_than_bound": False,
            },
        }},
    }
    assert "pairs" not in bench_summary.summarize({"parent": parent})
    three = bench_summary.summarize({"a": parent, "b": change, "c": parent})
    assert "pairs" not in three


def test_two_groups_apply_the_claim_rule_in_each_metrics_direction():
    """Ten seed pairs, read against the repository's BENCHMARK.json.
    ``op_p50_s`` (lower is better) is better in 9 of them and its median
    falls by 0.6, more than the parent's quartile spread of 0.55: a gain
    is shown.  ``ops_per_s`` (higher is better) falls from 10 to 7 in
    every pair, by more than its bound of 0.25 of 10.  A per-layer metric
    has no bound, and a metric the benchmark does not declare gets only
    the count of pairs the second group is lower in."""
    parent, change = [], []
    for seed in range(1, 11):
        before = 1.0 + (seed - 1) / 10
        after = before + 0.1 if seed == 10 else before - 0.6
        for runs, op, ops, extra in ((parent, before, 10.0, 2.0), (change, after, 7.0, 1.0)):
            record = _record("cli-mix", seed, op)
            record["metrics"].update({"ops_per_s": ops, "cli.import_s": 0.02, "x.undeclared": extra})
            runs.append(record)
    pairs = bench_summary.summarize({"parent": parent, "change": change})["pairs"]
    mix = pairs["workloads"]["cli-mix"]
    assert mix["op_p50_s"].pop("first_iqr") == pytest.approx(0.55)
    assert mix == {
        "op_p50_s": {
            "pairs": 10, "second_better": 9, "gain_shown": True, "worse_than_bound": False,
        },
        "ops_per_s": {
            "pairs": 10, "second_better": 0, "first_iqr": 0.0, "gain_shown": False,
            "worse_than_bound": True,
        },
        "cli.import_s": {"pairs": 10, "second_better": 0, "first_iqr": 0.0, "gain_shown": False},
        "peak_rss_mib": {
            "pairs": 10, "second_better": 0, "first_iqr": 0.0, "gain_shown": False,
            "worse_than_bound": False,
        },
        "x.undeclared": {"pairs": 10, "second_lower": 10},
    }
