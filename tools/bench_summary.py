"""Summarize benchmark run records into one committed BENCH_<n>.json.

    python3 tools/bench_summary.py --out BENCH_10.json \
        --group parent runs/parent-*.json --group change runs/change-*.json

Each path is a run record that ``bench/run.py`` writes under
``.bench_build/sailcost-bench/`` (copy each one away before the next run
of the same workload and seed overwrites it).  Records are grouped by
the label given with ``--group``, then by workload (a traced run counts
as the workload ``<name>+trace``).  For each metric the summary holds the
median and the quartiles across all of the group's runs, and every run's
value listed under its seed (runs that share a seed keep the order in
which their records were given), so that paired runs can be compared from
the file alone.  With exactly two groups, ``pairs`` counts, per workload
and metric, the runs paired across them (by seed, and by order within a
seed).  For a metric that ``BENCHMARK.json`` (which this only reads)
declares, it applies the claim rule in the metric's ``better``
direction: ``second_better`` pairs, the first group's ``first_iqr``,
``gain_shown`` when at least 9 in 10 pairs are better and the medians
differ by more than ``first_iqr`` that way, and, for an end-to-end
metric, ``worse_than_bound`` when the second median is worse than the
first by more than ``bound`` times the first.  A metric it does not
declare gets ``second_lower``, the pairs whose second value is lower.
The Python versions, commits and CPU counts come from the records.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _spread(values):
    """Median and quartiles; the quartiles are the median for one value."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _distinct(values):
    unique = sorted(set(values), key=str)
    return unique[0] if len(unique) == 1 else unique


def summarize_group(records):
    """{workload: summary} for one group's run records."""
    workloads = {}
    for record in records:
        args = record["args"]
        name = args["workload"] + ("+trace" if args.get("trace") else "")
        workloads.setdefault(name, []).append(record)
    summary = {}
    for name, runs in sorted(workloads.items()):
        runs.sort(key=lambda record: record["args"]["seed"])
        metrics = {}
        for metric in runs[0]["metrics"]:
            by_seed, values = {}, []
            for run in runs:
                value = run["metrics"].get(metric)
                if value is not None:
                    by_seed.setdefault(str(run["args"]["seed"]), []).append(value)
                    values.append(value)
            if values:
                metrics[metric] = {**_spread(values), "by_seed": by_seed}
        summary[name] = {
            "runs": len(runs),
            "seconds": _distinct(run["args"]["seconds"] for run in runs),
            "failed": sum(len(run["failures"]) for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "output_sha256": _distinct(run["info"].get("output_sha256") for run in runs),
            "metrics": metrics,
        }
    return summary


def declared_metrics(benchmark):
    """{metric: (better, bound)} of a BENCHMARK document; the bound is None
    for a per-layer metric."""
    return {
        **{m["name"]: (m["better"], None) for m in benchmark["per_layer"]},
        **{m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]},
    }


def _claim(pairs, before, after, better, bound):
    """The claim rule's fields for one metric: ``before`` and ``after``
    are the two groups' summaries of it, ``pairs`` its paired values."""
    sign = 1 if better == "lower" else -1  # sign * (first - second) > 0: the second is better
    claim = {
        "second_better": sum(sign * (a - b) > 0 for a, b in pairs),
        "first_iqr": before["q3"] - before["q1"],
    }
    gain = sign * (before["median"] - after["median"])
    claim["gain_shown"] = (
        bool(pairs) and 10 * claim["second_better"] >= 9 * len(pairs)
        and gain > claim["first_iqr"]
    )
    if bound is not None:
        claim["worse_than_bound"] = -gain > bound * before["median"]
    return claim


def paired_wins(first, second, declared):
    """{workload: {metric: {"pairs": n, ...}}} for two groups' workload
    summaries.  The i-th run of a seed in one group is paired with the
    i-th run of that seed in the other.  A metric of ``declared``
    ({metric: (better, bound)}) gets the claim rule's fields (``_claim``),
    any other metric ``second_lower``, the pairs whose second value is
    the lower one."""
    wins = {}
    for name in sorted(first.keys() & second.keys()):
        wins[name] = {}
        for metric in sorted(first[name]["metrics"].keys() & second[name]["metrics"].keys()):
            before, after = first[name]["metrics"][metric], second[name]["metrics"][metric]
            pairs = [
                pair for seed in before["by_seed"].keys() & after["by_seed"].keys()
                for pair in zip(before["by_seed"][seed], after["by_seed"][seed])
            ]
            wins[name][metric] = {"pairs": len(pairs)}
            if metric in declared:
                wins[name][metric].update(_claim(pairs, before, after, *declared[metric]))
            else:
                wins[name][metric]["second_lower"] = sum(b < a for a, b in pairs)
    return wins


def summarize(groups):
    """The BENCH document for {label: [run record, ...]}."""
    everything = [record for records in groups.values() for record in records]
    environment = [record["environment"] for record in everything]
    summaries = {label: summarize_group(records) for label, records in groups.items()}
    document = {
        "python": _distinct(env["python"] for env in environment),
        "nproc": _distinct(env["nproc"] for env in environment),
        "groups": {
            label: {
                "commit": _distinct(record["environment"]["commit"] for record in records),
                "workloads": summaries[label],
            }
            for label, records in groups.items()
        },
    }
    if len(groups) == 2:
        first, second = groups
        declared = declared_metrics(json.loads(BENCHMARK.read_text()))
        document["pairs"] = {
            "first": first, "second": second,
            "workloads": paired_wins(summaries[first], summaries[second], declared),
        }
    return document


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument(
        "--group", required=True, nargs="+", action="append", metavar=("LABEL", "RECORD"),
        help="a label and the run records it names; repeat for each group",
    )
    args = parser.parse_args(argv)
    groups = {}
    for label, *paths in args.group:
        if not paths:
            parser.error(f"--group {label}: no run records given")
        if label in groups:
            parser.error(f"--group {label}: label given twice")
        groups[label] = [json.loads(Path(path).read_text()) for path in paths]
    Path(args.out).write_text(json.dumps(summarize(groups), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
