"""Summarize benchmark run records into one committed BENCH_<n>.json.

    python3 tools/bench_summary.py --out BENCH_10.json \
        --group parent runs/parent-*.json --group change runs/change-*.json

Each path is a run record that ``bench/run.py`` writes under
``.bench_build/sailcost-bench/`` (copy each one away before the next run
of the same workload and seed overwrites it).  Records are grouped by
the label given with ``--group``, then by workload (a traced run counts
as the workload ``<name>+trace``).  For each metric the summary holds the
median and the quartiles across the group's runs, with every run's value
by seed, so that paired runs can be compared from the file alone.  The
Python versions, commits and CPU counts come from the records.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


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
            by_seed = {
                str(run["args"]["seed"]): run["metrics"][metric]
                for run in runs if run["metrics"].get(metric) is not None
            }
            if by_seed:
                metrics[metric] = {**_spread(list(by_seed.values())), "by_seed": by_seed}
        summary[name] = {
            "runs": len(runs),
            "seconds": _distinct(run["args"]["seconds"] for run in runs),
            "failed": sum(len(run["failures"]) for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "output_sha256": _distinct(run["info"].get("output_sha256") for run in runs),
            "metrics": metrics,
        }
    return summary


def summarize(groups):
    """The BENCH document for {label: [run record, ...]}."""
    everything = [record for records in groups.values() for record in records]
    environment = [record["environment"] for record in everything]
    return {
        "python": _distinct(env["python"] for env in environment),
        "nproc": _distinct(env["nproc"] for env in environment),
        "groups": {
            label: {
                "commit": _distinct(record["environment"]["commit"] for record in records),
                "workloads": summarize_group(records),
            }
            for label, records in groups.items()
        },
    }


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
