"""Run interleaved parent/change pairs of one benchmark workload and
summarize them into one BENCH_<n>.json.

    python3 tools/bench_pairs.py --workload sweep-large --pairs 10 \
        --parent HEAD~1 --change HEAD --seeds 1,2,3 --out BENCH_37.json

Each side runs ``bench/run.py`` for ``BENCHMARK.json``'s ``run_seconds``
from its own fresh ``git archive`` copy of its revision, never from the
working checkout: uncommitted files, build leftovers and caches there
would change what is measured.  Pair ``i`` runs the parent first when
``i`` is even and the change first when it is odd, so a drift of the
host's speed favours neither side, and it uses seed
``seeds[i % len(seeds)]``.  Each run record is copied away before the
next run of that copy overwrites it, with its commit set to the archived
revision (an archive copy has no ``.git`` for ``bench/run.py`` to read it
from).  ``tools/bench_summary.py`` then writes the summary, the parent as
the first group; it lists every run's value, so the copies and records
live in a temporary directory that is removed afterwards.  Standard
library only.
"""
import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import bench_summary

REPO = Path(__file__).resolve().parent.parent
LABELS = ("parent", "change")


def resolve(repo, revision):
    """The full commit id of ``revision`` in ``repo``."""
    return subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", f"{revision}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def archive(repo, commit, dest):
    """Extract the committed tree of ``commit`` into the new directory ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as bundle:
        if hasattr(tarfile, "data_filter"):
            bundle.extractall(dest, filter="data")
        else:
            bundle.extractall(dest)
    return dest


def schedule(pairs, seeds):
    """[(seed, labels in run order)] for each pair, alternating which side runs first."""
    return [
        (seeds[i % len(seeds)], LABELS if i % 2 == 0 else LABELS[::-1]) for i in range(pairs)
    ]


def run_once(copy, workload, seed, seconds):
    """Run ``bench/run.py`` in ``copy``; returns its run record."""
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, check=True,
    )
    record = copy / ".bench_build" / "sailcost-bench" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True, help="number of pairs to run")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--parent", default="HEAD~1", help="revision of the first group")
    parser.add_argument("--change", default="HEAD", help="revision of the second group")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds, used in turn")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs: need >= 1")
    seeds = [int(seed) for seed in args.seeds.split(",")]
    seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]

    commits = dict(zip(LABELS, (resolve(REPO, args.parent), resolve(REPO, args.change))))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        work = Path(tmp)
        copies = {label: archive(REPO, commits[label], work / label) for label in LABELS}
        (work / "records").mkdir()
        groups = {label: [] for label in LABELS}
        for i, (seed, order) in enumerate(schedule(args.pairs, seeds)):
            for label in order:
                print(f"pair {i + 1}/{args.pairs}: {label} seed {seed}",
                      file=sys.stderr, flush=True)
                record = run_once(copies[label], args.workload, seed, seconds)
                record["environment"]["commit"] = commits[label]
                path = work / "records" / f"{label}-{i + 1:02d}.json"
                path.write_text(json.dumps(record, indent=1) + "\n")
                groups[label].append(str(path))
        grouped = (arg for label in LABELS for arg in ("--group", label, *groups[label]))
        return bench_summary.main(["--out", args.out, *grouped])


if __name__ == "__main__":
    sys.exit(main())
