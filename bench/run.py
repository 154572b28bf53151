"""sailcost benchmark: one command runs a workload, checks every output,
and prints every metric by name with its unit.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload as users run it, ``python -m
sailcost.cli`` child processes one at a time, and reports the end-to-end
metrics.  ``--trace 1`` replays the inputs in process with spans around
every layer's public functions and reports the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Inputs, outputs, the run record and the spans go under
``.bench_build/sailcost-bench/``.  See ``bench/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import runner
import inputs
import tracing
import verify

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "sailcost-bench"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return " ".join(f"{x:.2f}" for x in os.getloadavg())


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _failures(passes):
    return [f"{r.op.kind} {r.op.argv[:2]}: {r.failure}" for p in passes for r in p.results if r.failure]


def environment():
    return {
        "python": sys.version.split()[0],
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


def measure(workload, seed, seconds):
    """Run passes over the workload's ops for ``seconds`` in all.  The
    ``SETUP_REPEATS`` set-ups are spread over the run, one at the start
    and one after each equal slice of the passes, so their median samples
    the host's speed at several times, as the passes do."""
    workdir = OUT / workload
    bare_s, _ = runner.startup_probe(ROOT, STARTUP_REPEATS)
    setups = []
    with runner.Launcher(ROOT, OUT) as execute:

        def set_up():
            start = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            ops = inputs.generate(workload, seed, workdir)
            execute(ops[0].argv)  # untimed warm-up invocation
            setups.append(time.perf_counter() - start)
            return ops

        ops = set_up()
        judge = runner.Judge()
        passes = []
        for _ in range(SETUP_REPEATS - 1):
            start = time.perf_counter()
            while True:
                passes.append(runner.run_pass(ops, execute, judge))
                if time.perf_counter() - start >= seconds / (SETUP_REPEATS - 1):
                    break
            set_up()
        rss = execute.close()

    results = [r for p in passes for r in p.results]
    latencies = [r.seconds for r in results if r.rc is not None]
    walls = [p.wall_s for p in passes]
    busy = sum(walls)
    rows = sum(op.rows for op in ops if op.kind == "sweep") * len(passes)
    failures = _failures(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "ops_per_s": len(latencies) / busy,
        "peak_rss_mib": rss["children_maxrss_kb"] / 1024,
    }
    digests = {p.digest() for p in passes}
    info = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_samples": len(latencies),
        # The highest percentile with at least ten samples beyond it.
        "op_p90_s": statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 100 else None,
        "points_per_s": rows / busy if rows else None,
        "failed_ratio": len(failures) / len(results),
        "warnings": sum(1 for r in results if r.rc == 0 and verify.is_warning(r.stderr)),
        "python_c_pass_s": bare_s,
        # Floor of peak_rss_mib: an op's peak RSS starts at the launcher's.
        "launcher_rss_mib": rss["self_peak_kb"] / 1024 if rss["self_peak_kb"] else None,
        "setup_runs_s": setups,
        "pass_walls_s": walls,
        "latencies_s": latencies,
        "output_sha256": passes[0].digest(),
        "output_identical_across_passes": len(digests) == 1,
    }
    return metrics, info, len(results), failures


def measure_traced(seed, seconds, layer_units):
    workdir = OUT / "traced"
    shutil.rmtree(workdir, ignore_errors=True)
    traced = tracing.run(ROOT, workdir, seed, seconds, layer_units)
    attempted = sum(len(p.results) for p in traced["passes"])
    info = {
        "rounds": traced["rounds"],
        "calls": traced["calls"],
        "python_c_pass_s": traced["baseline_s"],
        "tracing_overhead": traced["overhead"],
        "spans": traced["summary"],
    }
    traced["tracer"].write_spans(OUT / "trace-spans.csv")
    return traced["metrics"], info, attempted, _failures(traced["passes"])


def _format(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sailcost" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no sailcost sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    if args.trace:
        metrics, info, attempted, failures = measure_traced(args.seed, args.seconds, units)
    else:
        metrics, info, attempted, failures = measure(args.workload, args.seed, args.seconds)
    env["loadavg_end"] = _loadavg()

    print(f"sailcost benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    calls = info.get("calls", {})
    for name, unit in units.items():
        count = f"  (n={calls[name]})" if calls.get(name) is not None else ""
        print(f"  {name:<42} {_format(metrics[name])} {unit}{count}")
    for key, value in info.items():
        if key not in ("calls", "spans", "setup_runs_s", "pass_walls_s", "latencies_s"):
            print(f"  {key:<42} {_format(value) if isinstance(value, float) or value is None else value}")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")
    print(f"  verdict: {'correct' if not failures else 'INCORRECT'} "
          f"({len(failures)} failed of {attempted} attempted)")

    record = {"args": vars(args), "environment": env, "metrics": metrics, "info": info,
              "attempted": attempted, "failures": failures}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
