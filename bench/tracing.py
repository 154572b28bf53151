"""The traced run: per-layer numbers from spans recorded in this process.

Spans are recorded from the benchmark's side only; the program is not
edited.  Every public function of the layer modules is wrapped, and the
wrapper is bound under every name a ``sailcost`` module looks it up by,
so ``cli`` -> ``costs`` -> ``kinematics`` calls nest, and so do the
oracle's objective evaluations (``minimize_cost_numeric`` finds
``constrained_cost`` in the ``sailcost.optimize`` globals).  The
``__post_init__`` of each parameter record is wrapped to count
validations.

A span is (id, parent id, name, start, end).  Spans stay in memory and
are written out when the run ends; statistics per (section, name) are
kept for every span, the raw spans only up to a cap per section.
"""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array

import runner
import inputs

LAYERS = ("cli", "scenario", "costs", "kinematics", "optimize", "energy", "roadmap", "checks", "params")

# Called once per CSV cell: a span would cost more than the call itself.
UNTRACED = {"scenario.format_number"}

EVAL_SPAN = "optimize.constrained_cost"
SPAN_CAP_PER_SECTION = 20000
# Durations kept per (section, span name) for its medians; calls and
# counts cover every call.
SAMPLE_CAP = 100000


class Stat:
    __slots__ = ("calls", "self_sum_ns", "total_ns", "self_ns", "validations", "evals")

    def __init__(self):
        self.calls = 0
        self.self_sum_ns = 0
        self.total_ns = array("q")
        self.self_ns = array("q")
        self.validations = 0
        self.evals = 0


class Tracer:
    """Records spans of the wrapped functions; ``section`` labels which
    workload's inputs are being replayed."""

    def __init__(self):
        self.section = None
        self.stack = []
        self.stats = {}
        self.spans = {}
        self.next_id = 0
        self.validations = 0
        self.evals = 0

    def wrap(self, fn, name):
        counts_eval = name == EVAL_SPAN
        perf_ns = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_eval:
                self.evals += 1
            stack = self.stack
            parent = stack[-1][0] if stack else -1
            frame = [self.next_id, perf_ns(), 0, self.validations, self.evals]
            self.next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_ns()
                stack.pop()
                self._close(name, parent, frame, end)

        return traced

    def _close(self, name, parent, frame, end):
        span_id, start, child_ns, validations, evals = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        key = (self.section, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.self_sum_ns += duration - child_ns
        if stat.calls <= SAMPLE_CAP:
            stat.total_ns.append(duration)
            stat.self_ns.append(duration - child_ns)
        stat.validations += self.validations - validations
        stat.evals += self.evals - evals
        kept = self.spans.setdefault(self.section, [])
        if len(kept) < SPAN_CAP_PER_SECTION:
            kept.append((span_id, parent, name, start, end))

    def count_validations(self, post_init):
        @functools.wraps(post_init)
        def counted(record):
            self.validations += 1
            post_init(record)

        return counted

    def stat(self, section, name):
        return self.stats.get((section, name)) or Stat()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("section,id,parent,name,start_ns,end_ns\n")
            for section, spans in self.spans.items():
                for span_id, parent, name, start, end in spans:
                    fh.write(f"{section},{span_id},{parent},{name},{start},{end}\n")


@contextlib.contextmanager
def installed(tracer):
    """Bind traced wrappers in every loaded ``sailcost`` module, and
    restore the originals on exit."""
    modules = {short: importlib.import_module(f"sailcost.{short}") for short in LAYERS}
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                wrappers[obj] = tracer.wrap(obj, name)
    patches = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sailcost" or mod_name.startswith("sailcost."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj))
    for cls in vars(modules["params"]).values():
        if dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls):
            patches.append((cls, "__post_init__", vars(cls)["__post_init__"]))
    try:
        for owner, attr, obj in patches:
            if attr == "__post_init__":
                setattr(owner, attr, tracer.count_validations(obj))
            else:
                setattr(owner, attr, wrappers[obj])
        yield
    finally:
        for owner, attr, obj in patches:
            setattr(owner, attr, obj)


# Per-layer metric -> (section it is read from, span name, statistic).
# The section is the workload whose inputs drive that layer.
SPAN_METRICS = {
    "cli.main_self_s": ("cli-mix", "cli.main", "self"),
    "scenario.parse_entries_us": ("cli-mix", "scenario.parse_entries", "total"),
    "scenario.build_scenario_us": ("cli-mix", "scenario.build_scenario", "total"),
    "energy.energy_per_shot_us": ("cli-mix", "energy.energy_per_shot", "total"),
    "roadmap.plan_stages_us": ("cli-mix", "roadmap.plan_stages", "total"),
    "scenario.scenario_with_us": ("sweep-large", "scenario.scenario_with", "total"),
    "scenario.write_results_s": ("sweep-large", "scenario.write_results", "total"),
    "costs.closed_form_optimum_us": ("sweep-large", "costs.closed_form_optimum", "total"),
    "costs.cost_components_us": ("sweep-large", "costs.cost_components", "total"),
    "kinematics.required_power_us": ("sweep-large", "kinematics.required_power", "total"),
    "kinematics.kinematics_optimized_us": ("sweep-large", "kinematics.kinematics_optimized", "total"),
    "optimize.maximize_speed_fixed_cost_us": ("sweep-large", "optimize.maximize_speed_fixed_cost", "total"),
    "optimize.minimize_cost_numeric_ms": ("validate", "optimize.minimize_cost_numeric", "total"),
    "optimize.constrained_cost_us": ("validate", "optimize.constrained_cost", "total"),
}

_NS_PER_UNIT = {"s": 1e9, "ms": 1e6, "us": 1e3}


def span_metric(tracer, metric, unit):
    """Per-call median of a span in its section, with the call count.
    ``checks.<name>_s`` reads the span of ``checks.check_<name>``."""
    if metric in SPAN_METRICS:
        section, name, which = SPAN_METRICS[metric]
    else:
        section, name, which = "validate", "checks.check_" + metric[len("checks."):-len("_s")], "total"
    stat = tracer.stat(section, name)
    values = stat.self_ns if which == "self" else stat.total_ns
    if not values:
        return 0.0, 0
    return statistics.median(values) / _NS_PER_UNIT[unit], stat.calls


TRACE_SWEEP_POINTS = 5000
STARTUP_REPEATS = 5


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def run(root, workdir, seed, seconds, layer_units):
    """Replay one pass of every workload's inputs in process, untraced
    then traced, until ``seconds`` have passed (at least once), and
    return the per-layer metrics with the run's bookkeeping."""
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("sailcost.cli")
    bare_s, import_s = runner.startup_probe(root, STARTUP_REPEATS)
    sections = {
        "cli-mix": inputs.generate("cli-mix", seed, workdir / "cli-mix"),
        "sweep-large": inputs.generate("sweep-large", seed, workdir / "sweep-large", TRACE_SWEEP_POINTS),
        "validate": inputs.generate("validate", seed, workdir / "validate"),
    }
    execute = runner.in_process_executor(cli)
    judges = {name: runner.Judge() for name in sections}
    walls = {(name, traced): [] for name in sections for traced in (False, True)}
    passes = []
    tracer = Tracer()
    last_sweep = None
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        for traced in (False, True):
            with installed(tracer) if traced else contextlib.nullcontext():
                for name, ops in sections.items():
                    tracer.section = name
                    done = runner.run_pass(ops, execute, judges[name])
                    walls[name, traced].append(done.wall_s)
                    passes.append(done)
                    if name == "sweep-large":
                        last_sweep = done
        rounds += 1
        if time.perf_counter() >= deadline:
            break

    metrics, calls = {}, {}
    for metric, unit in layer_units.items():
        calls[metric] = None
        if metric == "cli.import_s":
            value = import_s - bare_s
        elif metric == "params.validations_per_point":
            rows = rounds * sum(op.rows for op in sections["sweep-large"])
            value = _ratio(tracer.stat("sweep-large", "cli.main").validations, rows)
        elif metric == "params.validations_per_eval":
            stat = tracer.stat("validate", EVAL_SPAN)
            value = _ratio(stat.validations, stat.calls)
        elif metric == "optimize.evals_per_optimum":
            stat = tracer.stat("validate", "optimize.minimize_cost_numeric")
            value = _ratio(stat.evals, stat.calls)
        elif metric == "scenario.write_results_bytes":
            value = statistics.median(len(r.data) for r in last_sweep.results)
        else:
            value, calls[metric] = span_metric(tracer, metric, unit)
        metrics[metric] = value

    overhead = {
        name: {
            "untraced_s": statistics.median(walls[name, False]),
            "traced_s": statistics.median(walls[name, True]),
        }
        for name in sections
    }
    for entry in overhead.values():
        entry["overhead_s"] = entry["traced_s"] - entry["untraced_s"]
    summary = {
        f"{section}/{name}": {
            "calls": stat.calls,
            "median_us": statistics.median(stat.total_ns) / 1e3,
            "median_self_us": statistics.median(stat.self_ns) / 1e3,
            "self_s": stat.self_sum_ns / 1e9,
        }
        for (section, name), stat in sorted(tracer.stats.items())
    }
    return {
        "metrics": metrics,
        "calls": calls,
        "passes": passes,
        "rounds": rounds,
        "baseline_s": bare_s,
        "overhead": overhead,
        "summary": summary,
        "tracer": tracer,
    }
