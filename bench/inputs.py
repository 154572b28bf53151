"""Seeded input generator: scenario files and CLI invocations.

Everything here is derived from the seed alone, and the program receives
only what this module writes: scenario files and argument lists.  Valid
scenarios draw their physical parameters from the same ranges as
``sailcost.checks._random_case`` (beta 0.01-0.45, h 10^[-8,-5] m, ...);
the design point of each scenario is then chosen with this module's own
closed forms so that every valid invocation stays below beta = 0.45 and
no operation fails or warns.

Each ``Op`` carries the context its correctness check needs (target
speed, budget, row count, ...), so the check never re-runs the program's
formulas on the program's own outputs.
"""

import math
import random
from dataclasses import dataclass, field

C = 299792458.0  # m/s, defined constant

WORKLOADS = ("cli-mix", "sweep-large", "validate")

# Rows per long sweep in sweep-large, and per short sweep in cli-mix.
LARGE_SWEEP_POINTS = 20000
SHORT_SWEEP_POINTS = 200

# SI unit written after each dimensioned key; other keys are bare numbers.
_UNITS = {
    "target.budget": "usd",
    "payload.m0": "kg",
    "sail.h": "m",
    "sail.rho": "kg/m3",
    "sail.D": "m",
    "sail.S_y": "Pa",
    "array.lambda": "m",
    "array.d": "m",
    "array.P0": "W",
    "metrics.a1": "usd/W",
    "metrics.a2": "usd/m2",
    "metrics.a3": "usd/J",
    "metrics.a4": "usd/J",
    "techcurve.a1_base": "usd/W",
}

_STAGE_LADDERS = ("0.1,1,10", "0.1,1,20", "1,5,20", "0.5,2,10,30")


@dataclass
class Op:
    """One CLI invocation: arguments after ``python -m sailcost.cli``.

    ``kind`` selects the correctness check and ``ctx`` holds what it
    compares against.  An op with ``after_optimum`` set takes its
    ``--set array.d/array.P0`` values from the preceding op's output.
    ``output`` is the ``-o`` file, or None when the result is on stdout.
    """

    kind: str
    argv: list
    ctx: dict = field(default_factory=dict)
    output: str | None = None
    after_optimum: bool = False
    rows: int = 0


def _coupling(scn):
    eps_r = scn["sail.eps_r"]
    return 2 * eps_r + (1 - eps_r) * scn["sail.alpha"]


def _optimal_sail_diameter(scn):
    return math.sqrt(scn["payload.m0"] / (scn["sail.xi"] * scn["sail.h"] * scn["sail.rho"]))


def _base(rng, name, mode):
    """Material, payload, array and cost draws of ``checks._random_case``."""
    return {
        "name": name,
        "mode": mode,
        "payload.m0": 10 ** rng.uniform(-4, 0),
        "sail.h": 10 ** rng.uniform(-8, -5),
        "sail.rho": rng.uniform(100, 5000),
        "sail.eps_r": rng.uniform(0.5, 1.0),
        "sail.alpha": rng.uniform(0.0, 0.5),
        "sail.xi": rng.uniform(0.5, 1.0),
        "array.lambda": 10 ** rng.uniform(-6.7, -5),
        "array.alpha_d": rng.uniform(1.0, 2.0),
        "array.xi_arr": rng.uniform(0.5, 1.0),
        "array.eps_b": rng.uniform(0.5, 1.0),
        "metrics.a1": 10 ** rng.uniform(-2, 2),
        "metrics.a2": 10 ** rng.uniform(1, 5),
    }


def _energy_terms(rng, scn):
    """Grid-energy and storage metrics around the paper's reference values."""
    scn["metrics.a3"] = 1.4e-8 * 10 ** rng.uniform(-1, 1)
    scn["metrics.a4"] = 2.8e-5 * 10 ** rng.uniform(-1, 1)
    scn["metrics.eps_storage"] = rng.uniform(0.5, 1.0)
    scn["metrics.N_shot"] = float(rng.choice((1, 10, 100)))


def beta_scenario(rng, name, energy=False):
    """Optimized mode with a target speed."""
    scn = _base(rng, name, "optimized")
    scn["target.beta0"] = rng.uniform(0.01, 0.45)
    if energy:
        _energy_terms(rng, scn)
    return scn


def budget_scenario(rng, name, beta_lo=0.01, beta_hi=0.45):
    """Optimized mode with a budget whose fastest design reaches a speed
    drawn from [beta_lo, beta_hi], plus a tech curve for ``roadmap``.

    At the fixed-budget speed maximum d = sqrt(B / (3 a2 xi_arr)) and
    P0 = 2 eps_b B / (3 a1); with sail mass = payload mass,
    beta^2 = P0 eta d D / (lambda alpha_d c^3 2 m0), solved here for B.
    """
    scn = _base(rng, name, "optimized")
    beta = rng.uniform(beta_lo, beta_hi)
    k = (2 * scn["array.eps_b"] / (3 * scn["metrics.a1"])) / math.sqrt(
        3 * scn["metrics.a2"] * scn["array.xi_arr"]
    )
    need = (
        beta**2 * scn["array.lambda"] * scn["array.alpha_d"] * C**3
        * 2 * scn["payload.m0"] / (_coupling(scn) * _optimal_sail_diameter(scn))
    )
    scn["target.budget"] = (need / k) ** (2 / 3)
    scn["techcurve.a1_base"] = scn["metrics.a1"] * 10 ** rng.uniform(0, 2)
    scn["techcurve.halving_months"] = rng.uniform(12.0, 36.0)
    scn["design_beta"] = beta
    return scn


def non_optimized_scenario(rng, name):
    """Explicit sail diameter; P0 set so the design reaches a drawn speed:
    beta^2 = P0 eta d D / (lambda alpha_d c^3 m_total)."""
    scn = _base(rng, name, "non-optimized")
    beta = rng.uniform(0.01, 0.45)
    diameter = _optimal_sail_diameter(scn) * 10 ** rng.uniform(-0.5, 0.5)
    aperture = 10 ** rng.uniform(2.5, 4.5)
    m_total = scn["sail.xi"] * diameter**2 * scn["sail.h"] * scn["sail.rho"] + scn["payload.m0"]
    scn["sail.D"] = diameter
    scn["array.d"] = aperture
    scn["array.P0"] = (
        beta**2 * scn["array.lambda"] * scn["array.alpha_d"] * C**3 * m_total
        / (_coupling(scn) * aperture * diameter)
    )
    scn["target.beta0"] = beta
    scn["design_beta"] = beta
    return scn


def strength_limited_scenario(rng, name):
    """Yield-strength-sized sail.  The sail then weighs 4 xi m0 / pi
    whatever the power, and beta^2 = 4 d m0 S_y / (lambda alpha_d rho s
    m_total c^2), solved here for S_y."""
    scn = _base(rng, name, "strength-limited")
    beta = rng.uniform(0.01, 0.45)
    scn["sail.s"] = rng.uniform(0.5, 2.0)
    aperture = 10 ** rng.uniform(2.5, 4.5)
    m0 = scn["payload.m0"]
    m_total = m0 * (1 + 4 * scn["sail.xi"] / math.pi)
    scn["array.d"] = aperture
    scn["array.P0"] = 10 ** rng.uniform(8, 12)
    scn["sail.S_y"] = (
        beta**2 * C**2 * scn["array.lambda"] * scn["array.alpha_d"]
        * scn["sail.rho"] * scn["sail.s"] * m_total / (4 * aperture * m0)
    )
    scn["target.beta0"] = beta
    scn["design_beta"] = beta
    return scn


_SECTIONS = ("target", "payload", "sail", "array", "metrics", "techcurve")


def scenario_text(scn):
    """Scenario file text; floats are written with repr so they load back
    exactly.  Keys outside the file format (design_beta) are skipped."""
    lines = [f"name = {scn['name']}", f"mode = {scn['mode']}"]
    keys = sorted((k for k in scn if "." in k), key=lambda k: _SECTIONS.index(k.split(".")[0]))
    section = None
    for key in keys:
        head, attr = key.split(".", 1)
        if head != section:
            section = head
            lines += ["", f"[{head}]"]
        unit = _UNITS.get(key)
        lines.append(f"{attr} = {scn[key]!r}" + (f" {unit}" if unit else ""))
    return "\n".join(lines) + "\n"


# Invalid inputs: each maps a valid beta-target scenario's text (or the
# invocation) to one that must be rejected with exit 1 and one
# ``error_code: message`` line.
def _replace_line(text, prefix, new):
    out = [new if line.startswith(prefix) else line for line in text.splitlines()]
    return "\n".join(out) + "\n"


def _drop_line(text, prefix):
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith(prefix))


INVALID_TEXT = {
    "missing-unit": lambda t, s: _replace_line(t, "m0 = ", f"m0 = {s['payload.m0']!r}"),
    "unknown-unit": lambda t, s: _replace_line(t, "h = ", f"h = {s['sail.h']!r} furlong"),
    "wrong-dimension": lambda t, s: _replace_line(t, "m0 = ", f"m0 = {s['payload.m0']!r} W"),
    "unknown-key": lambda t, s: t.replace("[sail]\n", "[sail]\ncolour = 1\n"),
    "missing-required": lambda t, s: _drop_line(t, "a2 = "),
    "duplicate-key": lambda t, s: t.replace("[payload]\n", "[payload]\nm0 = 1 g\n"),
    "beta-out-of-range": lambda t, s: _replace_line(t, "beta0 = ", "beta0 = 1.5"),
    "both-targets": lambda t, s: t.replace("[target]\n", "[target]\nbudget = 1e9 usd\n"),
    "bad-mode": lambda t, s: _replace_line(t, "mode = ", "mode = turbo"),
    "negative-thickness": lambda t, s: _replace_line(t, "h = ", f"h = {-s['sail.h']!r} m"),
    "reserved-cost-item": lambda t, s: t.replace("[metrics]\n", "[metrics]\na5 = 1\n"),
    "unterminated-section": lambda t, s: t.replace("[sail]\n", "[sail\n"),
}
INVALID_CALLS = ("optimize-non-optimized", "max-speed-without-budget", "sweep-one-point", "sweep-unknown-axis")


class _Files:
    """Writes scenario files into the work directory."""

    def __init__(self, workdir):
        self.workdir = workdir

    def path(self, name):
        return str(self.workdir / name)

    def write(self, scn, text=None):
        path = self.path(f"{scn['name']}.scn")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text if text is not None else scenario_text(scn))
        return path


def _sweep(files, scn, axis, start, stop, points, log, unit):
    out = files.path(f"{scn['name']}-{axis}.csv")
    argv = ["sweep", files.write(scn), "--axis", axis, "--from", f"{start!r} {unit}",
            "--to", f"{stop!r} {unit}", "--points", str(points), "-o", out]
    if log:
        argv.append("--log")
    ctx = {"axis": axis, "start": start, "stop": stop, "budget": scn.get("target.budget")}
    return Op("sweep", argv, ctx, output=out, rows=points)


def sweep_ops(rng, files, points, prefix):
    """The three sweep paths: re-optimize under a speed target, fixed
    aperture under a speed target, and fastest design under a budget."""
    reopt = beta_scenario(rng, f"{prefix}-a1")
    aperture = beta_scenario(rng, f"{prefix}-d")
    # beta ~ a2^(-1/4): a 100x a2 range moves beta by 10^(1/2) around the
    # centre, so a centre in [0.03, 0.25] keeps the ends in (0.01, 0.45).
    budget = budget_scenario(rng, f"{prefix}-a2", 0.03, 0.25)
    a1, a2 = reopt["metrics.a1"], budget["metrics.a2"]
    d_lo = 10 ** rng.uniform(2.5, 3.5)
    return [
        _sweep(files, reopt, "metrics.a1", a1 / 10, a1 * 10, points, True, "usd/W"),
        _sweep(files, aperture, "array.d", d_lo, d_lo * 100, points, False, "m"),
        _sweep(files, budget, "metrics.a2", a2 / 10, a2 * 10, points, True, "usd/m2"),
    ]


def _invalid_op(rng, files, label, idx):
    scn = beta_scenario(rng, f"invalid{idx}")
    if label in INVALID_TEXT:
        text = INVALID_TEXT[label](scenario_text(scn), scn)
        return Op("invalid", ["optimize", files.write(scn, text)], {"label": label})
    if label == "optimize-non-optimized":
        argv = ["optimize", files.write(non_optimized_scenario(rng, f"invalid{idx}"))]
    elif label == "max-speed-without-budget":
        argv = ["max-speed", files.write(scn)]
    elif label == "sweep-one-point":
        argv = ["sweep", files.write(scn), "--axis", "metrics.a1",
                "--from", "1 usd/W", "--to", "2 usd/W", "--points", "1"]
    else:
        argv = ["sweep", files.write(scn), "--axis", "sail.colour",
                "--from", "1", "--to", "2", "--points", "10"]
    return Op("invalid", argv, {"label": label})


def cli_mix(rng, files):
    """20 one-shot invocations of fixed composition; only the parameters
    and the two invalid-input kinds depend on the seed, so every seed
    asks for the same amount of work."""
    groups = []
    for i in range(3):
        scn = beta_scenario(rng, f"opt{i}", energy=i == 0)
        path = files.write(scn)
        ctx = {"beta": scn["target.beta0"]}
        groups.append([
            Op("optimize", ["optimize", path], ctx),
            Op("solve", ["solve", path], ctx, after_optimum=True),
        ])
        if i < 2:
            groups.append([Op("energy", ["energy", path], {"scn": scn})])
    for i in range(2):
        scn = non_optimized_scenario(rng, f"nonopt{i}")
        path = files.write(scn)
        groups.append([Op("solve", ["solve", path], {"beta": scn["design_beta"]})])
        if i == 0:
            argv = ["energy", path, "--lifetime-hours", repr(10 ** rng.uniform(3, 5))]
            groups.append([Op("energy", argv, {"scn": scn})])
    scn = strength_limited_scenario(rng, "strength0")
    groups.append([Op("solve", ["solve", files.write(scn)], {"beta": scn["design_beta"]})])
    for i in range(2):
        scn = budget_scenario(rng, f"budget{i}")
        path = files.write(scn)
        groups.append([Op("max-speed", ["max-speed", path],
                          {"budget": scn["target.budget"], "beta": scn["design_beta"]})])
        if i == 0:
            stages = rng.choice(_STAGE_LADDERS)
            groups.append([Op("roadmap", ["roadmap", path, "--stages", stages],
                              {"stages": [float(x) for x in stages.split(",")]})])
    groups += [[op] for op in sweep_ops(rng, files, SHORT_SWEEP_POINTS, "short")]
    labels = sorted(INVALID_TEXT) + list(INVALID_CALLS)
    for idx, label in enumerate(rng.sample(labels, 2)):
        groups.append([_invalid_op(rng, files, label, idx)])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def generate(workload, seed, workdir, sweep_points=LARGE_SWEEP_POINTS):
    """Write the workload's inputs under ``workdir`` and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(workdir)
    if workload == "cli-mix":
        return cli_mix(rng, files)
    if workload == "sweep-large":
        return sweep_ops(rng, files, sweep_points, "large")
    if workload == "validate":
        return [Op("validate", ["validate"])]
    raise ValueError(f"unknown workload {workload!r}")
