"""Command-line front end.

Subcommands: solve, optimize, max-speed, sweep, energy, roadmap,
validate.  Exit codes: 0 success, 1 validation/infeasibility, 2 usage,
3 internal/numeric.  Errors go to stderr as ``error_code: message``.
Output is deterministic byte-for-byte unless --metadata is given.
"""

import argparse
import math
import os
import sys

from . import model
from .costs import (
    closed_form_optimum, cost_components, maximize_speed_fixed_cost, require_cost_mode,
)
from .energy import energy_per_shot, energy_used_lifetime, storage_cost
from .errors import NumericRangeError, SailcostError, ValidationError
from .kinematics import kinematics_non_optimized, kinematics_optimized, strength_limited_geometry
from .scenario import (
    SweepSpec,
    apply_overrides,
    build_scenario,
    kernel_point,
    parse_number,
    parse_sweep_value,
    read_entries,
    write_text,
)

# checks, optimize and roadmap are imported inside the commands that use
# them, so a solve, optimize, max-speed or energy run never loads them; json is
# imported by ``_emit``, so a sweep, roadmap or validate run never loads it.

OUTPUT_DIR_ENV = "SAILCOST_OUTPUT_DIR"


def _load(args):
    return build_scenario(apply_overrides(read_entries(args.scenario), args.set or []))


def _destination(args):
    if args.output is None or args.output == "-":
        return sys.stdout
    path = args.output
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return path


def _emit(doc, args):
    """Write one JSON result document, with the generation time on request."""
    import json

    records = [doc]
    if args.metadata:
        from datetime import datetime, timezone

        records.append({"generated_at": datetime.now(timezone.utc).isoformat()})
    try:
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NumericRangeError("non-finite result; inputs out of numeric range") from None
    write_text([text], _destination(args))


def _breakdown_doc(breakdown):
    f1, f2, f3, f4 = breakdown.fractions
    return {
        "C1": breakdown.laser, "C2": breakdown.optics,
        "C3": breakdown.energy, "C4": breakdown.storage,
        "C_T": breakdown.total,
        "f1": f1, "f2": f2, "f3": f3, "f4": f4,
    }


def _result_doc(scenario, aperture, power, breakdown, launch):
    """The result document at a design point, with ``launch`` as ``model.launch`` returns it."""
    v0, beta, t0, l0, v_inf, _, _, total_mass = launch
    shot = energy_per_shot(
        beta, total_mass, scenario.sail.coupling, scenario.metrics.storage_efficiency
    )
    return {
        "scenario": scenario.name,
        "mode": scenario.mode,
        "optimum": {"d_m": aperture, "P0_W": power},
        "costs": _breakdown_doc(breakdown),
        "kinematics": {"v0": v0, "beta0": beta, "t0_s": t0, "L0_m": l0, "v_inf": v_inf},
        "energy": {
            "E_gamma_J": shot.beam_energy,
            "E_storage_J": shot.storage_energy,
        },
    }


def _sized_sail(scenario):
    """The sail of a non-optimized or strength-limited scenario, with its
    diameter (and, strength-limited, its thickness) set."""
    sail = scenario.sail
    if scenario.mode == "strength-limited":
        if scenario.array.power is None:
            raise ValidationError("strength-limited mode requires array.P0")
        diameter, thickness = strength_limited_geometry(
            scenario.array.power, sail, scenario.payload
        )
        return sail.replace(diameter=diameter, thickness=thickness)
    if sail.diameter is None:
        raise ValidationError("non-optimized mode requires sail.D")
    return sail


def _solve_kinematics(scenario):
    sail, array, payload = scenario.sail, scenario.array, scenario.payload
    if array.power is None or array.aperture is None:
        raise ValidationError("solve requires array.P0 and array.d in the scenario")
    if scenario.mode == "optimized":
        return kinematics_optimized(array, sail, payload)
    return kinematics_non_optimized(array, _sized_sail(scenario), payload)


def _cmd_solve(args):
    scenario = _load(args)
    kin = _solve_kinematics(scenario)
    array = scenario.array
    breakdown = cost_components(array, kin.accel_time, scenario.metrics)
    doc = _result_doc(scenario, array.aperture, array.power, breakdown, vars(kin).values())
    _emit(doc, args)
    return 0


def _require_beta_target(scenario, command):
    if scenario.beta_target is None:
        raise ValidationError(f"{command} requires a target.beta0 scenario")
    return scenario.beta_target


def _design_doc(scenario, design):
    """Result document of an OptimumDesign, its launch from the kernel that
    ``kinematics_optimized`` wraps: the call that found the design has warned."""
    aperture, power = design.aperture, design.power
    launch = model.optimized_launch(**kernel_point(
        model.optimized_launch, scenario.payload, scenario.sail, scenario.array,
        aperture=aperture, power=power, eta=scenario.sail.coupling,
    ))
    return _result_doc(scenario, aperture, power, design.breakdown, launch)


def _cmd_optimize(args):
    scenario = _load(args)
    beta = _require_beta_target(scenario, "optimize")
    require_cost_mode(scenario.mode)
    design = closed_form_optimum(
        beta, scenario.payload, scenario.sail, scenario.array, scenario.metrics
    )
    _emit(_design_doc(scenario, design), args)
    return 0


def _cmd_max_speed(args):
    scenario = _load(args)
    if scenario.budget_target is None:
        raise ValidationError("max-speed requires a target.budget scenario")
    require_cost_mode(scenario.mode)
    design = maximize_speed_fixed_cost(
        scenario.budget_target, scenario.payload, scenario.sail, scenario.array,
        scenario.metrics,
    )
    _emit(_design_doc(scenario, design), args)
    return 0


def _cmd_energy(args):
    wall_plug = parse_number(args.wall_plug, "--wall-plug")
    if not 0 < wall_plug <= 1:
        raise ValidationError(f"--wall-plug: must be in (0, 1] (got {wall_plug!r})")
    hours = args.lifetime_hours
    if hours is not None:
        hours = parse_number(hours, "--lifetime-hours")
        if hours < 0:
            raise ValidationError(f"--lifetime-hours: must be >= 0 (got {hours!r})")
    scenario = _load(args)
    beta = _require_beta_target(scenario, "energy")
    if scenario.mode == "optimized":
        model.refuse_sail_diameter(**kernel_point(model.refuse_sail_diameter, sail=scenario.sail))
        total_mass = model.optimized_craft_mass(
            **kernel_point(model.optimized_craft_mass, scenario.payload)
        )
    else:
        total_mass = _sized_sail(scenario).mass + scenario.payload.mass
    shot = energy_per_shot(
        beta, total_mass, scenario.sail.coupling, scenario.metrics.storage_efficiency
    )
    doc = {
        "scenario": scenario.name,
        "beta0": beta,
        "E_gamma_J": shot.beam_energy,
        "E_storage_J": shot.storage_energy,
        "kinetic_energy_J": shot.kinetic_energy,
        "launch_efficiency": shot.launch_efficiency,
        "storage_cost_usd": storage_cost(shot, scenario.metrics.storage_usd_per_joule),
    }
    if hours is not None:
        if scenario.array.power is None:
            raise ValidationError("lifetime energy cost requires array.P0")
        total, per_watt = energy_used_lifetime(
            scenario.array.optical_power,
            hours,
            scenario.metrics.energy_usd_per_joule,
            wall_plug,
        )
        doc["lifetime_energy_usd"] = total
        doc["lifetime_usd_per_optical_watt"] = per_watt
    _emit(doc, args)
    return 0


def _cmd_sweep(args):
    from .optimize import sweep_lines

    scenario = _load(args)
    axis = args.axis
    start = parse_sweep_value(axis, args.start, f"sweep.from ({axis})")
    stop = parse_sweep_value(axis, args.stop, f"sweep.to ({axis})")
    sweep = SweepSpec(
        axis=axis, start=start, stop=stop, points=args.points,
        scale="log" if args.log else "linear",
    )
    write_text(sweep_lines(scenario, sweep), _destination(args))
    return 0


def _cmd_roadmap(args):
    from .roadmap import plan_stages

    scenario = _load(args)
    if scenario.budget_target is None:
        raise ValidationError("roadmap requires a target.budget scenario")
    if scenario.curve is None:
        raise ValidationError("roadmap requires a [techcurve] block")
    require_cost_mode(scenario.mode)
    designations = [parse_number(x, "--stages") for x in args.stages.split(",")]
    plan = plan_stages(
        designations, scenario.budget_target, scenario.curve,
        scenario.payload, scenario.sail, scenario.array, scenario.metrics,
    )
    columns = ("designation", "beta0", "entry_month", "a1_usd_per_W", "d_m", "P0_W", "C_T")
    rows = [
        (
            stage.designation, stage.design.beta, stage.entry_month,
            stage.metrics.laser_usd_per_watt, stage.design.aperture, stage.design.power,
            stage.design.breakdown.total,
        )
        for stage in plan.stages
    ]
    for row in rows:
        for column, cell in zip(columns, row):
            if not math.isfinite(cell):
                raise NumericRangeError(f"{column} is non-finite; inputs out of numeric range")
    lines = [",".join(map(repr, row)) + "\n" for row in rows]
    write_text([",".join(columns) + "\n", *lines], _destination(args))
    return 0


def _cmd_validate(args):
    from .checks import run_all

    results = run_all()
    lines = [
        f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}\n"
        for result in results
    ]
    write_text(lines, _destination(args))
    return 0 if all(r.passed for r in results) else 1


def _add_common(parser, scenario_required=True):
    if scenario_required:
        parser.add_argument("scenario", help="scenario file path")
        parser.add_argument(
            "--set", action="append", metavar="FIELD=VALUE",
            help="override a scenario field (e.g. 'metrics.a1=0.1 usd/W')",
        )
    parser.add_argument("-o", "--output", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sailcost",
        description="Techno-economic calculator for beam-driven light-sail systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, doc in (
        ("solve", _cmd_solve, "kinematics and costs at an explicit design point"),
        ("optimize", _cmd_optimize, "minimum-cost design for the target speed"),
        ("max-speed", _cmd_max_speed, "fastest design at a fixed budget"),
        ("energy", _cmd_energy, "per-shot energy and energy-side costs"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.add_argument(
            "--metadata", action="store_true",
            help="append a generation-time record (off by default for determinism)",
        )
        p.set_defaults(func=func)
        if name == "energy":
            p.add_argument("--lifetime-hours", help="laser lifetime for grid-energy cost")
            p.add_argument("--wall-plug", default="0.5", help="wall-plug efficiency")

    p = sub.add_parser("sweep", help="sweep one field, emit a CSV table")
    _add_common(p)
    p.add_argument("--axis", required=True, help="field path, e.g. array.d or metrics.a1")
    p.add_argument("--from", dest="start", required=True, help="start value (with unit)")
    p.add_argument("--to", dest="stop", required=True, help="end value (with unit)")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("roadmap", help="staged entry dates under a budget")
    _add_common(p)
    p.add_argument(
        "--stages", required=True,
        help="comma-separated stage designations in percent of c, e.g. 0.1,1,20",
    )
    p.set_defaults(func=_cmd_roadmap)

    p = sub.add_parser("validate", help="run the built-in golden checks")
    _add_common(p, scenario_required=False)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SailcostError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # A float over- or underflow inside the model, like a non-finite result.
        detail = exc.args[-1] if exc.args else type(exc).__name__
        print(f"{NumericRangeError.code}: inputs out of numeric range ({detail})", file=sys.stderr)
        return NumericRangeError.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal_error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
