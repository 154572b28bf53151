"""Built-in golden checks behind the ``validate`` CLI subcommand.

Each check pins a published worked number or a structural identity of
the cost model and reports pass/fail; together they are the one-command
reproduction entry point for the model.
"""

import math
import random

from .costs import a1_for_budget, closed_form_optimum, maximize_speed_fixed_cost
from .energy import energy_per_shot, energy_used_lifetime, storage_cost
from .kinematics import (
    kinematics_non_optimized,
    kinematics_optimized,
    optimal_sail_diameter,
)
from .optimize import (
    constrained_cost,
    minimize_cost_numeric,
    second_derivative_at,
)
from .params import ArraySpec, CostMetrics, Payload, Record, SailSpec
from .roadmap import stage_cost_ratio
from .units import C


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


# The reference craft: a 1 um sail at 1 g/cc, perfect reflector,
# circular, carrying 1 gram, on a circular 1 um array.
_SAIL = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
_PAYLOAD = Payload(mass=1e-3)
_ARRAY = ArraySpec(wavelength=1e-6)

# Draws and seeds of the two randomized checks.
_ORACLE_DRAWS, _ORACLE_SEED = 1000, 20240817
_CURVATURE_DRAWS, _CURVATURE_SEED = 50, 20240818


def _closed(beta, metrics):
    return closed_form_optimum(beta, _PAYLOAD, _SAIL, _ARRAY, metrics)


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_worked_example_1() -> CheckResult:
    design = _closed(0.2, CostMetrics(1.0, 1000.0))
    errs = (
        _rel(design.aperture, 9.1e3),
        _rel(design.power, 128e9),
        _rel(design.breakdown.total, 193e9),
    )
    return CheckResult(
        "worked-example-1",
        all(e <= 0.02 for e in errs),
        f"d={design.aperture:.4g} m, P0={design.power:.4g} W, "
        f"C_T={design.breakdown.total:.4g} USD (rel errs {[f'{e:.2%}' for e in errs]})",
    )


def check_worked_example_2() -> CheckResult:
    design = _closed(0.2, CostMetrics(0.1, 1000.0))
    ok = (
        _rel(design.aperture, 4.2e3) <= 0.02
        and _rel(design.power, 272e9) <= 0.025
        and _rel(design.breakdown.total, 41e9) <= 0.025
    )
    return CheckResult(
        "worked-example-2",
        ok,
        f"d={design.aperture:.4g} m, P0={design.power:.4g} W, "
        f"C_T={design.breakdown.total:.4g} USD",
    )


def check_two_thirds_rule() -> CheckResult:
    design = _closed(0.2, CostMetrics(1.0, 1000.0))
    b = design.breakdown
    rule = abs(b.laser - 2 * b.optics) / b.total <= 1e-9
    base = CostMetrics(1.0, 1000.0)
    energetic = CostMetrics(1.0, 1000.0, 1.4e-8, 2.8e-5, shots=100)
    args = (_PAYLOAD, _SAIL, _ARRAY)
    d_plain = minimize_cost_numeric(0.2, *args, base).aperture
    d_energy = minimize_cost_numeric(0.2, *args, energetic).aperture
    shift = _rel(d_energy, d_plain)
    return CheckResult(
        "two-thirds-rule",
        rule and shift <= 1e-6,
        f"|C1-2C2|/C_T={abs(b.laser - 2 * b.optics) / b.total:.2e}, "
        f"energy-term d* shift={shift:.2e}",
    )


def _random_case(rng):
    beta = rng.uniform(0.01, 0.45)
    sail = SailSpec(
        thickness=10 ** rng.uniform(-8, -5),
        density=rng.uniform(100, 5000),
        reflectivity=rng.uniform(0.5, 1.0),
        absorptivity=rng.uniform(0.0, 0.5),
        shape_factor=rng.uniform(0.5, 1.0),
    )
    payload = Payload(mass=10 ** rng.uniform(-4, 0))
    metrics = CostMetrics(10 ** rng.uniform(-2, 2), 10 ** rng.uniform(1, 5))
    array = ArraySpec(
        wavelength=10 ** rng.uniform(-6.7, -5),
        diffraction_factor=rng.uniform(1.0, 2.0),
        shape_factor=rng.uniform(0.5, 1.0),
        beam_fraction=rng.uniform(0.5, 1.0),
    )
    return beta, payload, sail, metrics, array


def check_oracle_equivalence() -> CheckResult:
    rng = random.Random(_ORACLE_SEED)
    worst = 0.0
    for _ in range(_ORACLE_DRAWS):
        beta, payload, sail, metrics, array = _random_case(rng)
        closed = closed_form_optimum(beta, payload, sail, array, metrics)
        numeric = minimize_cost_numeric(beta, payload, sail, array, metrics)
        worst = max(worst, _rel(numeric.aperture, closed.aperture))
    return CheckResult(
        "oracle-equivalence",
        worst <= 1e-6,
        f"worst relative gap over {_ORACLE_DRAWS} draws: {worst:.2e}",
    )


def check_fixed_cost_speed() -> CheckResult:
    metrics = CostMetrics(1.0, 1000.0)
    budget = 193e9
    result = maximize_speed_fixed_cost(budget, _PAYLOAD, _SAIL, _ARRAY, metrics)
    third = abs(result.breakdown.optics - budget / 3) / budget
    dual = _rel(_closed(result.beta, metrics).breakdown.total, budget)
    return CheckResult(
        "fixed-cost-speed-maximum",
        third <= 1e-9 and dual <= 1e-6,
        f"|C2-C_T/3|/C_T={third:.2e}, duality round-trip={dual:.2e}",
    )


def _loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(xs)
    mx, my = sum(lx) / n, sum(ly) / n
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum(
        (x - mx) ** 2 for x in lx
    )


def check_kinematics_invariants() -> CheckResult:
    sail, payload = _SAIL, _PAYLOAD
    array = _ARRAY.replace(aperture=9064.0, power=1.287e11)
    opt = kinematics_optimized(array, sail, payload)
    # Work-energy: the thrust eta P0 / c does work F0 L0 up to L0 and as
    # much again out to infinity, so 1/2 M v_inf^2 = 2 F0 L0.
    kinetic = opt.total_mass * opt.coast_speed**2 / 2
    coast = abs(kinetic - 2 * sail.coupling * array.power / C * opt.accel_distance) / kinetic
    sized = sail.replace(diameter=optimal_sail_diameter(sail, payload))
    non = kinematics_non_optimized(array, sized, payload)
    agree = max(
        _rel(non.speed, opt.speed), _rel(non.beta, opt.beta),
        _rel(non.accel_time, opt.accel_time),
    )
    masses = [10 ** (-4 + 3 * i / 12) for i in range(13)]
    times = [
        kinematics_optimized(array, sail, Payload(mass=m)).accel_time for m in masses
    ]
    slope = _loglog_slope(masses, times)
    return CheckResult(
        "kinematics-invariants",
        coast <= 1e-12 and agree <= 1e-10 and abs(slope - 0.75) <= 1e-6,
        f"coast={coast:.1e}, path agreement={agree:.1e}, mass-time slope={slope!r}",
    )


def check_energy() -> CheckResult:
    sail, payload = _SAIL, _PAYLOAD
    array = _ARRAY.replace(aperture=10e3, power=100e9)
    kin = kinematics_optimized(array, sail, payload)
    shot = energy_per_shot(kin.beta, kin.total_mass, sail.coupling)
    cost_1g = storage_cost(shot, 2.8e-5)
    storage_ok = _rel(cost_1g, 0.5e9) <= 0.10
    kin_kg = kinematics_optimized(array, sail, Payload(mass=1.0))
    cost_1kg = storage_cost(
        energy_per_shot(kin_kg.beta, kin_kg.total_mass, sail.coupling), 2.8e-5
    )
    ratio_ok = _rel(cost_1kg / cost_1g, 1000 ** 0.75) <= 1e-6
    _, per_watt = energy_used_lifetime(1.0, 1e5, 1.4e-8, 0.5)
    used_ok = per_watt == 1.4e-8 * 1e5 * 3600.0 / 0.5 and _rel(per_watt, 10.0) <= 0.01
    return CheckResult(
        "energy-figures",
        storage_ok and ratio_ok and used_ok,
        f"storage(1g)={cost_1g:.3g} USD, kg/g ratio={cost_1kg / cost_1g:.4f}, "
        f"energy-used={per_watt:.3f} USD/W",
    )


def check_scaling_laws() -> CheckResult:
    metrics = CostMetrics(1.0, 1000.0)
    doubling = _closed(0.4, metrics).breakdown.total / _closed(0.2, metrics).breakdown.total
    beta_ok = _rel(doubling, 2 ** (4 / 3)) <= 1e-9
    ladder = (
        _closed(0.2, metrics).breakdown.total / _closed(0.01, metrics).breakdown.total
    )
    stage_ok = (
        _rel(stage_cost_ratio(20, 1), 20 ** (4 / 3)) <= 1e-9
        and _rel(ladder, stage_cost_ratio(20, 1)) <= 1e-9
    )
    a1 = a1_for_budget(41e9, 0.2, _PAYLOAD, _SAIL, _ARRAY, metrics)
    round_trip = _rel(
        _closed(0.2, CostMetrics(a1, 1000.0)).breakdown.total, 41e9
    )
    return CheckResult(
        "scaling-laws",
        beta_ok and stage_ok and round_trip <= 1e-6,
        f"beta-doubling ratio={doubling!r}, stage ratio ok={stage_ok}, "
        f"budget round-trip={round_trip:.2e}",
    )


def check_curvature() -> CheckResult:
    rng = random.Random(_CURVATURE_SEED)
    worst_fd = 0.0
    all_positive = True
    for _ in range(_CURVATURE_DRAWS):
        beta, payload, sail, metrics, array = _random_case(rng)
        design = closed_form_optimum(beta, payload, sail, array, metrics)
        d = design.aperture * rng.uniform(0.5, 2.0)
        analytic = second_derivative_at(d, beta, payload, sail, array, metrics)
        all_positive = all_positive and analytic > 0
        step = 1e-4 * d

        def total(x):
            return constrained_cost(x, beta, payload, sail, array, metrics).total

        fd = (total(d + step) - 2 * total(d) + total(d - step)) / step**2
        worst_fd = max(worst_fd, _rel(fd, analytic))
    return CheckResult(
        "cost-curvature",
        all_positive and worst_fd <= 1e-4,
        f"all positive={all_positive}, worst FD mismatch={worst_fd:.2e}",
    )


def run_all() -> list[CheckResult]:
    return [
        check_worked_example_1(),
        check_worked_example_2(),
        check_two_thirds_rule(),
        check_oracle_equivalence(),
        check_fixed_cost_speed(),
        check_kinematics_invariants(),
        check_energy(),
        check_scaling_laws(),
        check_curvature(),
    ]
