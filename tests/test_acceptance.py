"""Acceptance gate: ten numbered criteria, one test (and one printed
pass/fail line) each.  Tolerances are pinned here and must not be
loosened; golden values come from the published worked examples and from
independently hand-derived closed forms frozen at authoring time.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sailcost as sc
from sailcost import checks
from sailcost.cli import main as cli_main
from sailcost.optimize import constrained_cost

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
XI = math.pi / 4
SAIL = sc.SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
PAYLOAD = sc.Payload(mass=1e-3)
ARRAY = sc.ArraySpec(1e-6, 1.22, XI, 1.0)


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:02d}: {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_worked_example_baseline():
    start = time.perf_counter()
    design = sc.closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, sc.CostMetrics(1.0, 1000.0))
    elapsed = time.perf_counter() - start
    ok = (
        abs(design.aperture - 9.1e3) / 9.1e3 <= 0.02
        and abs(design.power - 128e9) / 128e9 <= 0.02
        and abs(design.breakdown.total - 193e9) / 193e9 <= 0.02
        and elapsed < 1.0
    )
    _report(1, ok, f"d*={design.aperture:.4g} m, P0={design.power:.4g} W, "
                   f"C_T={design.breakdown.total:.4g} USD in {elapsed:.3f} s")


def test_criterion_02_worked_example_cheap_laser():
    design = sc.closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, sc.CostMetrics(0.1, 1000.0))
    ok = (
        abs(design.aperture - 4.2e3) / 4.2e3 <= 0.02
        and abs(design.power - 272e9) / 272e9 <= 0.025
        and abs(design.breakdown.total - 41e9) / 41e9 <= 0.025
    )
    _report(2, ok, f"d*={design.aperture:.4g} m, P0={design.power:.4g} W, "
                   f"C_T={design.breakdown.total:.4g} USD")


def test_criterion_03_two_thirds_rule():
    worst = 0.0
    for a1, a2, beta in [(1.0, 1000.0, 0.2), (0.1, 1000.0, 0.2), (5.0, 300.0, 0.05)]:
        b = sc.closed_form_optimum(beta, PAYLOAD, SAIL, ARRAY, sc.CostMetrics(a1, a2)).breakdown
        worst = max(worst, abs(b.laser - 2 * b.optics) / b.total)
    plain = sc.minimize_cost_numeric(0.2, PAYLOAD, SAIL, ARRAY, sc.CostMetrics(1.0, 1000.0))
    loaded = sc.minimize_cost_numeric(
        0.2, PAYLOAD, SAIL, ARRAY, sc.CostMetrics(1.0, 1000.0, 1.4e-8, 2.8e-5, shots=100.0)
    )
    shift = abs(loaded.aperture - plain.aperture) / plain.aperture
    _report(3, worst <= 1e-9 and shift <= 1e-6,
            f"|C1-2C2|/C_T={worst:.2e}, energy-term d* shift={shift:.2e}")


def test_criterion_04_oracle_equivalence_1000_random_cases():
    rng = random.Random(20240817)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        beta, payload, sail, metrics, array = checks._random_case(rng)
        closed = sc.closed_form_optimum(beta, payload, sail, array, metrics)
        numeric = sc.minimize_cost_numeric(beta, payload, sail, array, metrics)
        worst = max(worst, abs(numeric.aperture - closed.aperture) / closed.aperture)
    elapsed = time.perf_counter() - start
    _report(4, worst <= 1e-6 and elapsed < 10.0,
            f"worst gap={worst:.2e} over 1000 draws in {elapsed:.2f} s")


def test_criterion_05_fixed_cost_speed_maximum():
    metrics = sc.CostMetrics(1.0, 1000.0)
    budget = 193085264928.40485
    result = sc.maximize_speed_fixed_cost(budget, PAYLOAD, SAIL, ARRAY, metrics)
    third = abs(result.breakdown.optics - budget / 3) / budget
    dual = sc.closed_form_optimum(result.beta, PAYLOAD, SAIL, ARRAY, metrics)
    round_trip = abs(dual.breakdown.total - budget) / budget
    _report(5, third <= 1e-9 and round_trip <= 1e-6,
            f"|C2-C_T/3|/C_T={third:.2e}, duality round-trip={round_trip:.2e}")


def test_criterion_06_kinematics_invariants():
    array = sc.ArraySpec(wavelength=1e-6, aperture=9052.51, power=128.7e9, shape_factor=XI)
    opt = sc.kinematics_optimized(array, SAIL, PAYLOAD)
    coast = abs(opt.coast_speed - math.sqrt(2) * opt.speed) / opt.coast_speed

    sized = SAIL.replace(diameter=sc.optimal_sail_diameter(SAIL, PAYLOAD))
    non = sc.kinematics_non_optimized(array, sized, PAYLOAD)
    agree = max(
        abs(non.speed - opt.speed) / opt.speed,
        abs(non.accel_time - opt.accel_time) / opt.accel_time,
        abs(non.accel_distance - opt.accel_distance) / opt.accel_distance,
    )

    masses = np.logspace(-4, -1, 13)
    times = [
        sc.kinematics_optimized(array, SAIL, sc.Payload(m)).accel_time for m in masses
    ]
    slope = np.polyfit(np.log(masses), np.log(times), 1)[0]
    _report(6, coast <= 1e-12 and agree <= 1e-10 and abs(slope - 0.75) <= 1e-6,
            f"coast={coast:.1e}, path agreement={agree:.1e}, slope={slope!r}")


def test_criterion_07_energy_figures():
    array = sc.ArraySpec(wavelength=1e-6, aperture=10e3, power=100e9, shape_factor=XI)
    kin = sc.kinematics_optimized(array, SAIL, PAYLOAD)
    shot = sc.energy_per_shot(kin.beta, kin.total_mass, SAIL.coupling)
    cost_g = sc.storage_cost(shot, 2.8e-5)
    storage_ok = abs(cost_g - 0.5e9) / 0.5e9 <= 0.10

    kin_kg = sc.kinematics_optimized(array, SAIL, sc.Payload(1.0))
    cost_kg = sc.storage_cost(
        sc.energy_per_shot(kin_kg.beta, kin_kg.total_mass, SAIL.coupling), 2.8e-5
    )
    ratio_ok = abs(cost_kg / cost_g - 1000 ** 0.75) / 1000 ** 0.75 <= 1e-6

    _, per_watt = sc.energy_used_lifetime(1.0, 1e5, 1.4e-8, 0.5)
    exact_ok = per_watt == 1.4e-8 * 1e5 * 3600.0 / 0.5 and abs(per_watt - 10.0) <= 0.1
    _report(7, storage_ok and ratio_ok and exact_ok,
            f"storage(1g)={cost_g:.3g} USD, ratio={cost_kg / cost_g:.4f}, "
            f"energy-used={per_watt} USD/W")


def test_criterion_08_scaling_laws():
    metrics = sc.CostMetrics(1.0, 1000.0)

    def total(beta):
        return sc.closed_form_optimum(beta, PAYLOAD, SAIL, ARRAY, metrics).breakdown.total

    doubling = total(0.4) / total(0.2)
    beta_ok = abs(doubling - 2 ** (4 / 3)) / 2 ** (4 / 3) <= 1e-9
    ratio = sc.stage_cost_ratio(20, 1)
    stage_ok = (
        abs(ratio - 20 ** (4 / 3)) / 20 ** (4 / 3) <= 1e-9
        and abs(total(0.2) / total(0.01) - ratio) / ratio <= 1e-9
    )
    a1 = sc.a1_for_budget(41e9, 0.2, PAYLOAD, SAIL, ARRAY, metrics)
    back = sc.closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, sc.CostMetrics(a1, 1000.0))
    round_trip = abs(back.breakdown.total - 41e9) / 41e9
    _report(8, beta_ok and stage_ok and round_trip <= 1e-6,
            f"beta-doubling={doubling!r}, stage ratio={ratio:.4g}, "
            f"budget round-trip={round_trip:.2e}")


def test_criterion_09_curvature_positive_and_matches_fd():
    rng = random.Random(20240818)
    worst = 0.0
    positive = True
    for _ in range(50):
        beta, payload, sail, metrics, array = checks._random_case(rng)
        args = (beta, payload, sail, array, metrics)
        d = sc.closed_form_optimum(*args).aperture * rng.uniform(0.5, 2.0)
        analytic = sc.second_derivative_at(d, *args)
        positive = positive and analytic > 0
        step = 1e-4 * d
        fd = (
            constrained_cost(d + step, *args).total
            - 2 * constrained_cost(d, *args).total
            + constrained_cost(d - step, *args).total
        ) / step**2
        worst = max(worst, abs(fd - analytic) / analytic)
    _report(9, positive and worst <= 1e-4,
            f"all positive={positive}, worst FD mismatch={worst:.2e}")


def test_criterion_10_io_determinism(tmp_path, capsys):
    # fixture load -> write -> load fixed point
    fixed = True
    for name in ("example1.scn", "example2.scn"):
        first = sc.load_scenario(FIXTURES / name)
        text = sc.dump_scenario(first)
        from sailcost.scenario import build_scenario, parse_entries
        second = build_scenario(parse_entries(text))
        fixed = fixed and second == first and sc.dump_scenario(second) == text

    # identical CLI invocations are byte-identical
    outs = []
    for name in ("x.json", "y.json"):
        path = tmp_path / name
        assert cli_main(["optimize", str(FIXTURES / "example1.scn"), "-o", str(path)]) == 0
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1]

    # validate runs checks 1-9 and exits 0
    proc = subprocess.run(
        [sys.executable, "-m", "sailcost.cli", "validate"], capture_output=True, text=True
    )
    validate_ok = proc.returncode == 0 and len(proc.stdout.strip().splitlines()) == 9
    capsys.readouterr()  # drop CLI noise before the report line
    _report(10, fixed and identical and validate_ok,
            f"fixed point={fixed}, byte-identical={identical}, validate rc={proc.returncode}")
