import math
import random
import re
import warnings

import pytest

from sailcost import checks, model
from sailcost.costs import closed_form_optimum, maximize_speed_fixed_cost
from sailcost.errors import DomainError, NumericRangeError
from sailcost.kinematics import (
    kinematics_non_optimized,
    kinematics_optimized,
    optimal_sail_diameter,
    strength_limited_geometry,
)
from sailcost.optimize import constrained_cost, minimize_cost_numeric
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec
from sailcost.scenario import kernel_point
from sailcost.units import C

SAIL = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
PAYLOAD = Payload(mass=1e-3)


def _array(aperture=10e3, power=100e9):
    return ArraySpec(wavelength=1e-6, aperture=aperture, power=power)


def test_non_optimized_matches_hand_oracle():
    # Independently derived: v0 from the power balance, t0 from F = eta P0 / c.
    sail = SAIL.replace(diameter=2000.0)
    kin = kinematics_non_optimized(_array(), sail, PAYLOAD)
    assert kin.total_mass == pytest.approx(3141.5936535897927, rel=1e-12)
    assert kin.speed == pytest.approx(1865798.4304218786, rel=1e-12)
    assert kin.accel_time == pytest.approx(8786288.14112791, rel=1e-12)
    assert kin.accel_distance == pytest.approx(8196721311475.41, rel=1e-9)


def test_accel_time_equals_speed_over_constant_thrust_accel():
    sail = SAIL.replace(diameter=500.0)
    kin = kinematics_non_optimized(_array(), sail, PAYLOAD)
    force = SAIL.coupling * 100e9 / C
    assert kin.mean_accel == pytest.approx(force / kin.total_mass, rel=1e-12)
    assert kin.accel_time == pytest.approx(kin.speed / kin.mean_accel, rel=1e-12)


def test_coast_speed_is_sqrt2_of_spot_speed():
    kin = kinematics_optimized(_array(), SAIL, PAYLOAD)
    assert kin.coast_speed == pytest.approx(math.sqrt(2) * kin.speed, rel=1e-14)


@pytest.mark.parametrize("regime", ["optimized", "non_optimized"])
def test_kinetic_energy_is_the_work_of_the_thrust(regime):
    """Work-energy, not the closed forms: up to L0 the thrust is F0 =
    eta P0 / c, so 1/2 M v0^2 = F0 L0.  Past L0 the spot outgrows the sail
    and the thrust falls as F0 (L0/L)^2, which does work F0 L0 more out to
    infinity, so 1/2 M v_inf^2 = 2 F0 L0.  Over random designs, each with
    a random array size and power; a draw that reaches beta >= 1 is
    skipped."""
    rng = random.Random(6)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # beta >= 0.5 warns
        for _ in range(3000):
            _, payload, sail, _, array = checks._random_case(rng)
            array = array.replace(aperture=10 ** rng.uniform(2, 5), power=10 ** rng.uniform(8, 12))
            try:
                if regime == "optimized":
                    kin = kinematics_optimized(array, sail, payload)
                else:
                    sized = sail.replace(diameter=10 ** rng.uniform(-1, 2))
                    kin = kinematics_non_optimized(array, sized, payload)
            except DomainError:  # beta >= 1
                continue
            work = sail.coupling * array.power / C * kin.accel_distance
            assert kin.total_mass * kin.speed**2 / 2 == pytest.approx(work, rel=1e-12)
            assert kin.total_mass * kin.coast_speed**2 / 2 == pytest.approx(2 * work, rel=1e-12)
            checked += 1
    assert checked > 2900


def test_optimal_diameter_makes_sail_mass_equal_payload_mass():
    dia = optimal_sail_diameter(SAIL, PAYLOAD)
    sized = SAIL.replace(diameter=dia)
    assert sized.mass == pytest.approx(PAYLOAD.mass, rel=1e-12)


def test_optimized_path_agrees_with_sized_non_optimized_path():
    array = _array()
    opt = kinematics_optimized(array, SAIL, PAYLOAD)
    sized = SAIL.replace(diameter=optimal_sail_diameter(SAIL, PAYLOAD))
    non = kinematics_non_optimized(array, sized, PAYLOAD)
    assert opt.speed == non.speed
    assert opt.accel_time == non.accel_time
    assert opt.accel_distance == non.accel_distance


def test_optimized_rejects_explicit_diameter():
    sized = SAIL.replace(diameter=1.0)
    with pytest.raises(DomainError):
        kinematics_optimized(_array(), sized, PAYLOAD)


def test_zero_power_yields_no_thrust_marker():
    kin = kinematics_optimized(_array(power=0.0), SAIL, PAYLOAD)
    assert kin.speed == 0.0
    assert kin.accel_time is None
    assert kin.accel_distance > 0  # the spot geometry does not care


def required_power(beta, array):
    """Main-beam power that reaches ``beta`` in the optimized regime."""
    mass = model.mass_term(**kernel_point(model.mass_term, PAYLOAD, SAIL))
    return model.required_power(**kernel_point(
        model.required_power, PAYLOAD, SAIL, array, beta=beta, eta=SAIL.coupling, mass_term=mass
    ))


def test_required_power_reproduces_worked_example():
    array = ArraySpec(wavelength=1e-6, aperture=9052.509685395)
    p0 = required_power(0.2, array)
    assert p0 == pytest.approx(128723509952.26982, rel=1e-12)
    # forward consistency
    kin = kinematics_optimized(array.replace(power=p0), SAIL, PAYLOAD)
    assert kin.beta == pytest.approx(0.2, rel=1e-12)


def test_required_power_quadratic_in_beta():
    array = ArraySpec(wavelength=1e-6, aperture=1e4)
    p1 = required_power(0.1, array)
    p2 = required_power(0.2, array)
    assert p2 / p1 == pytest.approx(4.0, rel=1e-12)


def test_required_power_refuses_light_speed():
    array = ArraySpec(wavelength=1e-6, aperture=1e4)
    with pytest.raises(DomainError):
        required_power(1.1, array)


def test_required_power_is_exactly_zero_at_zero_speed():
    """Zero speed needs zero power, even where the factor beta^2 multiplies
    would overflow (0 * inf is NaN)."""
    p0 = model.required_power(0.0, 1e300, 1.22, 2.0, 1e3, 1.0)
    assert p0 == 0.0 and math.copysign(1.0, p0) == 1.0


METRICS = CostMetrics(1.0, 1000.0)
OPTIMAL_SAIL = SAIL.replace(diameter=optimal_sail_diameter(SAIL, PAYLOAD))


def _power_for(beta):
    """Main-beam power at which the optimized sail reaches about ``beta``
    on a 10 km array; the power grows as beta^2, so past beta 1 too."""
    return required_power(0.1, _array()) * (beta / 0.1) ** 2


def _budget_for(beta):
    """Budget whose speed maximum reaches about ``beta``: beta grows as
    C_T^(3/4)."""
    reached = maximize_speed_fixed_cost(1e9, PAYLOAD, SAIL, _array(), METRICS).beta
    return 1e9 * (beta / reached) ** (4 / 3)


# The six public functions that warn, each as a call at a speed fraction:
# the four that are given a beta and the two that return one.
WARNING_CALLS = {
    "kinematics_optimized": lambda beta: kinematics_optimized(
        _array(power=_power_for(beta)), SAIL, PAYLOAD
    ),
    "kinematics_non_optimized": lambda beta: kinematics_non_optimized(
        _array(power=_power_for(beta)), OPTIMAL_SAIL, PAYLOAD
    ),
    "maximize_speed_fixed_cost": lambda beta: maximize_speed_fixed_cost(
        _budget_for(beta), PAYLOAD, SAIL, _array(), METRICS
    ),
    "closed_form_optimum": lambda beta: closed_form_optimum(
        beta, PAYLOAD, SAIL, _array(), METRICS
    ),
    "constrained_cost": lambda beta: constrained_cost(
        10e3, beta, PAYLOAD, SAIL, _array(), METRICS
    ),
    "minimize_cost_numeric": lambda beta: minimize_cost_numeric(
        beta, PAYLOAD, SAIL, _array(), METRICS
    ),
}


@pytest.mark.parametrize("name", WARNING_CALLS)
def test_public_function_warns_once_at_the_beta_limit(name):
    """Under ``always``, each call at beta >= 0.5 warns exactly once, with
    the caller's file; below it, or when the call raises, none warns.  No
    kernel warns, so the oracle's evaluations add none."""
    call = WARNING_CALLS[name]

    def warnings_of(beta):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(beta)
        return [(w.category, str(w.message), w.filename) for w in caught]

    assert warnings_of(0.3) == []
    [(category, message, filename)] = warnings_of(0.6)
    assert category is UserWarning and filename == __file__
    assert re.fullmatch(r"beta = 0\.6\d* >= 0\.5: non-relativistic model is inaccurate here",
                        message)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError):
            call(1.2)
    assert caught == []


def test_aperture_flux():
    array = _array(aperture=10e3, power=100e9)
    flux = model.aperture_flux(array.power, array.shape_factor, array.aperture)
    assert flux == pytest.approx(100e9 / (math.pi / 4 * 1e8), rel=1e-12)


def test_strength_limited_geometry_satisfies_both_conditions():
    sail = SAIL.replace(yield_strength=1e9)
    dia, th = strength_limited_geometry(100e9, sail, PAYLOAD)
    assert dia == pytest.approx(5.99584916, rel=1e-9)
    # mass-optimized condition: sail mass equals payload mass
    assert math.pi / 4 * dia**2 * th * sail.density == pytest.approx(
        PAYLOAD.mass, rel=1e-12
    )
    # stress condition
    assert th == pytest.approx(
        sail.stress_factor * 100e9 * sail.coupling / (math.pi * dia * C * 1e9),
        rel=1e-12,
    )


def test_strength_limited_requires_yield_strength():
    with pytest.raises(DomainError, match="S_y"):
        strength_limited_geometry(100e9, SAIL, PAYLOAD)


def test_strength_limited_diameter_underflow_names_the_diameter():
    """A diameter that underflows to 0 is reported as D, not as a division
    by zero in the thickness."""
    sail = SAIL.replace(yield_strength=1e-300)
    with pytest.raises(NumericRangeError, match=r"^D is 0\.0; inputs out of numeric range$"):
        strength_limited_geometry(1e9, sail, Payload(mass=1e-300))
