import math

import pytest

from sailcost import model
from sailcost.errors import DomainError, NumericRangeError
from sailcost.kinematics import (
    kinematics_non_optimized,
    kinematics_optimized,
    optimal_sail_diameter,
    strength_limited_geometry,
)
from sailcost.params import ArraySpec, Payload, SailSpec
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


def test_required_power_warns_in_relativistic_range():
    array = ArraySpec(wavelength=1e-6, aperture=1e4)
    with pytest.warns(UserWarning, match="non-relativistic"):
        required_power(0.6, array)
    with pytest.raises(DomainError):
        required_power(1.1, array)


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
