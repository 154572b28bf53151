"""The guards of the public API that no command-line run reaches: each
call raises its one error type with its one message."""

import pytest

from sailcost.costs import cost_components
from sailcost.energy import energy_per_shot, storage_cost
from sailcost.errors import DomainError, ParseError, ValidationError
from sailcost.kinematics import (
    kinematics_non_optimized,
    kinematics_optimized,
    strength_limited_geometry,
)
from sailcost.optimize import minimize_cost_numeric
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec
from sailcost.scenario import SweepSpec, parse_entries

SAIL = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
PAYLOAD = Payload(mass=1e-3)
METRICS = CostMetrics(laser_usd_per_watt=0.01, optics_usd_per_m2=1000.0)
ARRAY = ArraySpec(wavelength=1e-6, aperture=10e3, power=100e9)
BARE_ARRAY = ArraySpec(wavelength=1e-6)

GUARDS = [
    ("cost_components", lambda: cost_components(BARE_ARRAY, 1.0, METRICS),
     DomainError, "array.P0 and array.d required for the cost components"),
    ("storage_cost", lambda: storage_cost(energy_per_shot(0.1, 2e-3, 2.0), -1.0),
     DomainError, "a4 must be >= 0 (got -1.0)"),
    ("non_optimized_without_D", lambda: kinematics_non_optimized(ARRAY, SAIL, PAYLOAD),
     DomainError, "sail.D required for the non-optimized kinematics"),
    ("non_optimized_without_P0",
     lambda: kinematics_non_optimized(BARE_ARRAY, SAIL.replace(diameter=2000.0), PAYLOAD),
     DomainError, "array.P0 and array.d required for kinematics"),
    ("optimized_without_P0", lambda: kinematics_optimized(BARE_ARRAY, SAIL, PAYLOAD),
     DomainError, "array.P0 and array.d required for kinematics"),
    ("numeric_optimum_below_zero",
     lambda: minimize_cost_numeric(-0.1, PAYLOAD, SAIL, ARRAY, METRICS),
     DomainError, "beta target must be >= 0 (got -0.1)"),
    ("strength_limited_at_zero_power",
     lambda: strength_limited_geometry(0.0, SAIL.replace(yield_strength=1e9), PAYLOAD),
     DomainError, "P0 must be > 0 (got 0.0)"),
    ("sail_mass_without_D", lambda: SAIL.mass,
     ValidationError, "sail.D: diameter required to compute sail mass"),
    ("optical_power_without_P0", lambda: BARE_ARRAY.optical_power,
     ValidationError, "array.P0: power required to compute optical power"),
    ("sweep_scale",
     lambda: SweepSpec(axis="metrics.a1", start=1.0, stop=2.0, points=3, scale="cubic"),
     ValidationError, "sweep.scale: linear or log (got 'cubic')"),
    ("entry_without_value", lambda: parse_entries("name ="),
     ParseError, "line 1: expected 'key = value' (got 'name =')"),
    ("entry_without_key", lambda: parse_entries("= 3"),
     ParseError, "line 1: expected 'key = value' (got '= 3')"),
]


@pytest.mark.parametrize(
    ("call", "error", "message"), [guard[1:] for guard in GUARDS], ids=[g[0] for g in GUARDS]
)
def test_guard_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)
