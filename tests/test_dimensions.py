"""Dimensional homogeneity of the ``model`` path kernels.

Rescaling the units of length, mass, time and currency must rescale each
kernel output by its own dimension.  The test reads no formula: the input
dimensions come from the unit column of ``scenario.FIELDS``, and only the
speed of light is restated in the new units.  So it cannot see a wrong
dimensionless factor such as a ``pi/4``.
"""

import math
import random

import pytest

from sailcost import model
from sailcost.checks import _random_case
from sailcost.costs import closed_form_optimum
from sailcost.scenario import FIELDS, kernel_point
from sailcost.units import C, _UNITS, dimension_of

# Exponents of (length, mass, time, currency) for each dimension name of units._UNITS.
EXPONENTS = {
    "length": (1, 0, 0, 0),
    "mass": (0, 1, 0, 0),
    "time": (0, 0, 1, 0),
    "power": (2, 1, -3, 0),
    "energy": (2, 1, -2, 0),
    "flux": (0, 1, -3, 0),
    "density": (-3, 1, 0, 0),
    "stress": (-1, 1, -2, 0),
    "speed": (1, 0, -1, 0),
    "cost": (0, 0, 0, 1),
    "cost_per_watt": (-2, -1, 3, 1),
    "cost_per_area": (-2, 0, 0, 1),
    "cost_per_joule": (-2, -1, 2, 1),
    "number": (0, 0, 0, 0),
    # Dimensions of kernel values that no unit of units._UNITS names.
    "acceleration": (1, 0, -2, 0),
    "linear_density": (-1, 1, 0, 0),
}
# Each kernel's outputs, in order, by dimension name.
_DESIGN = ("length", "power", "number", "cost", "cost", "cost", "cost")
_LAUNCH = ("speed", "number", "time", "length", "speed", "acceleration", "flux", "mass")
OUTPUTS = {
    model.cost_optimum: _DESIGN,
    model.fixed_aperture_design: _DESIGN,
    model.budget_design: _DESIGN,
    model.budget_laser_metric: ("cost_per_watt",),
    model.launch: _LAUNCH,
    model.optimized_launch: _LAUNCH,
    model.required_power: ("power",),
    model.beam_energy: ("energy",),
    model.strength_limited_geometry: ("length", "length"),
    model.cost_terms: ("cost", "cost", "cost", "cost"),
}
# Kernel name -> the dimension name of the field that feeds it, and of
# the kernel parameters that no field feeds.
_INPUTS = {
    name: "number" if kind == "number" else dimension_of(kind)
    for kind, _, _, name, *_ in FIELDS.values() if name is not None
} | {
    "eta": "number", "mass_term": "linear_density", "total_mass": "mass",
    "beam_energy": "energy",
}
DRAWS = 300


def test_every_dimension_name_has_exponents():
    assert {dim for dim, _ in _UNITS.values()} | set(_INPUTS.values()) <= set(EXPONENTS)


def _point(kernel, rng):
    """A valid SI point of ``kernel``: a random scenario with energy terms
    and a yield strength, near its closed-form optimum's array size, with
    that optimum's cost as the budget (only its laser and optics share for
    ``budget_design``, which prices nothing else), the power that reaches
    the scenario's speed with that array size in the optimized regime, and
    the beam energy of the 2 m0 craft at that speed.  ``launch`` gets the
    derived sail diameter, which ``optimized_launch`` refuses."""
    beta, payload, sail, metrics, array = _random_case(rng)
    sail = sail.replace(yield_strength=10 ** rng.uniform(8, 10))
    metrics = metrics.replace(
        energy_usd_per_joule=1.4e-8 * 10 ** rng.uniform(-1, 1),
        storage_usd_per_joule=2.8e-5 * 10 ** rng.uniform(-1, 1),
        storage_efficiency=rng.uniform(0.5, 1.0),
        shots=float(rng.choice((1, 10, 100))),
    )
    design = closed_form_optimum(beta, payload, sail, array, metrics)
    array = array.replace(aperture=design.aperture * rng.uniform(0.5, 2.0))
    costs = design.breakdown
    budget = costs.laser + costs.optics if kernel is model.budget_design else costs.total
    eta = sail.coupling
    mass = model.mass_term(**kernel_point(model.mass_term, payload, sail))
    power = model.required_power(**kernel_point(
        model.required_power, payload, sail, array, beta=beta, eta=eta, mass_term=mass
    ))
    total_mass = model.optimized_craft_mass(payload.mass)
    given = {
        "beta": beta, "total_usd": budget, "eta": eta, "mass_term": mass, "power": power,
        "total_mass": total_mass, "beam_energy": model.beam_energy(beta, total_mass, eta),
    }
    if kernel is model.launch:
        given["sail_diameter"] = model.optimal_sail_diameter(
            **kernel_point(model.optimal_sail_diameter, payload, sail)
        )
    code = kernel.__code__
    params = code.co_varnames[:code.co_argcount]
    return kernel_point(
        kernel, payload, sail, array, metrics,
        **{name: value for name, value in given.items() if name in params},
    )


def _factor(dimension, scales):
    return math.prod(s**e for s, e in zip(scales, EXPONENTS[dimension]))


def _outputs(kernel, point):
    out = kernel(**point)
    out = out if isinstance(out, tuple) else (out,)
    assert len(out) == len(OUTPUTS[kernel])
    return out


@pytest.mark.parametrize("kernel", list(OUTPUTS), ids=lambda kernel: kernel.__name__)
def test_kernel_outputs_scale_with_their_dimensions(kernel, monkeypatch):
    rng = random.Random(20240820)
    worst = 0.0
    for _ in range(DRAWS):
        point = _point(kernel, rng)
        base = _outputs(kernel, point)
        scales = [10 ** rng.uniform(-3, 3) for _ in range(4)]
        scaled_point = {
            name: value if value is None else value * _factor(_INPUTS[name], scales)
            for name, value in point.items()
        }
        with monkeypatch.context() as patch:
            patch.setattr(model, "C", C * _factor("speed", scales))
            scaled = _outputs(kernel, scaled_point)
        for dimension, value, rescaled in zip(OUTPUTS[kernel], base, scaled):
            expected = value * _factor(dimension, scales)
            # budget_design's C3 and C4 are 0.0, which must stay exactly 0.0.
            error = abs(rescaled - expected) / abs(expected) if expected else abs(rescaled)
            worst = max(worst, error)
    assert worst <= 1e-12
