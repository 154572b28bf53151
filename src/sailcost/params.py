"""Validated parameter records for the sail, the laser array, the payload,
and the unit-cost metrics.

All fields are SI.  Validation happens at construction so every function
downstream can assume the documented invariants.
"""

import math
from dataclasses import dataclass

from . import model
from .errors import ValidationError
from .model import require


def check_sail(
    thickness, density, reflectivity, absorptivity, shape_factor, diameter, yield_strength,
    stress_factor,
) -> None:
    """The SailSpec field checks, for callers holding the fields as floats."""
    require(thickness > 0, "sail.h", "h > 0", thickness)
    require(density > 0, "sail.rho", "rho > 0", density)
    require(0 <= reflectivity <= 1, "sail.eps_r", "0 <= eps_r <= 1", reflectivity)
    require(0 <= absorptivity <= 1, "sail.alpha", "0 <= alpha <= 1", absorptivity)
    require(shape_factor > 0, "sail.xi", "xi > 0", shape_factor)
    if diameter is not None:
        require(diameter > 0, "sail.D", "D > 0", diameter)
    if yield_strength is not None:
        require(yield_strength > 0, "sail.S_y", "S_y > 0", yield_strength)
    require(stress_factor > 0, "sail.s", "s > 0", stress_factor)
    # A sail that neither reflects nor absorbs feels no thrust.
    require(
        model.coupling(reflectivity, absorptivity) > 0,
        "sail", "2 eps_r + (1 - eps_r) alpha > 0", (reflectivity, absorptivity),
    )


@dataclass(frozen=True)
class SailSpec:
    """Sail material and geometry.

    thickness h [m], density rho [kg/m^3], reflectivity and absorptivity
    in [0, 1], areal shape factor xi (pi/4 for a circular sail).  The
    diameter is optional: in the mass-optimized regime it is derived.
    yield_strength [Pa] and the dimensionless stress geometry factor are
    only needed for the strength-limited regime; the stress factor has no
    canonical published value and defaults to 1.
    """

    thickness: float
    density: float
    reflectivity: float
    absorptivity: float = 0.0
    shape_factor: float = math.pi / 4
    diameter: float | None = None
    yield_strength: float | None = None
    stress_factor: float = 1.0

    def __post_init__(self):
        check_sail(**vars(self))

    @property
    def coupling(self) -> float:
        """Momentum coupling factor: 2 for a perfect reflector, 1 for a
        perfect absorber."""
        return model.coupling(self.reflectivity, self.absorptivity)

    @property
    def mass(self) -> float:
        """Sail mass xi * D^2 * h * rho; requires the diameter."""
        if self.diameter is None:
            raise ValidationError("sail.D: diameter required to compute sail mass")
        return model.sail_mass(self.shape_factor, self.diameter, self.thickness, self.density)


def check_array(
    wavelength, diffraction_factor, shape_factor, beam_fraction, aperture=None, power=None
) -> None:
    """The ArraySpec field checks, for callers holding the fields as floats."""
    require(wavelength > 0, "array.lambda", "lambda > 0", wavelength)
    require(diffraction_factor >= 1, "array.alpha_d", "alpha_d >= 1", diffraction_factor)
    require(shape_factor > 0, "array.xi_arr", "xi_arr > 0", shape_factor)
    require(0 < beam_fraction <= 1, "array.eps_b", "0 < eps_b <= 1", beam_fraction)
    if aperture is not None:
        require(aperture > 0, "array.d", "d > 0", aperture)
    if power is not None:
        require(power >= 0, "array.P0", "P0 >= 0", power)


@dataclass(frozen=True)
class ArraySpec:
    """Laser array: aperture size d [m], wavelength [m], diffraction
    factor (1.22 for a circular aperture), array shape factor (pi/4
    circular, 1 square), main-beam fraction eps_b, and main-beam power
    P0 [W].  Aperture and power are optional where they are outputs of
    an optimization rather than inputs.
    """

    wavelength: float
    diffraction_factor: float = 1.22
    shape_factor: float = math.pi / 4
    beam_fraction: float = 1.0
    aperture: float | None = None
    power: float | None = None

    def __post_init__(self):
        check_array(**vars(self))

    @property
    def optical_power(self) -> float:
        """Total produced optical power P0 / eps_b."""
        if self.power is None:
            raise ValidationError("array.P0: power required to compute optical power")
        return self.power / self.beam_fraction


def check_payload(mass) -> None:
    """The Payload field check, for callers holding the mass as a float."""
    require(mass > 0, "payload.m0", "m0 > 0", mass)


@dataclass(frozen=True)
class Payload:
    """Payload mass m0 [kg]."""

    mass: float

    def __post_init__(self):
        check_payload(**vars(self))


# Cost items beyond the four modeled ones (personnel, land, launch,
# payload) are reserved: configs may name them but only with value 0.
RESERVED_COST_ITEMS = ("a5", "a6", "a7", "a8", "a9")


def check_metrics(
    laser_usd_per_watt, optics_usd_per_m2, energy_usd_per_joule, storage_usd_per_joule,
    storage_efficiency, shots,
) -> None:
    """The CostMetrics field checks, for callers holding the fields as floats."""
    require(laser_usd_per_watt >= 0, "metrics.a1", "a1 >= 0", laser_usd_per_watt)
    require(optics_usd_per_m2 >= 0, "metrics.a2", "a2 >= 0", optics_usd_per_m2)
    require(energy_usd_per_joule >= 0, "metrics.a3", "a3 >= 0", energy_usd_per_joule)
    require(storage_usd_per_joule >= 0, "metrics.a4", "a4 >= 0", storage_usd_per_joule)
    require(
        laser_usd_per_watt > 0 or optics_usd_per_m2 > 0,
        "metrics", "a1 > 0 or a2 > 0", (laser_usd_per_watt, optics_usd_per_m2),
    )
    require(
        0 < storage_efficiency <= 1,
        "metrics.eps_storage", "0 < eps_storage <= 1", storage_efficiency,
    )
    require(shots >= 1, "metrics.N_shot", "N_shot >= 1", shots)


@dataclass(frozen=True)
class CostMetrics:
    """Unit costs: laser USD/optical-W, optics USD/m^2, grid energy and
    storage USD/J, end-to-end storage efficiency, and the shot count used
    for lifetime energy amortization.
    """

    laser_usd_per_watt: float
    optics_usd_per_m2: float
    energy_usd_per_joule: float = 0.0
    storage_usd_per_joule: float = 0.0
    storage_efficiency: float = 1.0
    shots: float = 1.0

    def __post_init__(self):
        check_metrics(**vars(self))

