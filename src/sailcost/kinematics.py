"""Beam-sail kinematics: the speed, time, and distance reached at the
point where the diffraction-limited laser spot grows to the sail size,
in both the general and the mass-optimized (sail mass = payload mass)
regimes, plus the strength-limited sail geometry.

Non-relativistic closed forms, reasonably accurate below half the speed
of light; a warning is issued above beta = 0.5 and beta >= 1 is an error.
No relativistic correction is applied.
"""

import math
from dataclasses import dataclass

from . import model
from .errors import DomainError
from .model import BETA_VALIDITY_LIMIT
from .params import ArraySpec, Payload, SailSpec
from .units import C


@dataclass(frozen=True)
class KinematicsResult:
    """Outcome at the spot-equals-sail point.

    accel_time is None when the beam power is zero (no acceleration ever
    ends, so there is no finite time to report).
    """

    speed: float            # v at spot-equals-sail [m/s]
    beta: float             # v/c
    accel_time: float | None  # time to that point [s]
    accel_distance: float   # distance where spot equals sail [m]
    coast_speed: float      # diffraction-limited speed at infinity [m/s]
    mean_accel: float       # speed / accel_time [m/s^2]; 0 when no thrust
    aperture_flux: float    # main-beam power / array area [W/m^2]
    total_mass: float       # sail + payload [kg]

    @property
    def no_thrust(self) -> bool:
        return self.accel_time is None


def aperture_flux(array: ArraySpec) -> float:
    """Main-beam power spread over the array area, P0 / (xi_arr d^2)."""
    if array.power is None or array.aperture is None:
        raise DomainError("array.P0 and array.d required for aperture flux")
    return model.aperture_flux(array.power, array.shape_factor, array.aperture)


def kinematics_non_optimized(array: ArraySpec, sail: SailSpec, payload: Payload) -> KinematicsResult:
    """Kinematics for an explicitly sized sail (diameter given)."""
    if sail.diameter is None:
        raise DomainError("sail.D required for the non-optimized kinematics")
    if array.power is None or array.aperture is None:
        raise DomainError("array.P0 and array.d required for kinematics")
    return KinematicsResult(*model.launch(
        array.power, array.aperture, sail.diameter, sail.mass + payload.mass,
        array.wavelength, array.diffraction_factor, sail.coupling, array.shape_factor,
    ))


def optimal_sail_diameter(sail: SailSpec, payload: Payload) -> float:
    """Diameter at which sail mass equals payload mass: sqrt(m0/(xi h rho))."""
    return model.optimal_sail_diameter(sail.shape_factor, sail.thickness, sail.density, payload.mass)


def kinematics_optimized(array: ArraySpec, sail: SailSpec, payload: Payload) -> KinematicsResult:
    """Kinematics in the mass-optimized regime (sail mass = payload mass).

    The sail diameter is derived, not given; the result agrees exactly
    with the general path evaluated at that diameter.
    """
    return kinematics_optimized_at(
        array.power, array.aperture, sail, payload,
        array.wavelength, array.diffraction_factor, array.shape_factor,
    )


def kinematics_optimized_at(
    power, aperture, sail: SailSpec, payload: Payload, wavelength, diffraction_factor,
    array_shape,
) -> KinematicsResult:
    """``kinematics_optimized`` at a point whose array fields are validated floats."""
    if power is None or aperture is None:
        raise DomainError("array.P0 and array.d required for kinematics")
    return KinematicsResult(*model.optimized_launch(
        power, aperture, sail.diameter, payload.mass, sail.thickness, sail.density,
        sail.shape_factor, sail.coupling, wavelength, diffraction_factor, array_shape,
    ))


def required_power(
    beta_target: float, array: ArraySpec, sail: SailSpec, payload: Payload
) -> float:
    """Main-beam power that reaches beta_target in the optimized regime.

    Inverse of the optimized speed equation:
    P0 = beta^2 * (2 c^3 lambda alpha_d / (eta d)) * sqrt(xi h rho m0).
    """
    if array.aperture is None:
        raise DomainError("array.d required to compute the required power")
    mass_term = model.mass_term(sail.shape_factor, sail.thickness, sail.density, payload.mass)
    return model.required_power(
        beta_target, array.wavelength, array.diffraction_factor, sail.coupling, array.aperture,
        mass_term,
    )


def strength_limited_geometry(
    power: float, sail: SailSpec, payload: Payload
) -> tuple[float, float]:
    """Sail diameter and thickness set by the material yield strength.

    Solves the two conditions of the strength-limited optimized regime:
    the stress-limited thickness h = s P0 eta / (pi D c S_y), and the
    mass-optimized condition m0 = xi D^2 h rho with xi = pi/4.  Returns
    (diameter, thickness).
    """
    if sail.yield_strength is None:
        raise DomainError("sail.S_y required for the strength-limited geometry")
    if power <= 0:
        raise DomainError(f"P0 must be > 0 (got {power!r})")
    s_y = sail.yield_strength
    eta = sail.coupling
    s = sail.stress_factor
    diameter = 4 * payload.mass * C * s_y / (sail.density * s * power * eta)
    thickness = s * power * eta / (math.pi * diameter * C * s_y)
    return model.check_finite("D", diameter), model.check_finite("h", thickness)


def strength_limited_beta(array: ArraySpec, sail: SailSpec) -> float:
    """Speed fraction reachable when the yield strength sets the sail:
    beta = sqrt(d S_y / (2 rho c^2 lambda alpha_d s))."""
    if sail.yield_strength is None:
        raise DomainError("sail.S_y required for the strength-limited speed")
    if array.aperture is None:
        raise DomainError("array.d required for the strength-limited speed")
    return math.sqrt(
        array.aperture
        * sail.yield_strength
        / (
            2
            * sail.density
            * C**2
            * array.wavelength
            * array.diffraction_factor
            * sail.stress_factor
        )
    )
