"""Beam-sail kinematics: the speed, time, and distance reached at the
point where the diffraction-limited laser spot grows to the sail size,
in both the general and the mass-optimized (sail mass = payload mass)
regimes, plus the strength-limited sail geometry.

Non-relativistic closed forms, reasonably accurate below half the speed
of light; a warning is issued above beta = 0.5 and beta >= 1 is an error.
No relativistic correction is applied.
"""

from . import model
from .errors import DomainError
from .model import BETA_VALIDITY_LIMIT
from .params import ArraySpec, Payload, Record, SailSpec
from .scenario import kernel_point


class KinematicsResult(Record):
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


def kinematics_non_optimized(array: ArraySpec, sail: SailSpec, payload: Payload) -> KinematicsResult:
    """Kinematics for an explicitly sized sail (diameter given)."""
    if sail.diameter is None:
        raise DomainError("sail.D required for the non-optimized kinematics")
    if array.power is None or array.aperture is None:
        raise DomainError("array.P0 and array.d required for kinematics")
    return KinematicsResult(*model.launch(**kernel_point(
        model.launch, payload, sail, array, eta=sail.coupling
    )))


def optimal_sail_diameter(sail: SailSpec, payload: Payload) -> float:
    """Diameter at which sail mass equals payload mass: sqrt(m0/(xi h rho))."""
    return model.optimal_sail_diameter(**kernel_point(model.optimal_sail_diameter, payload, sail))


def kinematics_optimized(array: ArraySpec, sail: SailSpec, payload: Payload) -> KinematicsResult:
    """Kinematics in the mass-optimized regime (sail mass = payload mass).

    The sail diameter is derived, not given; the result agrees exactly
    with the general path evaluated at that diameter.
    """
    if array.power is None or array.aperture is None:
        raise DomainError("array.P0 and array.d required for kinematics")
    return KinematicsResult(*model.optimized_launch(**kernel_point(
        model.optimized_launch, payload, sail, array, eta=sail.coupling
    )))


def strength_limited_geometry(
    power: float, sail: SailSpec, payload: Payload
) -> tuple[float, float]:
    """Sail diameter and thickness set by the material yield strength at
    main-beam power ``power`` (``model.strength_limited_geometry``):
    (diameter, thickness)."""
    return model.strength_limited_geometry(**kernel_point(
        model.strength_limited_geometry, payload, sail, power=power, eta=sail.coupling
    ))
