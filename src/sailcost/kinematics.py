"""Beam-sail kinematics: the speed, time, and distance reached where the
diffraction-limited laser spot grows to the sail size, in the general and the
mass-optimized (sail mass = payload mass) regimes, plus the strength-limited sail geometry.

Non-relativistic closed forms, with no relativistic correction: against a perfect reflector's
Doppler-corrected speed at L0, the classical v0 is 0.67 % high at beta 0.01, 6.9 % at 0.1,
14 % at 0.2 and 37 % at 0.5, and the coast speed is 20 % high at 0.2 (Kulkarni, Lubin & Zhang
2018, arXiv:1710.10732).  So six public functions warn once per call at a beta at or above
``BETA_VALIDITY_LIMIT``, after their kernel returns (``warn_beta``): ``kinematics_optimized``,
``kinematics_non_optimized`` and ``maximize_speed_fixed_cost`` on the beta they reach, and
``closed_form_optimum``, ``constrained_cost`` and ``minimize_cost_numeric`` on the beta they are
given.  No other public function warns (``energy_per_shot``, given a beta, does not), so each
answer of a subcommand warns at most once, as does a sweep; beta >= 1 is an error, which the
kernels raise.  No kernel warns.
"""

import warnings

from . import model
from .errors import DomainError
from .params import ArraySpec, Payload, Record, SailSpec
from .scenario import kernel_point

BETA_VALIDITY_LIMIT = 0.5


def warn_beta(beta: float) -> None:
    """Warn, naming the caller of the public function that calls this,
    when ``beta`` is at or above ``BETA_VALIDITY_LIMIT``."""
    if beta >= BETA_VALIDITY_LIMIT:
        warnings.warn(
            f"beta = {beta:.4g} >= {BETA_VALIDITY_LIMIT}: non-relativistic "
            "model is inaccurate here",
            stacklevel=3,
        )


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
    kin = KinematicsResult(*model.launch(**kernel_point(
        model.launch, payload, sail, array, eta=sail.coupling
    )))
    warn_beta(kin.beta)
    return kin


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
    kin = KinematicsResult(*model.optimized_launch(**kernel_point(
        model.optimized_launch, payload, sail, array, eta=sail.coupling
    )))
    warn_beta(kin.beta)
    return kin


def strength_limited_geometry(
    power: float, sail: SailSpec, payload: Payload
) -> tuple[float, float]:
    """Sail diameter and thickness set by the material yield strength at
    main-beam power ``power`` (``model.strength_limited_geometry``):
    (diameter, thickness)."""
    return model.strength_limited_geometry(**kernel_point(
        model.strength_limited_geometry, payload, sail, power=power, eta=sail.coupling
    ))
