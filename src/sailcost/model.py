"""The model's closed forms on plain floats, each written once: the
physics path (power, then kinematics, then costs) and every formula more
than one function evaluates; only the momentum coupling stays a property,
``SailSpec.coupling``.  Arguments are SI floats the caller has validated:
the public functions check their records once and call these, so no
internal path rebuilds or revalidates a parameter record.
"""

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, NumericRangeError
from .units import C

BETA_VALIDITY_LIMIT = 0.5


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


def check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise NumericRangeError(f"{name} is non-finite; inputs out of numeric range")
    return value


def warn_beta(beta: float) -> None:
    if beta >= 1:
        raise DomainError(f"beta = {beta:.4g} >= 1: beyond any validity of the model")
    if beta >= BETA_VALIDITY_LIMIT:
        warnings.warn(
            f"beta = {beta:.4g} >= {BETA_VALIDITY_LIMIT}: non-relativistic "
            "model is inaccurate here",
            stacklevel=3,
        )


def mass_term(xi: float, h: float, rho: float, m0: float) -> float:
    """sqrt(xi h rho m0), the sail and payload factor of the optimized regime."""
    return math.sqrt(xi * h * rho * m0)


def optimal_sail_diameter(xi: float, h: float, rho: float, m0: float) -> float:
    """Diameter at which sail mass equals payload mass: sqrt(m0/(xi h rho))."""
    return math.sqrt(m0 / (xi * h * rho))


def sail_mass(xi: float, diameter: float, h: float, rho: float) -> float:
    """Sail mass xi * D^2 * h * rho."""
    return xi * diameter**2 * h * rho


def required_power(beta, wavelength, diffraction_factor, eta, aperture, mass_term) -> float:
    """Main-beam power that reaches beta in the optimized regime:
    P0 = beta^2 * (2 c^3 lambda alpha_d / (eta d)) * sqrt(xi h rho m0)."""
    p0 = beta**2 * (2 * C**3 * wavelength * diffraction_factor) / (eta * aperture) * mass_term
    return check_finite("P0", p0)


def aperture_flux(power: float, array_shape: float, aperture: float) -> float:
    """Main-beam power spread over the array area, P0 / (xi_arr d^2)."""
    return power / (array_shape * aperture**2)


def launch(
    power, aperture, diameter, total_mass, wavelength, diffraction_factor, eta, array_shape
) -> KinematicsResult:
    """Speed v0, time t0 and distance L0 where the diffraction-limited
    spot grows to the sail size, with the coast speed sqrt(2) v0."""
    spot_term = aperture * diameter / (wavelength * diffraction_factor)
    l0 = check_finite("L0", spot_term / 2)
    flux = aperture_flux(power, array_shape, aperture)
    if power == 0:
        return KinematicsResult(0.0, 0.0, None, l0, 0.0, 0.0, flux, total_mass)

    v0 = check_finite("v0", math.sqrt(power * eta * spot_term / (C * total_mass)))
    t0 = check_finite("t0", math.sqrt(C * spot_term * total_mass / (power * eta)))
    beta = v0 / C
    warn_beta(beta)
    return KinematicsResult(v0, beta, t0, l0, math.sqrt(2) * v0, v0 / t0, flux, total_mass)


def beam_energy(beta: float, total_mass: float, eta: float) -> float:
    """Main-beam energy through the acceleration, beta m c^2 / eta."""
    return beta * total_mass * C**2 / eta


def laser_cost(a1: float, power: float, beam_fraction: float) -> float:
    """C1: laser amplifiers, priced per produced optical watt."""
    return a1 * power / beam_fraction


def optics_cost(a2: float, array_shape: float, aperture: float) -> float:
    """C2: optics over the array area xi_arr d^2."""
    return a2 * array_shape * aperture**2


def energy_cost(shots: float, a3: float, beam_energy: float) -> float:
    """C3: grid energy over the amortized shot count."""
    return shots * a3 * beam_energy


def storage_cost(a4: float, beam_energy: float, storage_efficiency: float) -> float:
    """C4: storage capacity for one shot."""
    return a4 * beam_energy / storage_efficiency


def cost_geometry(wavelength, diffraction_factor, array_shape, eta, mass_term) -> float:
    """Geometry factor of the cost optimum, lambda alpha_d / (xi_arr eta) * sqrt(xi h rho m0)."""
    return wavelength * diffraction_factor / (array_shape * eta) * mass_term


def budget_aperture(total_usd: float, a2: float, array_shape: float) -> float:
    """Array size whose optics take a third of the budget, sqrt(C_T / (3 a2 xi_arr))."""
    return math.sqrt(total_usd / (3 * a2 * array_shape))
