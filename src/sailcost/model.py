"""The model's closed forms on plain floats, each written once: the
physics path (power, then kinematics, then costs), every formula more
than one function evaluates, the strength-limited sail sizing, one
function for each sweep path (the closed-form cost optimum, a fixed
array size, a fixed budget), and the budget inversion of the staged
roadmap.  Arguments are SI floats: each parameter record checks its own
fields when built, the public functions read them in through
``scenario.kernel_point``, and a sweep checks a swept value by
rebuilding its record with it, so no kernel revalidates a record.
"""

import math

from .errors import (
    DegenerateOptimumError,
    DomainError,
    InfeasibleBudgetError,
    NumericRangeError,
    ValidationError,
)
from .units import C


def require(cond: bool, name: str, constraint: str, value) -> None:
    if not cond:
        raise ValidationError(f"{name}: must satisfy {constraint} (got {value!r})")


def check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise NumericRangeError(f"{name} is non-finite; inputs out of numeric range")
    return value


def check_positive(name: str, value: float) -> float:
    """``value``, a size the model derives, which must be > 0: only inputs
    out of numeric range make it zero, negative or NaN."""
    if not value > 0:
        raise NumericRangeError(f"{name} is {value!r}; inputs out of numeric range")
    return value


def check_beta(beta: float) -> None:
    """Refuse a speed at or past light speed.  No kernel warns: the public
    functions warn at ``kinematics.BETA_VALIDITY_LIMIT``."""
    if beta >= 1:
        raise DomainError(f"beta = {beta:.4g} >= 1: beyond any validity of the model")


def coupling(reflectivity: float, absorptivity: float) -> float:
    """Momentum coupling eta = 2 eps_r + (1 - eps_r) alpha: 2 for a perfect
    reflector, 1 for a perfect absorber."""
    return 2 * reflectivity + (1 - reflectivity) * absorptivity


def mass_term(xi: float, h: float, rho: float, m0: float) -> float:
    """sqrt(xi h rho m0), the sail and payload factor of the optimized regime."""
    return math.sqrt(xi * h * rho * m0)


def optimal_sail_diameter(xi: float, h: float, rho: float, m0: float) -> float:
    """Diameter at which sail mass equals payload mass: sqrt(m0/(xi h rho))."""
    return math.sqrt(m0 / (xi * h * rho))


def sail_mass(xi: float, diameter: float, h: float, rho: float) -> float:
    """Sail mass xi * D^2 * h * rho."""
    return xi * diameter**2 * h * rho


def optimized_craft_mass(m0: float) -> float:
    """Sail plus payload in the mass-optimized regime, where the sail
    weighs as much as the payload: 2 m0."""
    return 2 * m0


def required_power(beta, wavelength, diffraction_factor, eta, aperture, mass_term) -> float:
    """Main-beam power that reaches beta in the optimized regime:
    P0 = beta^2 * (2 c^3 lambda alpha_d / (eta d)) * sqrt(xi h rho m0)."""
    if beta < 0:
        raise DomainError(f"beta target must be >= 0 (got {beta!r})")
    check_beta(beta)
    p0 = beta**2 * (2 * C**3 * wavelength * diffraction_factor) / (eta * aperture) * mass_term
    return check_finite("P0", p0)


def aperture_flux(power: float, array_shape: float, aperture: float) -> float:
    """Main-beam power spread over the array area, P0 / (xi_arr d^2)."""
    return power / (array_shape * aperture**2)


def launch(
    power, aperture, sail_diameter, m0, h, rho, xi, eta, wavelength, diffraction_factor, array_shape
) -> tuple:
    """Speed v0, time t0 and distance L0 where the diffraction-limited
    spot grows to the sail size, with the coast speed sqrt(2) v0:
    (v0, beta, t0, L0, v_inf, mean_accel, flux, total_mass), the fields
    of ``kinematics.KinematicsResult`` in order, for the sail of the given
    diameter plus the payload; t0 is None at zero power."""
    total_mass = sail_mass(xi, sail_diameter, h, rho) + m0
    spot_term = aperture * sail_diameter / (wavelength * diffraction_factor)
    l0 = check_finite("L0", spot_term / 2)
    flux = aperture_flux(power, array_shape, aperture)
    if power == 0:
        return 0.0, 0.0, None, l0, 0.0, 0.0, flux, total_mass

    v0 = math.sqrt(power * eta * spot_term / (C * total_mass))
    v0 = check_positive("v0", check_finite("v0", v0))
    t0 = math.sqrt(C * spot_term * total_mass / (power * eta))
    t0 = check_positive("t0", check_finite("t0", t0))
    beta = v0 / C
    check_beta(beta)
    return v0, beta, t0, l0, math.sqrt(2) * v0, v0 / t0, flux, total_mass


def refuse_sail_diameter(sail_diameter) -> None:
    """The optimized regime derives the sail diameter, so a given one is an error."""
    if sail_diameter is not None:
        raise DomainError("sail.D must be absent in the optimized regime (it is derived)")


def optimized_launch(
    power, aperture, sail_diameter, m0, h, rho, xi, eta, wavelength, diffraction_factor, array_shape
) -> tuple:
    """``launch`` in the mass-optimized regime, where the sail diameter is
    derived (sail mass = payload mass), so a given ``sail_diameter`` is an
    error."""
    refuse_sail_diameter(sail_diameter)
    diameter = check_positive("D", optimal_sail_diameter(xi, h, rho, m0))
    return launch(
        power, aperture, diameter, m0, h, rho, xi, eta, wavelength, diffraction_factor, array_shape
    )


def strength_limited_geometry(power, m0, rho, eta, yield_strength, stress_factor) -> tuple:
    """Sail (diameter, thickness) set by the material yield strength: the
    stress-limited thickness h = s P0 eta / (pi D c S_y) together with the
    mass-optimized condition m0 = xi D^2 h rho at xi = pi/4."""
    if yield_strength is None:
        raise DomainError("sail.S_y required for the strength-limited geometry")
    if power <= 0:
        raise DomainError(f"P0 must be > 0 (got {power!r})")
    diameter = check_finite("D", 4 * m0 * C * yield_strength / (rho * stress_factor * power * eta))
    h = stress_factor * power * eta / (math.pi * check_positive("D", diameter) * C * yield_strength)
    return diameter, check_positive("h", check_finite("h", h))


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


def storage_energy(beam_energy: float, storage_efficiency: float) -> float:
    """Storage capacity for one shot, efficiency-adjusted: E / eps_storage."""
    return beam_energy / storage_efficiency


def storage_cost(a4: float, beam_energy: float, storage_efficiency: float) -> float:
    """C4: storage capacity for one shot."""
    return a4 * storage_energy(beam_energy, storage_efficiency)


def cost_terms(
    power, aperture, beam_energy, beam_fraction, array_shape, a1, a2, a3, a4,
    storage_efficiency, shots,
) -> tuple[float, float, float, float]:
    """The four cost components (laser, optics, energy, storage) at a design point."""
    return (
        laser_cost(a1, power, beam_fraction),
        optics_cost(a2, array_shape, aperture),
        energy_cost(shots, a3, beam_energy),
        storage_cost(a4, beam_energy, storage_efficiency),
    )


def cost_geometry(wavelength, diffraction_factor, array_shape, eta, mass_term) -> float:
    """Geometry factor of the cost optimum, lambda alpha_d / (xi_arr eta) * sqrt(xi h rho m0)."""
    return wavelength * diffraction_factor / (array_shape * eta) * mass_term


def budget_aperture(total_usd: float, a2: float, array_shape: float) -> float:
    """Array size whose optics take a third of the budget, sqrt(C_T / (3 a2 xi_arr))."""
    return math.sqrt(total_usd / (3 * a2 * array_shape))


# The path kernels, called with the point that scenario.kernel_point
# builds: each parameter is a kernel name of scenario.FIELDS.  The record
# functions closed_form_optimum, constrained_cost,
# maximize_speed_fixed_cost and a1_for_budget wrap them.


def cost_optimum(
    beta, m0, h, rho, xi, sail_diameter, reflectivity, absorptivity, wavelength,
    diffraction_factor, array_shape, beam_fraction, a1, a2, a3, a4, storage_efficiency, shots,
) -> tuple[float, float, float, float, float, float, float]:
    """Closed-form minimum-cost design for a target speed fraction:
    (d*, P0, beta, C1, C2, C3, C4), beta as given, with
    d* = c beta^{2/3} (a1/(eps_b a2))^{1/3} (cost_geometry)^{1/3} and the
    power from the physics constraint at d*.  The energy and storage
    terms use the closed-form beam energy of a 2 m0 craft.  The optimum
    is that of the optimized regime, so a given ``sail_diameter`` is an
    error."""
    refuse_sail_diameter(sail_diameter)
    if not 0 < beta < 1:
        raise DomainError(f"beta must be in (0, 1) (got {beta!r})")
    if a1 == 0 or a2 == 0:
        raise DegenerateOptimumError(
            "closed-form optimum needs a1 > 0 and a2 > 0; the minimum is at a "
            "boundary otherwise"
        )
    eta = coupling(reflectivity, absorptivity)
    mass = mass_term(xi, h, rho, m0)
    geom = cost_geometry(wavelength, diffraction_factor, array_shape, eta, mass)
    ratio = a1 / (beam_fraction * a2)
    # An infinite d* reaches the checks of P0, L0 or the output, which report it.
    aperture = check_positive("d*", C * beta ** (2 / 3) * (ratio * geom) ** (1 / 3))
    power = required_power(beta, wavelength, diffraction_factor, eta, aperture, mass)
    energy = beam_energy(beta, optimized_craft_mass(m0), eta)
    return (aperture, power, beta) + cost_terms(
        power, aperture, energy, beam_fraction, array_shape, a1, a2, a3, a4,
        storage_efficiency, shots,
    )


def fixed_aperture_design(
    aperture, beta, m0, h, rho, xi, sail_diameter, reflectivity, absorptivity, wavelength,
    diffraction_factor, array_shape, beam_fraction, a1, a2, a3, a4, storage_efficiency, shots,
) -> tuple[float, float, float, float, float, float, float]:
    """(d, P0, beta, C1, C2, C3, C4) of reaching beta with a given array
    size d, beta as given, along the physics path: the required power,
    then the kinematics, then the costs with the beam energy P0 t0."""
    eta = coupling(reflectivity, absorptivity)
    power = required_power(
        beta, wavelength, diffraction_factor, eta, aperture, mass_term(xi, h, rho, m0)
    )
    _, _, accel_time, *_ = optimized_launch(
        power, aperture, sail_diameter, m0, h, rho, xi, eta, wavelength, diffraction_factor,
        array_shape,
    )
    energy = 0.0 if accel_time is None else power * accel_time
    return (aperture, power, beta) + cost_terms(
        power, aperture, energy, beam_fraction, array_shape, a1, a2, a3, a4,
        storage_efficiency, shots,
    )


def budget_design(
    total_usd, m0, h, rho, xi, sail_diameter, reflectivity, absorptivity, wavelength,
    diffraction_factor, array_shape, beam_fraction, a1, a2,
) -> tuple[float, float, float, float, float, float, float]:
    """Fastest design when the laser + optics budget is fixed:
    (d*, P0, beta, C1, C2, C3, C4), beta the speed reached.  The
    speed-vs-size curve beta^2(d) ~ C_T d - a2 xi_arr d^3 peaks at
    d* = sqrt(C_T / (3 a2 xi_arr)); the leftover budget buys the power.
    It takes no energy parameters, so C3 = C4 = 0."""
    if total_usd <= 0:
        raise InfeasibleBudgetError(
            f"budget must be > 0 for any positive beam power (got {total_usd!r})"
        )
    if a1 <= 0 or a2 <= 0:
        raise DomainError("fixed-budget speed maximum needs a1 > 0 and a2 > 0")
    aperture = budget_aperture(total_usd, a2, array_shape)
    aperture = check_positive("d*", check_finite("d*", aperture))
    optics = optics_cost(a2, array_shape, aperture)
    power = beam_fraction * (total_usd - optics) / a1
    if not power >= 0:
        raise NumericRangeError(f"P0 is {power!r}; inputs out of numeric range")
    _, beta, *_ = optimized_launch(
        power, aperture, sail_diameter, m0, h, rho, xi, coupling(reflectivity, absorptivity),
        wavelength, diffraction_factor, array_shape,
    )
    return aperture, power, beta, laser_cost(a1, power, beam_fraction), optics, 0.0, 0.0


def budget_laser_metric(
    total_usd, beta, m0, h, rho, xi, sail_diameter, reflectivity, absorptivity, wavelength,
    diffraction_factor, array_shape, beam_fraction, a2, a3, a4, storage_efficiency, shots,
) -> float:
    """Laser cost metric a1 at which the closed-form minimum cost for beta
    equals the budget C_T.  At the optimum C3 + C4 depend on neither d nor
    a1, and C1 = 2 C2, so the optics take a third of the remainder:
    d* = sqrt((C_T - C3 - C4) / (3 a2 xi_arr)) and
    a1 = eps_b a2 d*^3 / (c^3 beta^2 cost_geometry).  The optimum is that
    of the optimized regime, so a given ``sail_diameter`` is an error."""
    refuse_sail_diameter(sail_diameter)
    if total_usd <= 0:
        raise DomainError(f"budget must be > 0 (got {total_usd!r})")
    if not 0 < beta < 1:
        raise DomainError(f"beta must be in (0, 1) (got {beta!r})")
    name = "the laser metric a1 that fits the budget"
    if a2 <= 0:
        raise DomainError(f"{name} needs a2 > 0 (got {a2!r})")
    eta = coupling(reflectivity, absorptivity)
    energy = beam_energy(beta, optimized_craft_mass(m0), eta)
    energy_side = energy_cost(shots, a3, energy) + storage_cost(a4, energy, storage_efficiency)
    remainder = total_usd - energy_side
    if remainder <= 0:
        raise InfeasibleBudgetError(
            f"energy and storage at beta = {beta!r} cost {energy_side!r} USD; the budget "
            f"of {total_usd!r} USD leaves nothing for the laser and optics"
        )
    try:
        aperture = budget_aperture(remainder, a2, array_shape)
        geom = cost_geometry(
            wavelength, diffraction_factor, array_shape, eta, mass_term(xi, h, rho, m0)
        )
        a1 = beam_fraction * a2 * aperture**3 / (C**3 * beta**2 * geom)
    except (OverflowError, ZeroDivisionError):
        a1 = math.inf
    return check_positive(name, check_finite(name, a1))
