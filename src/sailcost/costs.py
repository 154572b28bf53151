"""Separable system cost model: laser + optics + energy + storage,
closed-form cost minimum over the array size, its scaling exponents, and
the laser-cost metric implied by a fixed budget.

The cost along the physics constraint (beam power eliminated in favor of
the array size d at fixed target speed) has the form A/d + B*d^2, so the
stationary point is always a minimum and the laser cost there is exactly
twice the optics cost.
"""

import math

from . import model
from .errors import DomainError, NumericRangeError, ValidationError
from .params import ArraySpec, CostMetrics, Payload, Record, SailSpec
from .scenario import kernel_point
from .units import C


class CostBreakdown(Record):
    """Component costs in USD: laser amplifiers, optics, grid energy over
    the amortized shot count, and energy storage."""

    laser: float
    optics: float
    energy: float = 0.0
    storage: float = 0.0

    @property
    def total(self) -> float:
        return self.laser + self.optics + self.energy + self.storage

    @property
    def zero_total(self) -> bool:
        return self.total == 0

    @property
    def fractions(self) -> tuple[float, float, float, float]:
        """Cost fractions (laser, optics, energy, storage); all zero when
        the total is zero."""
        t = self.total
        if t == 0:
            return (0.0, 0.0, 0.0, 0.0)
        return (self.laser / t, self.optics / t, self.energy / t, self.storage / t)


class OptimumDesign(Record):
    """Cost-optimal array size and beam power with the cost breakdown."""

    aperture: float
    power: float
    breakdown: CostBreakdown
    method: str  # "closed-form" | "numeric"


def reduced_coefficients(
    payload: Payload, sail: SailSpec, array: ArraySpec, metrics: CostMetrics
) -> tuple[float, float, float]:
    """Coefficients (speed_coeff, optics_coeff, beta_coeff) of the
    one-dimensional cost objective along the physics constraint,
    C(d) = speed_coeff * v0^2 / d + optics_coeff * d^2, with beta_coeff
    the beta-normalized variant of speed_coeff."""
    mass_term = model.mass_term(sail.shape_factor, sail.thickness, sail.density, payload.mass)
    speed_coeff = (
        metrics.laser_usd_per_watt
        / array.beam_fraction
        * (2 * C * array.wavelength * array.diffraction_factor)
        / sail.coupling
        * mass_term
    )
    return speed_coeff, metrics.optics_usd_per_m2 * array.shape_factor, speed_coeff * C**2


def shot_beam_energy(beta: float, payload: Payload, sail: SailSpec) -> float:
    """Main-beam energy through the acceleration, optimized regime:
    2 * beta * m0 * c^2 / eta (equals P0*t0)."""
    # beta * (2 m0) equals 2 * beta * m0 exactly: doubling never rounds.
    return model.beam_energy(beta, model.optimized_craft_mass(payload.mass), sail.coupling)


def cost_components(
    array: ArraySpec, accel_time: float | None, metrics: CostMetrics
) -> CostBreakdown:
    """Evaluate the four cost components at the array's explicit design
    point (its power and aperture).

    accel_time None (zero-power design) contributes zero energy cost.
    """
    power, aperture = array.power, array.aperture
    if power is None or aperture is None:
        raise DomainError("array.P0 and array.d required for the cost components")
    beam_energy = 0.0 if accel_time is None else power * accel_time
    return CostBreakdown(*model.cost_terms(
        power, aperture, beam_energy, array.beam_fraction, array.shape_factor,
        metrics.laser_usd_per_watt, metrics.optics_usd_per_m2, metrics.energy_usd_per_joule,
        metrics.storage_usd_per_joule, metrics.storage_efficiency, metrics.shots,
    ))


def require_cost_mode(mode: str) -> None:
    """Cost optimization is defined in the mass-optimized sail regime."""
    if mode != "optimized":
        raise ValidationError("cost optimization is defined in optimized mode")


def closed_form_optimum(
    beta: float, payload: Payload, sail: SailSpec, array: ArraySpec, metrics: CostMetrics
) -> OptimumDesign:
    """Closed-form minimum-cost design for a target speed fraction.

    d* = c beta^{2/3} (a1/(eps_b a2))^{1/3}
         [lambda alpha_d / (xi_arr eta) * sqrt(xi h rho m0)]^{1/3};
    the power follows from the physics constraint at d*.  Energy and
    storage costs are a d-independent addition, so they appear in the
    breakdown but do not move the optimum.
    """
    aperture, power, *terms = model.cost_optimum(**kernel_point(
        model.cost_optimum, payload, sail, array, metrics, beta_target=beta
    ))
    return OptimumDesign(aperture, power, CostBreakdown(*terms), "closed-form")


def cost_scaling_exponents() -> dict[str, dict[str, float]]:
    """Power-law exponents of the closed-form optimum in the target speed
    and the two cost metrics."""
    return {
        "total_cost": {"beta": 4 / 3, "a1": 2 / 3, "a2": 1 / 3},
        "power": {"beta": 4 / 3, "a1": -1 / 3, "a2": 1 / 3},
        "aperture": {"beta": 2 / 3, "a1": 1 / 3, "a2": -1 / 3},
    }


def a1_for_budget(
    total_usd: float,
    beta: float,
    optics_usd_per_m2: float,
    wavelength: float,
    thickness: float,
    density: float,
    payload_mass: float,
    beam_fraction: float = 1.0,
) -> float:
    """Laser cost metric a1 at which the minimum system cost equals the
    budget, for a perfectly reflective sail on a circular array
    (eps_r = 1, alpha_d = 1.22, xi = xi_arr = pi/4).

    Inverts the closed form through d* = sqrt(C_T / (3 a2 xi_arr)):
    a1 = eps_b a2 d*^3 / (c^3 beta^2 G) with
    G = lambda alpha_d / (xi_arr eta) * sqrt(xi h rho m0).
    """
    if total_usd <= 0:
        raise DomainError(f"budget must be > 0 (got {total_usd!r})")
    if not 0 < beta < 1:
        raise DomainError(f"beta must be in (0, 1) (got {beta!r})")
    name = "the laser metric a1 that fits the budget"
    if optics_usd_per_m2 <= 0:
        raise DomainError(f"{name} needs a2 > 0 (got {optics_usd_per_m2!r})")
    xi = xi_arr = math.pi / 4
    eta = 2.0
    alpha_d = 1.22
    aperture = model.budget_aperture(total_usd, optics_usd_per_m2, xi_arr)
    geom = model.cost_geometry(
        wavelength, alpha_d, xi_arr, eta, model.mass_term(xi, thickness, density, payload_mass)
    )
    try:
        a1 = beam_fraction * optics_usd_per_m2 * aperture**3 / (C**3 * beta**2 * geom)
    except OverflowError:
        a1 = math.inf
    model.check_finite(name, a1)
    if a1 <= 0:
        raise NumericRangeError(f"{name} is {a1!r}; inputs out of numeric range")
    return a1

