"""Separable system cost model: laser + optics + energy + storage, the
closed-form cost minimum over the array size, and the laser-cost metric
implied by a fixed budget.

The cost along the physics constraint (beam power eliminated in favor of
the array size d at fixed target speed) has the form A/d + B*d^2, so the
stationary point is always a minimum and the laser cost there is exactly
twice the optics cost.
"""

from . import model
from .errors import DomainError, ValidationError
from .kinematics import warn_beta
from .params import ArraySpec, CostMetrics, Payload, Record, SailSpec
from .scenario import kernel_point


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


def cost_components(
    array: ArraySpec, accel_time: float | None, metrics: CostMetrics
) -> CostBreakdown:
    """Evaluate the four cost components at the array's explicit design
    point (its power and aperture).

    accel_time None (zero-power design) contributes zero energy cost.
    """
    power = array.power
    if power is None or array.aperture is None:
        raise DomainError("array.P0 and array.d required for the cost components")
    beam_energy = 0.0 if accel_time is None else power * accel_time
    return CostBreakdown(*model.cost_terms(**kernel_point(
        model.cost_terms, array=array, metrics=metrics, beam_energy=beam_energy
    )))


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
    breakdown but do not move the optimum.  The optimum is that of the
    optimized regime, so a sail with a given diameter is refused
    (``DomainError``).
    """
    aperture, power, _, *terms = model.cost_optimum(**kernel_point(
        model.cost_optimum, payload, sail, array, metrics, beta=beta
    ))
    warn_beta(beta)
    return OptimumDesign(aperture, power, CostBreakdown(*terms), "closed-form")


def a1_for_budget(
    total_usd: float, beta: float, payload: Payload, sail: SailSpec, array: ArraySpec,
    metrics: CostMetrics,
) -> float:
    """Laser cost metric a1 at which the closed-form minimum cost for beta
    equals the budget; ``metrics.a1`` is not read.  The optimum is that of
    the optimized regime, so a sail with a given diameter is refused
    (``DomainError``)."""
    return model.budget_laser_metric(**kernel_point(
        model.budget_laser_metric, payload, sail, array, metrics, beta=beta, total_usd=total_usd
    ))
