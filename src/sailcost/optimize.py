"""Numeric optimization over the array size: an independent check on the
closed forms (bracket + golden-section minimization of the constrained
cost), the fixed-budget speed maximum, and the analytic cost curvature.
"""

import math
from dataclasses import dataclass

from . import model
from .errors import (
    BoundaryOptimumError,
    ConvergenceError,
    DomainError,
    ValidationError,
)
from .costs import CostBreakdown, OptimumDesign, reduced_coefficients
from .kinematics import required_power_at
from .params import (
    CostMetrics,
    Payload,
    SailSpec,
    check_array,
    check_metrics,
    check_payload,
    check_sail,
)
from .scenario import SWEEP_FIELDS
from .units import C

_INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi

# Fig.-style sweeps span meter-to-10,000-km array sizes; default bounds
# comfortably contain every regime the closed forms produce.
DEFAULT_D_MIN = 1.0
DEFAULT_D_MAX = 1e7
_BRACKET_POINTS = 41


@dataclass(frozen=True)
class SearchSpec:
    """Bounds and tolerances for the one-dimensional search."""

    d_min: float = DEFAULT_D_MIN
    d_max: float = DEFAULT_D_MAX
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.d_min < self.d_max:
            raise DomainError(f"need 0 < d_min < d_max (got {self.d_min!r}, {self.d_max!r})")
        if self.rel_tol <= 0:
            raise DomainError(f"rel_tol must be > 0 (got {self.rel_tol!r})")


@dataclass(frozen=True)
class SpeedMaxResult:
    """Fastest design at a fixed budget: the optics get exactly one third
    of the total cost."""

    aperture: float
    power: float
    beta: float
    breakdown: CostBreakdown


def golden_section(f, lo: float, hi: float, rel_tol: float = 1e-10, max_iter: int = 200) -> float:
    """Minimize a unimodal f on [lo, hi]; returns the interval midpoint
    once its width falls below rel_tol relative to its location.

    Ties and flat stretches resolve toward the smaller argument, so the
    result is deterministic.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * (abs(a) + abs(b)) / 2:
            return (a + b) / 2
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    raise ConvergenceError(f"no convergence in {max_iter} iterations", (a + b) / 2)


def _bracket(f, lo: float, hi: float) -> tuple[float, float]:
    """Locate an interior bracket of the minimum on a geometric grid, or
    report which bound is binding."""
    n = _BRACKET_POINTS
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    values = [f(x) for x in grid]
    best = min(range(n), key=lambda i: (values[i], i))
    if best == 0:
        raise BoundaryOptimumError("lower", lo)
    if best == n - 1:
        raise BoundaryOptimumError("upper", hi)
    return grid[best - 1], grid[best + 1]


def constrained_cost(
    aperture: float,
    beta: float,
    payload: Payload,
    sail: SailSpec,
    wavelength: float,
    diffraction_factor: float,
    array_shape: float,
    beam_fraction: float,
    metrics: CostMetrics,
) -> CostBreakdown:
    """Cost of hitting the target speed with a given array size; the beam
    power follows from the physics constraint."""
    check_array(wavelength, diffraction_factor, array_shape, beam_fraction, aperture)
    return constrained_design(
        aperture, beta, payload, sail, wavelength, diffraction_factor,
        array_shape, beam_fraction, metrics,
    )[1]


def constrained_design(
    aperture, beta, payload: Payload, sail: SailSpec, wavelength, diffraction_factor,
    array_shape, beam_fraction, metrics: CostMetrics,
) -> tuple[float, CostBreakdown]:
    """Beam power and cost breakdown along the physics path (power, then
    kinematics, then costs) for array fields the caller has validated."""
    power, *terms = model.fixed_aperture_design(
        aperture, beta, payload.mass, sail.thickness, sail.density, sail.shape_factor,
        sail.diameter, sail.coupling, wavelength, diffraction_factor, array_shape,
        beam_fraction, metrics.laser_usd_per_watt, metrics.optics_usd_per_m2,
        metrics.energy_usd_per_joule, metrics.storage_usd_per_joule,
        metrics.storage_efficiency, metrics.shots,
    )
    return power, CostBreakdown(*terms)


def minimize_cost_numeric(
    beta: float,
    payload: Payload,
    sail: SailSpec,
    wavelength: float,
    diffraction_factor: float,
    array_shape: float,
    beam_fraction: float,
    metrics: CostMetrics,
    search: SearchSpec | None = None,
) -> OptimumDesign:
    """Minimize the constrained cost over the array size by bracketing on
    a geometric grid and refining with golden-section."""
    search = search or SearchSpec()

    def objective(d: float) -> float:
        return constrained_cost(
            d, beta, payload, sail, wavelength, diffraction_factor,
            array_shape, beam_fraction, metrics,
        ).total

    lo, hi = _bracket(objective, search.d_min, search.d_max)
    aperture = golden_section(objective, lo, hi, search.rel_tol, search.max_iter)
    power = required_power_at(beta, aperture, sail, payload, wavelength, diffraction_factor)
    breakdown = constrained_cost(
        aperture, beta, payload, sail, wavelength, diffraction_factor,
        array_shape, beam_fraction, metrics,
    )
    coefficients = reduced_coefficients(
        sail, payload, wavelength, diffraction_factor, array_shape, beam_fraction, metrics
    )
    return OptimumDesign(aperture, power, breakdown, "numeric", *coefficients)


def maximize_speed_fixed_cost(
    total_usd: float,
    payload: Payload,
    sail: SailSpec,
    wavelength: float,
    diffraction_factor: float,
    array_shape: float,
    beam_fraction: float,
    metrics: CostMetrics,
) -> SpeedMaxResult:
    """Fastest reachable speed when the laser + optics budget is fixed.

    The speed-vs-size curve beta^2(d) ~ C_T d - a2 xi_arr d^3 peaks at
    d* = sqrt(C_T / (3 a2 xi_arr)); the leftover budget buys the power.
    """
    check_array(wavelength, diffraction_factor, array_shape, beam_fraction)
    aperture, power, beta, laser, optics = model.budget_design(
        total_usd, payload.mass, sail.thickness, sail.density, sail.shape_factor,
        sail.diameter, sail.coupling, wavelength, diffraction_factor, array_shape,
        beam_fraction, metrics.laser_usd_per_watt, metrics.optics_usd_per_m2,
    )
    return SpeedMaxResult(
        aperture=aperture, power=power, beta=beta,
        breakdown=CostBreakdown(laser=laser, optics=optics),
    )


def second_derivative_at(
    aperture: float,
    beta: float,
    payload: Payload,
    sail: SailSpec,
    wavelength: float,
    diffraction_factor: float,
    array_shape: float,
    beam_fraction: float,
    metrics: CostMetrics,
) -> float:
    """Analytic curvature of the constrained cost in the array size:
    2 * beta_coeff * beta^2 / d^3 + 2 * a2 * xi_arr.  Always positive, so
    the stationary point is always a minimum."""
    if aperture <= 0:
        raise DomainError(f"d must be > 0 (got {aperture!r})")
    _, optics_coeff, beta_coeff = reduced_coefficients(
        sail, payload, wavelength, diffraction_factor, array_shape, beam_fraction, metrics
    )
    return 2 * beta_coeff * beta**2 / aperture**3 + 2 * optics_coeff


def speed_curve_fixed_cost(
    total_usd: float,
    aperture: float,
    sail: SailSpec,
    payload: Payload,
    wavelength: float,
    diffraction_factor: float,
    array_shape: float,
    beam_fraction: float,
    metrics: CostMetrics,
) -> float:
    """beta^2 attainable at a given array size under a fixed budget; the
    independent scan used to verify the speed maximum."""
    mass_term = model.mass_term(sail.shape_factor, sail.thickness, sail.density, payload.mass)
    numer = sail.coupling * (
        total_usd * aperture - metrics.optics_usd_per_m2 * array_shape * aperture**3
    )
    denom = (
        2
        * C**3
        * wavelength
        * diffraction_factor
        * (metrics.laser_usd_per_watt / beam_fraction)
        * mass_term
    )
    return numer / denom


def require_cost_mode(mode: str) -> None:
    """Cost optimization is defined in the mass-optimized sail regime."""
    if mode != "optimized":
        raise ValidationError("cost optimization is defined in optimized mode")


# The float check of each parameter record, by its Scenario attribute.
_RECORD_CHECKS = {
    "payload": check_payload, "sail": check_sail, "array": check_array, "metrics": check_metrics,
}
_SWEEP_COLUMNS = "d_m,P0_W,C1,C2,C3,C4,C_T,F_ap\n"
# Fields the kernel of a sweep path never reads, by the target that
# selects the path: their rows would differ only in the swept column.
# Under target.beta0 this is the closed-form re-optimization (array.d
# is read: it selects the fixed-aperture path).
_UNREAD_FIELDS = {
    "target.beta0": frozenset({"sail.D", "sail.S_y", "sail.s", "array.P0", "target.budget"}),
    "target.budget": frozenset({
        "sail.S_y", "sail.s", "array.P0",
        "metrics.a3", "metrics.a4", "metrics.eps_storage", "metrics.N_shot",
    }),
}


def sweep_lines(scenario, axis: str, grid) -> list[str]:
    """CSV lines of a sweep of one scenario field over ``grid`` (SI
    values), each ending in a newline: the header, then one row per
    value.

    Under a speed target an ``array.d`` sweep holds the target at each
    aperture and any other field re-optimizes in closed form; under a
    budget each point is the speed maximum.  A field the chosen path
    never reads is rejected.  Each value first gets the check of its
    record, so a bad value fails as the record would.  The rows come
    straight from the ``model`` kernels on floats: no record is built
    per point, and each row is kept only as its formatted line.
    """
    _, group, attr = SWEEP_FIELDS[axis]
    fields = {name: dict(vars(getattr(scenario, name))) for name in _RECORD_CHECKS}
    payload, sail, array, metrics = fields.values()
    fields[None] = target = {
        "beta_target": scenario.beta_target, "budget_target": scenario.budget_target,
    }
    swept, check = fields[group], _RECORD_CHECKS.get(group)
    at_speed = target["beta_target"] is not None or axis == "target.beta0"
    fixed_aperture = axis == "array.d"
    if fixed_aperture and not at_speed:
        raise ValidationError(
            "sweep: array.d cannot be swept under target.budget, which sets the array size"
        )
    path_target = "target.beta0" if at_speed else "target.budget"
    if axis in _UNREAD_FIELDS[path_target]:
        raise ValidationError(
            f"sweep: {axis} cannot be swept under {path_target}: the rows do not depend on it"
        )
    lines = [_SWEEP_COLUMNS if fixed_aperture else f"{axis},{_SWEEP_COLUMNS}"]
    prefix = ""
    for value in grid:
        swept[attr] = value
        if check is not None:
            check(**swept)
        m0, h, rho, xi = payload["mass"], sail["thickness"], sail["density"], sail["shape_factor"]
        eta = model.coupling(sail["reflectivity"], sail["absorptivity"])
        wavelength, alpha_d = array["wavelength"], array["diffraction_factor"]
        array_shape, beam_fraction = array["shape_factor"], array["beam_fraction"]
        a1, a2 = metrics["laser_usd_per_watt"], metrics["optics_usd_per_m2"]
        unit_costs = (
            a1, a2, metrics["energy_usd_per_joule"], metrics["storage_usd_per_joule"],
            metrics["storage_efficiency"], metrics["shots"],
        )
        if not at_speed:
            aperture, power, _, c1, c2 = model.budget_design(
                target["budget_target"], m0, h, rho, xi, sail["diameter"], eta, wavelength,
                alpha_d, array_shape, beam_fraction, a1, a2,
            )
            c3 = c4 = 0.0
        elif fixed_aperture:
            aperture = value
            power, c1, c2, c3, c4 = model.fixed_aperture_design(
                value, target["beta_target"], m0, h, rho, xi, sail["diameter"], eta,
                wavelength, alpha_d, array_shape, beam_fraction, *unit_costs,
            )
        elif scenario.mode != "optimized":
            require_cost_mode(scenario.mode)  # raises
        else:
            aperture, power, c1, c2, c3, c4 = model.cost_optimum(
                target["beta_target"], m0, h, rho, xi, eta, wavelength, alpha_d,
                array_shape, beam_fraction, *unit_costs,
            )
        flux = model.aperture_flux(power, array_shape, aperture)
        if not fixed_aperture:
            prefix = f"{value!r},"
        lines.append(
            f"{prefix}{aperture!r},{power!r},{c1!r},{c2!r},{c3!r},{c4!r},"
            f"{c1 + c2 + c3 + c4!r},{flux!r}\n"
        )
    return lines
