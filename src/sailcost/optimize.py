"""Numeric optimization over the array size: an independent check on the
closed forms (bracket + golden-section minimization of the constrained
cost), the fixed-budget speed maximum, and the analytic cost curvature.
"""

import math
from contextlib import suppress

from . import model
from .errors import (
    BoundaryOptimumError,
    ConvergenceError,
    DomainError,
    NumericRangeError,
    ValidationError,
)
from .costs import CostBreakdown, OptimumDesign, reduced_coefficients, require_cost_mode
from .params import (
    ArraySpec,
    CostMetrics,
    Payload,
    Record,
    SailSpec,
    check_array,
    check_metrics,
    check_payload,
    check_sail,
)
from .scenario import SWEEP_FIELDS, kernel_point

_INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi

# Fig.-style sweeps span meter-to-10,000-km array sizes; default bounds
# comfortably contain every regime the closed forms produce.
DEFAULT_D_MIN = 1.0
DEFAULT_D_MAX = 1e7
_BRACKET_POINTS = 41


class SearchSpec(Record):
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


class SpeedMaxResult(Record):
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
    array: ArraySpec,
    metrics: CostMetrics,
) -> CostBreakdown:
    """Cost of hitting the target speed with a given array size, along the
    physics path (power, then kinematics, then costs); the array's own
    aperture, if any, is not used."""
    args = kernel_point(
        model.fixed_aperture_design, payload, sail, array, metrics, beta_target=beta
    )
    model.require(aperture > 0, "array.d", "d > 0", aperture)
    args["aperture"] = aperture
    return CostBreakdown(*model.fixed_aperture_design(**args)[2:])


def minimize_cost_numeric(
    beta: float,
    payload: Payload,
    sail: SailSpec,
    array: ArraySpec,
    metrics: CostMetrics,
    search: SearchSpec | None = None,
) -> OptimumDesign:
    """Minimize the constrained cost over the array size by bracketing on
    a geometric grid and refining with golden-section.  The kernel's
    arguments are built once, before the search: every evaluated size
    lies inside the search bounds, which ``SearchSpec`` keeps positive,
    and an evaluation, the final one at the optimum included, changes
    only the array size in those arguments."""
    search = search or SearchSpec()
    args = kernel_point(
        model.fixed_aperture_design, payload, sail, array, metrics, beta_target=beta
    )
    point, slot = list(args.values()), list(args).index("aperture")

    def objective(d: float) -> float:
        point[slot] = d
        _, _, laser, optics, energy, storage = model.fixed_aperture_design(*point)
        return laser + optics + energy + storage

    lo, hi = _bracket(objective, search.d_min, search.d_max)
    point[slot] = golden_section(objective, lo, hi, search.rel_tol, search.max_iter)
    aperture, power, *terms = model.fixed_aperture_design(*point)
    return OptimumDesign(aperture, power, CostBreakdown(*terms), "numeric")


def maximize_speed_fixed_cost(
    total_usd: float, payload: Payload, sail: SailSpec, array: ArraySpec, metrics: CostMetrics
) -> SpeedMaxResult:
    """Fastest reachable speed when the laser + optics budget is fixed.

    The speed-vs-size curve beta^2(d) ~ C_T d - a2 xi_arr d^3 peaks at
    d* = sqrt(C_T / (3 a2 xi_arr)); the leftover budget buys the power.
    """
    aperture, power, beta, laser, optics = model.budget_design(**kernel_point(
        model.budget_design, payload, sail, array, metrics, budget_target=total_usd
    ))
    return SpeedMaxResult(
        aperture=aperture, power=power, beta=beta,
        breakdown=CostBreakdown(laser=laser, optics=optics),
    )


def second_derivative_at(
    aperture: float,
    beta: float,
    payload: Payload,
    sail: SailSpec,
    array: ArraySpec,
    metrics: CostMetrics,
) -> float:
    """Analytic curvature of the constrained cost in the array size:
    2 * beta_coeff * beta^2 / d^3 + 2 * a2 * xi_arr.  Always positive, so
    the stationary point is always a minimum."""
    if aperture <= 0:
        raise DomainError(f"d must be > 0 (got {aperture!r})")
    _, optics_coeff, beta_coeff = reduced_coefficients(payload, sail, array, metrics)
    return 2 * beta_coeff * beta**2 / aperture**3 + 2 * optics_coeff


def speed_curve_fixed_cost(
    total_usd: float,
    aperture: float,
    payload: Payload,
    sail: SailSpec,
    array: ArraySpec,
    metrics: CostMetrics,
) -> float:
    """beta^2 attainable at a given array size under a fixed budget; the
    independent scan used to verify the speed maximum."""
    _, optics_coeff, beta_coeff = reduced_coefficients(payload, sail, array, metrics)
    return (total_usd * aperture - optics_coeff * aperture**3) / beta_coeff


# The float check of each parameter record, by its Scenario attribute.
_RECORD_CHECKS = {
    "payload": check_payload, "sail": check_sail, "array": check_array, "metrics": check_metrics,
}
_SWEEP_COLUMNS = "d_m,P0_W,C1,C2,C3,C4,C_T,F_ap"


def sweep_lines(scenario, axis: str, grid: list[float]) -> list[str]:
    """CSV lines of a sweep of one scenario field over ``grid`` (a list
    of SI values), each ending in a newline: the header, then one row per
    value.

    Under a speed target an ``array.d`` sweep holds the target at each
    aperture (``model.fixed_aperture_design``) and any other field
    re-optimizes in closed form (``model.cost_optimum``); under a budget
    each point is the speed maximum (``model.budget_design``), and its
    row ends in the speed it reaches, ``beta0``.  Every path is defined
    in optimized mode only, and a field is rejected when the path's
    kernel has no parameter by its kernel name in ``scenario.FIELDS``.
    The kernel's arguments are built once, as a list in its parameter
    order, and per point only the swept slot is set.  A swept value gets
    the check of its record, so a bad value fails as the record would.
    Each check accepts an interval of each single field and refuses NaN,
    so a grid without NaN whose least and greatest values pass is checked
    only there.  No record is built per point, and each row is kept only
    as its formatted line.
    """
    require_cost_mode(scenario.mode)
    _, group, attr, name = SWEEP_FIELDS[axis]
    at_speed = scenario.beta_target is not None or axis == "target.beta0"
    fixed_aperture = axis == "array.d"
    if fixed_aperture and not at_speed:
        raise ValidationError(
            "sweep: array.d cannot be swept under target.budget, which sets the array size"
        )
    if not at_speed:
        kernel = model.budget_design
    elif fixed_aperture:
        kernel = model.fixed_aperture_design
    else:
        kernel = model.cost_optimum
    args = kernel_point(
        kernel, scenario.payload, scenario.sail, scenario.array, scenario.metrics,
        beta_target=scenario.beta_target, budget_target=scenario.budget_target,
    )
    if name not in args:
        path_target = "target.beta0" if at_speed else "target.budget"
        raise ValidationError(
            f"sweep: {axis} cannot be swept under {path_target}: the rows do not depend on it"
        )
    point, names = list(args.values()), list(args)
    slot, shape = names.index(name), names.index("array_shape")
    check = _RECORD_CHECKS.get(group)
    swept = dict(vars(getattr(scenario, group))) if check else None
    if check and grid and all(value == value for value in grid):
        with suppress(ValidationError):  # a bound is crossed: check per point
            for value in (min(grid), max(grid)):
                swept[attr] = value
                check(**swept)
            check = None
    header = _SWEEP_COLUMNS if fixed_aperture else f"{axis},{_SWEEP_COLUMNS}"
    lines = [f"{header}\n" if at_speed else f"{header},beta0\n"]
    prefix = suffix = ""
    isfinite = math.isfinite
    for value in grid:
        if check is not None:
            swept[attr] = value
            check(**swept)
        point[slot] = value
        if at_speed:
            aperture, power, c1, c2, c3, c4 = kernel(*point)
        else:
            aperture, power, beta, c1, c2 = kernel(*point)
            c3 = c4 = 0.0
            suffix = f",{beta!r}"
        if not fixed_aperture:
            prefix = f"{value!r},"
        total = c1 + c2 + c3 + c4
        flux = model.aperture_flux(power, point[shape], aperture)
        # No cost term is negative, so a finite total means finite terms.
        if not (isfinite(total) and isfinite(flux) and isfinite(power) and isfinite(aperture)):
            raise NumericRangeError(
                f"sweep: the row at {axis} = {value!r} is non-finite; inputs out of numeric range"
            )
        lines.append(
            f"{prefix}{aperture!r},{power!r},{c1!r},{c2!r},{c3!r},{c4!r},"
            f"{total!r},{flux!r}{suffix}\n"
        )
    return lines
