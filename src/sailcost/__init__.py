"""Techno-economic calculator for beam-driven light-sail launch systems.

Closed-form kinematics and cost optimization for a ground-based laser
array pushing a reflective sail, with an independent numeric optimizer,
per-shot energy accounting, staged-development planning on an
exponential cost-decline curve, and a strict unit-suffixed scenario file
format.  Pure stdlib at runtime.
"""

from .costs import (
    CostBreakdown,
    OptimumDesign,
    a1_for_budget,
    closed_form_optimum,
    cost_components,
    cost_scaling_exponents,
    reduced_coefficients,
    shot_beam_energy,
)
from .energy import ShotEnergy, energy_per_shot, energy_used_lifetime, storage_cost
from .errors import (
    BoundaryOptimumError,
    ConvergenceError,
    DegenerateOptimumError,
    DomainError,
    InfeasibleBudgetError,
    NumericRangeError,
    ParseError,
    SailcostError,
    UnitError,
    ValidationError,
)
from .kinematics import (
    BETA_VALIDITY_LIMIT,
    KinematicsResult,
    aperture_flux,
    kinematics_non_optimized,
    kinematics_optimized,
    optimal_sail_diameter,
    required_power,
    strength_limited_beta,
    strength_limited_geometry,
)
from .optimize import (
    SearchSpec,
    SpeedMaxResult,
    golden_section,
    maximize_speed_fixed_cost,
    minimize_cost_numeric,
    second_derivative_at,
)
from .params import ArraySpec, CostMetrics, Payload, SailSpec
from .roadmap import (
    Stage,
    StagePlan,
    TechCurve,
    designation_label,
    plan_stages,
    project_metric,
    stage_cost_ratio,
    starlight_designation,
    time_of_entry,
)
from .scenario import (
    Scenario,
    SweepSpec,
    dump_scenario,
    load_scenario,
    write_results,
)
from .units import C, from_si, parse_quantity, to_si

__version__ = "0.1.0"

__all__ = [
    "ArraySpec", "BETA_VALIDITY_LIMIT", "BoundaryOptimumError", "C",
    "ConvergenceError", "CostBreakdown", "CostMetrics",
    "DegenerateOptimumError", "DomainError", "InfeasibleBudgetError",
    "KinematicsResult", "NumericRangeError", "OptimumDesign", "ParseError",
    "Payload", "SailSpec", "SailcostError", "Scenario", "SearchSpec",
    "ShotEnergy", "SpeedMaxResult", "Stage", "StagePlan", "SweepSpec",
    "TechCurve", "UnitError", "ValidationError", "a1_for_budget",
    "aperture_flux", "closed_form_optimum", "cost_components",
    "cost_scaling_exponents", "designation_label",
    "dump_scenario", "energy_per_shot", "energy_used_lifetime", "from_si",
    "golden_section", "kinematics_non_optimized", "kinematics_optimized",
    "load_scenario", "maximize_speed_fixed_cost", "minimize_cost_numeric",
    "optimal_sail_diameter", "parse_quantity", "plan_stages",
    "project_metric", "reduced_coefficients", "required_power",
    "second_derivative_at", "shot_beam_energy", "stage_cost_ratio",
    "starlight_designation", "storage_cost", "strength_limited_beta",
    "strength_limited_geometry", "time_of_entry", "to_si", "write_results",
]
