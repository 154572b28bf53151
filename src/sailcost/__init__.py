"""Techno-economic calculator for beam-driven light-sail launch systems.

Closed-form kinematics and cost optimization for a ground-based laser
array pushing a reflective sail, with an independent numeric optimizer,
per-shot energy accounting, staged-development planning on an
exponential cost-decline curve, and a strict unit-suffixed scenario file
format.  Pure stdlib at runtime.

The public names load on first use (PEP 562), so importing the package,
or one submodule such as the CLI, compiles only the modules that are
needed.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining submodule -> the public names it exports.
_EXPORTS = {
    "costs": (
        "CostBreakdown", "OptimumDesign", "a1_for_budget", "closed_form_optimum",
        "cost_components", "maximize_speed_fixed_cost",
    ),
    "energy": ("ShotEnergy", "energy_per_shot", "energy_used_lifetime", "storage_cost"),
    "errors": (
        "BoundaryOptimumError", "ConvergenceError", "DegenerateOptimumError",
        "DomainError", "InfeasibleBudgetError", "NumericRangeError", "ParseError",
        "SailcostError", "UnitError", "ValidationError",
    ),
    "kinematics": (
        "BETA_VALIDITY_LIMIT", "KinematicsResult", "kinematics_non_optimized",
        "kinematics_optimized", "optimal_sail_diameter", "strength_limited_geometry",
    ),
    "optimize": ("golden_section", "minimize_cost_numeric", "second_derivative_at"),
    "params": ("ArraySpec", "CostMetrics", "Payload", "SailSpec"),
    "roadmap": ("Stage", "StagePlan", "plan_stages", "stage_cost_ratio"),
    "scenario": ("Scenario", "SweepSpec", "TechCurve", "dump_scenario", "load_scenario"),
    "units": ("C", "parse_quantity", "to_si"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
