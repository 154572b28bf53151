"""Staged-development planning: Starlight-x stage designations, the
stage-to-stage cost ratio, exponential cost-metric projection, and the
earliest affordable entry date for a milestone under a budget.

Dates are month indices from a configurable epoch; the halving law is
specified in months, so no calendar arithmetic is needed.
"""

import math
import warnings

from .errors import DomainError
from .costs import a1_for_budget, closed_form_optimum, OptimumDesign
from .params import ArraySpec, CostMetrics, Payload, Record, SailSpec
from .scenario import TechCurve

BACKWARD_EXTRAPOLATION_HALVINGS = 10


class Stage(Record):
    designation: float      # percent of light speed
    beta: float
    metrics: CostMetrics    # metrics at entry (a1 from the curve)
    entry_month: float
    design: OptimumDesign


class StagePlan(Record):
    stages: tuple[Stage, ...]

    def __post_init__(self):
        marks = [s.designation for s in self.stages]
        if marks != sorted(marks) or len(set(marks)) != len(marks):
            raise DomainError(f"stage designations must be strictly increasing (got {marks!r})")


def starlight_designation(beta: float) -> float:
    """Stage designation: the percent of light speed achieved."""
    if not 0 < beta < 1:
        raise DomainError(f"beta must be in (0, 1) (got {beta!r})")
    return 100.0 * beta


def designation_label(beta: float) -> str:
    return f"Starlight-{starlight_designation(beta):g}"


def stage_cost_ratio(x_hi: float, x_lo: float) -> float:
    """Cost ratio between two stages at fixed metrics: (x_hi/x_lo)^(4/3),
    from the beta^(4/3) scaling of the minimum cost."""
    if not x_hi >= x_lo > 0:
        raise DomainError(f"need x_hi >= x_lo > 0 (got {x_hi!r}, {x_lo!r})")
    return (x_hi / x_lo) ** (4 / 3)


def project_metric(curve: TechCurve, month: float) -> float:
    """Projected metric value: base * 2^(-(month - reference)/halving)."""
    behind = curve.reference_month - month
    if behind > BACKWARD_EXTRAPOLATION_HALVINGS * curve.halving_months:
        warnings.warn(
            f"projecting {behind / curve.halving_months:.1f} halving times "
            "before the curve's reference; the exponential fit is unreliable there",
            stacklevel=2,
        )
    return curve.base_value * 2.0 ** (-(month - curve.reference_month) / curve.halving_months)


def time_of_entry(
    curve: TechCurve, budget: float, beta: float, payload: Payload, sail: SailSpec,
    array: ArraySpec, metrics: CostMetrics,
) -> float:
    """Earliest month at which the projected laser metric is cheap enough
    that the minimum system cost fits the budget.

    Only the laser metric rides the curve; the other metrics are held
    flat.  The result is a fractional month index: the projected metric
    equals the affordable metric exactly there.
    """
    return _entry_month(curve, a1_for_budget(budget, beta, payload, sail, array, metrics))


def _entry_month(curve: TechCurve, needed: float) -> float:
    """Month at which the projected laser metric falls to ``needed``."""
    return curve.reference_month + curve.halving_months * math.log2(
        curve.base_value / needed
    )


def plan_stages(
    designations: list[float], budget: float, curve: TechCurve, payload: Payload,
    sail: SailSpec, array: ArraySpec, metrics: CostMetrics,
) -> StagePlan:
    """Entry dates and optimal designs for a ladder of stage goals, each
    funded at the same budget: a stage's laser metric is the one at which
    its minimum system cost equals the budget.  Like every cost optimum,
    a plan is defined in optimized mode only (``require_cost_mode``, which
    the caller applies to its scenario's mode), and a sail with a given
    diameter is refused (``DomainError``)."""
    stages = []
    for x in designations:
        beta = x / 100.0
        a1_entry = a1_for_budget(budget, beta, payload, sail, array, metrics)
        stage_metrics = metrics.replace(laser_usd_per_watt=a1_entry)
        design = closed_form_optimum(beta, payload, sail, array, stage_metrics)
        stages.append(Stage(x, beta, stage_metrics, _entry_month(curve, a1_entry), design))
    return StagePlan(tuple(stages))
