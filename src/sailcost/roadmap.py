"""Staged-development planning: the stage-to-stage cost ratio, and the
earliest affordable entry date of each stage of a ladder under a budget,
on an exponentially falling laser cost metric.

Dates are month indices from a configurable epoch; the halving law is
specified in months, so no calendar arithmetic is needed.
"""

import math

from .errors import DomainError
from .costs import a1_for_budget, closed_form_optimum, OptimumDesign
from .params import ArraySpec, CostMetrics, Payload, Record, SailSpec
from .scenario import TechCurve


class Stage(Record):
    designation: float      # percent of light speed
    metrics: CostMetrics    # metrics at entry (a1 from the curve)
    entry_month: float
    design: OptimumDesign


class StagePlan(Record):
    stages: tuple[Stage, ...]

    def __post_init__(self):
        marks = [s.designation for s in self.stages]
        if marks != sorted(marks) or len(set(marks)) != len(marks):
            raise DomainError(f"stage designations must be strictly increasing (got {marks!r})")


def stage_cost_ratio(x_hi: float, x_lo: float) -> float:
    """Cost ratio between two stages at fixed metrics: (x_hi/x_lo)^(4/3),
    from the beta^(4/3) scaling of the minimum cost."""
    if not x_hi >= x_lo > 0:
        raise DomainError(f"need x_hi >= x_lo > 0 (got {x_hi!r}, {x_lo!r})")
    return (x_hi / x_lo) ** (4 / 3)


def plan_stages(
    designations: list[float], budget: float, curve: TechCurve, payload: Payload,
    sail: SailSpec, array: ArraySpec, metrics: CostMetrics,
) -> StagePlan:
    """Entry dates and optimal designs for a ladder of stage goals, each
    funded at the same budget: a stage's laser metric is the one at which
    its minimum system cost equals the budget, and the stage enters in the
    fractional month at which the curve falls to that metric (only the
    laser metric rides the curve).  Like every cost optimum, a plan is
    defined in optimized mode only (``require_cost_mode``, which the
    caller applies to its scenario's mode), and a sail with a given
    diameter is refused (``DomainError``)."""
    stages = []
    for x in designations:
        beta = x / 100.0
        a1_entry = a1_for_budget(budget, beta, payload, sail, array, metrics)
        stage_metrics = metrics.replace(laser_usd_per_watt=a1_entry)
        design = closed_form_optimum(beta, payload, sail, array, stage_metrics)
        month = curve.reference_month + curve.halving_months * math.log2(
            curve.base_value / a1_entry
        )
        stages.append(Stage(x, stage_metrics, month, design))
    return StagePlan(tuple(stages))
