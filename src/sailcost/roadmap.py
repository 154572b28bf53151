"""Staged-development planning: Starlight-x stage designations, the
stage-to-stage cost ratio, exponential cost-metric projection, and the
earliest affordable entry date for a milestone under a budget.

Dates are month indices from a configurable epoch; the halving law is
specified in months, so no calendar arithmetic is needed.
"""

import math
import warnings
from dataclasses import dataclass, replace

from .errors import DomainError
from .costs import a1_for_budget, closed_form_optimum, OptimumDesign
from .params import CostMetrics, Payload, SailSpec

BACKWARD_EXTRAPOLATION_HALVINGS = 10


@dataclass(frozen=True)
class TechCurve:
    """Exponentially falling cost metric: halves every halving_months."""

    base_value: float       # USD/unit at the reference month
    reference_month: float = 0.0  # month index of the base value
    halving_months: float = 18.0

    def __post_init__(self):
        if self.base_value <= 0:
            raise DomainError(f"curve base value must be > 0 (got {self.base_value!r})")
        if self.halving_months <= 0:
            raise DomainError(f"halving time must be > 0 (got {self.halving_months!r})")


@dataclass(frozen=True)
class Stage:
    designation: float      # percent of light speed
    beta: float
    metrics: CostMetrics    # metrics at entry (a1 from the curve)
    entry_month: float
    design: OptimumDesign


@dataclass(frozen=True)
class StagePlan:
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
    curve: TechCurve,
    budget: float,
    beta: float,
    payload: Payload,
    sail: SailSpec,
    wavelength: float,
    optics_usd_per_m2: float,
    beam_fraction: float = 1.0,
) -> float:
    """Earliest month at which the projected laser metric is cheap enough
    that the minimum system cost fits the budget.

    Only the laser metric rides the curve; optics are held flat.  The
    result is a fractional month index: the projected metric equals the
    affordable metric exactly there.
    """
    needed = a1_for_budget(
        budget, beta, optics_usd_per_m2, wavelength,
        sail.thickness, sail.density, payload.mass, beam_fraction,
    )
    return curve.reference_month + curve.halving_months * math.log2(
        curve.base_value / needed
    )


def plan_stages(
    designations: list[float],
    budget: float,
    curve: TechCurve,
    payload: Payload,
    sail: SailSpec,
    wavelength: float,
    metrics: CostMetrics,
    beam_fraction: float = 1.0,
) -> StagePlan:
    """Entry dates and optimal designs for a ladder of stage goals, each
    funded at the same budget.

    Uses the perfect-reflector circular-array closed forms, matching the
    budget inversion.
    """
    stages = []
    for x in designations:
        beta = x / 100.0
        entry = time_of_entry(
            curve, budget, beta, payload, sail, wavelength,
            metrics.optics_usd_per_m2, beam_fraction,
        )
        a1_entry = a1_for_budget(
            budget, beta, metrics.optics_usd_per_m2, wavelength,
            sail.thickness, sail.density, payload.mass, beam_fraction,
        )
        stage_metrics = replace(metrics, laser_usd_per_watt=a1_entry)
        design = closed_form_optimum(
            beta, payload, sail, wavelength, 1.22, math.pi / 4,
            beam_fraction, stage_metrics,
        )
        stages.append(Stage(x, beta, stage_metrics, entry, design))
    return StagePlan(tuple(stages))
