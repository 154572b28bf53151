import math
import random
import re

import pytest

from sailcost.checks import _random_case
from sailcost.costs import a1_for_budget
from sailcost.errors import DomainError, InfeasibleBudgetError, ValidationError
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec
from sailcost.roadmap import (
    Stage,
    StagePlan,
    TechCurve,
    plan_stages,
    stage_cost_ratio,
)

SAIL = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
PAYLOAD = Payload(mass=1e-3)
ARRAY = ArraySpec(1e-6)
METRICS = CostMetrics(1.0, 1000.0)


def test_stage_cost_ratio():
    assert stage_cost_ratio(20, 1) == pytest.approx(20 ** (4 / 3), rel=1e-14)
    assert stage_cost_ratio(20, 1) == pytest.approx(54.3, rel=2e-3)
    assert stage_cost_ratio(5, 5) == 1.0
    with pytest.raises(DomainError):
        stage_cost_ratio(1, 20)


def _entry_month(curve, designation):
    """Entry month of a one-stage plan at a 100e9 USD budget."""
    plan = plan_stages([designation], 100e9, curve, PAYLOAD, SAIL, ARRAY, METRICS)
    return plan.stages[0].entry_month


def test_time_of_entry_crosses_exactly_at_the_affordable_metric():
    curve = TechCurve(base_value=100.0, reference_month=0.0, halving_months=18.0)
    month = _entry_month(curve, 1.0)
    needed = a1_for_budget(100e9, 0.01, PAYLOAD, SAIL, ARRAY, METRICS)
    # The halving law: the metric is base * 2^(-(month - reference) / halving).
    assert 100.0 * 2.0 ** (-month / 18.0) == pytest.approx(needed, rel=1e-12)


def test_time_of_entry_halving_shifts_entry_by_one_halving_time():
    curve = TechCurve(base_value=100.0, reference_month=0.0, halving_months=18.0)
    t1 = _entry_month(curve, 10.0)
    # Doubling a1_base delays the entry by exactly one halving time.
    later = TechCurve(base_value=200.0, reference_month=0.0, halving_months=18.0)
    t2 = _entry_month(later, 10.0)
    assert t2 - t1 == pytest.approx(18.0, abs=1e-9)


def test_plan_stages_ladder():
    curve = TechCurve(base_value=100.0, reference_month=0.0, halving_months=18.0)
    metrics = CostMetrics(1.0, 1000.0)
    plan = plan_stages([0.1, 1.0, 20.0], 100e9, curve, PAYLOAD, SAIL, ARRAY, metrics)
    months = [s.entry_month for s in plan.stages]
    assert months == sorted(months)
    # every stage design hits the budget exactly
    for stage in plan.stages:
        assert stage.design.breakdown.total == pytest.approx(100e9, rel=1e-9)
        assert stage.design.beta == stage.designation / 100.0
    # at fixed budget the affordable a1 scales as 1/beta^2
    a1s = [s.metrics.laser_usd_per_watt for s in plan.stages]
    assert a1s[0] / a1s[1] == pytest.approx(100.0, rel=1e-9)
    assert a1s[1] / a1s[2] == pytest.approx(400.0, rel=1e-9)
    # consecutive entry gap: log2(a1 ratio) halving times
    assert months[1] - months[0] == pytest.approx(18.0 * math.log2(100), rel=1e-9)


PLANS = 3000


def test_every_stage_costs_the_budget_with_the_scenarios_own_fields():
    """Over random scenarios, half of them with energy and storage terms,
    each stage's minimum cost equals the budget, or the plan raises
    InfeasibleBudgetError because energy and storage take it all."""
    rng = random.Random(20240821)
    curve = TechCurve(base_value=100.0)
    worst, infeasible = 0.0, 0
    for plan in range(PLANS):
        beta, payload, sail, metrics, array = _random_case(rng)
        if plan % 2:
            metrics = metrics.replace(
                energy_usd_per_joule=1.4e-8 * 10 ** rng.uniform(-1, 1),
                storage_usd_per_joule=2.8e-5 * 10 ** rng.uniform(-1, 1),
                storage_efficiency=rng.uniform(0.5, 1.0),
                shots=float(rng.choice((1, 10, 100))),
            )
        budget = 10 ** rng.uniform(8, 13)
        ladder = [25 * beta, 50 * beta, 100 * beta]
        try:
            stages = plan_stages(ladder, budget, curve, payload, sail, array, metrics).stages
        except InfeasibleBudgetError:
            infeasible += 1
            continue
        for stage in stages:
            worst = max(worst, abs(stage.design.breakdown.total - budget) / budget)
    assert worst <= 1e-12
    assert 0 < infeasible < PLANS / 2


def test_plan_refuses_a_sail_with_a_given_diameter():
    """The plan is the optimized regime's, which derives the sail diameter."""
    sail = SAIL.replace(diameter=10.0)
    curve = TechCurve(base_value=100.0, reference_month=0.0, halving_months=18.0)
    message = "sail.D must be absent in the optimized regime (it is derived)"
    with pytest.raises(DomainError, match=re.escape(message)):
        plan_stages([1.0, 20.0], 1e11, curve, PAYLOAD, sail, ARRAY, METRICS)
    with pytest.raises(DomainError, match=re.escape(message)):
        a1_for_budget(1e11, 0.2, PAYLOAD, sail, ARRAY, METRICS)


def test_stage_plan_requires_strictly_increasing_designations():
    curve = TechCurve(base_value=100.0, reference_month=0.0, halving_months=18.0)
    metrics = CostMetrics(1.0, 1000.0)
    with pytest.raises(DomainError):
        plan_stages([1.0, 1.0], 100e9, curve, PAYLOAD, SAIL, ARRAY, metrics)
    with pytest.raises(DomainError):
        plan_stages([20.0, 1.0], 100e9, curve, PAYLOAD, SAIL, ARRAY, metrics)


def test_curve_validation():
    with pytest.raises(ValidationError) as info:
        TechCurve(base_value=0.0, reference_month=0.0, halving_months=18.0)
    assert str(info.value) == "techcurve.a1_base: must satisfy a1_base > 0 (got 0.0)"
    with pytest.raises(ValidationError) as info:
        TechCurve(base_value=1.0, reference_month=0.0, halving_months=0.0)
    assert str(info.value) == (
        "techcurve.halving_months: must satisfy halving_months > 0 (got 0.0)"
    )
