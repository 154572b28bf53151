import math
import random

import pytest

from sailcost.costs import closed_form_optimum
from sailcost.errors import BoundaryOptimumError, InfeasibleBudgetError
from sailcost.optimize import (
    SearchSpec,
    constrained_cost,
    golden_section,
    maximize_speed_fixed_cost,
    minimize_cost_numeric,
    second_derivative_at,
    speed_curve_fixed_cost,
)
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec

SAIL = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
PAYLOAD = Payload(mass=1e-3)
XI = math.pi / 4
GEOM = (1e-6, 1.22, XI, 1.0)


def test_oracle_paths_build_no_parameter_records(monkeypatch):
    """Records validated at the API boundary are not rebuilt inside the
    numeric oracle or the closed form."""
    metrics = CostMetrics(1.0, 1000.0, 1.4e-8, 2.8e-5, shots=10.0)
    built = []
    for cls in (SailSpec, ArraySpec, Payload, CostMetrics):
        def counted(record, original=cls.__post_init__):
            built.append(type(record).__name__)
            original(record)

        monkeypatch.setattr(cls, "__post_init__", counted)
    minimize_cost_numeric(0.2, PAYLOAD, SAIL, *GEOM, metrics)
    closed_form_optimum(0.2, PAYLOAD, SAIL, *GEOM, metrics)
    assert built == []


def test_golden_section_on_quadratic():
    x = golden_section(lambda t: (t - 3.7) ** 2, 0.0, 10.0)
    assert x == pytest.approx(3.7, abs=1e-8)


def test_golden_section_on_quartic_with_flat_bottom():
    x = golden_section(lambda t: (t - 2.0) ** 4, 0.5, 9.0)
    assert x == pytest.approx(2.0, abs=1e-3)  # quartics are flat at the bottom


def test_golden_section_deterministic():
    f = lambda t: abs(t - 1.0)
    assert golden_section(f, 0.0, 4.0) == golden_section(f, 0.0, 4.0)


def test_numeric_matches_closed_form():
    metrics = CostMetrics(1.0, 1000.0)
    closed = closed_form_optimum(0.2, PAYLOAD, SAIL, *GEOM, metrics)
    numeric = minimize_cost_numeric(0.2, PAYLOAD, SAIL, *GEOM, metrics)
    assert numeric.method == "numeric"
    # the objective is numerically flat within ~1e-8 of d*, so that is the
    # attainable agreement in double precision
    assert numeric.aperture == pytest.approx(closed.aperture, rel=1e-7)
    assert numeric.breakdown.total == pytest.approx(closed.breakdown.total, rel=1e-12)


def test_numeric_matches_closed_form_randomized():
    rng = random.Random(7)
    for _ in range(50):
        beta = rng.uniform(0.02, 0.4)
        metrics = CostMetrics(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(2, 4))
        payload = Payload(10 ** rng.uniform(-3, -1))
        closed = closed_form_optimum(beta, payload, SAIL, *GEOM, metrics)
        numeric = minimize_cost_numeric(beta, payload, SAIL, *GEOM, metrics)
        assert numeric.aperture == pytest.approx(closed.aperture, rel=1e-6)


def test_boundary_optimum_reported():
    metrics = CostMetrics(1.0, 1000.0)
    with pytest.raises(BoundaryOptimumError) as info:
        minimize_cost_numeric(
            0.2, PAYLOAD, SAIL, *GEOM, metrics, SearchSpec(d_min=1e6, d_max=1e7)
        )
    assert info.value.bound == "lower"


def test_constrained_cost_exceeds_optimum_off_the_minimum():
    metrics = CostMetrics(1.0, 1000.0)
    best = closed_form_optimum(0.2, PAYLOAD, SAIL, *GEOM, metrics)
    for factor in (0.5, 0.9, 1.1, 2.0):
        off = constrained_cost(best.aperture * factor, 0.2, PAYLOAD, SAIL, *GEOM, metrics)
        assert off.total > best.breakdown.total


def test_fixed_budget_optics_get_one_third():
    metrics = CostMetrics(1.0, 1000.0)
    result = maximize_speed_fixed_cost(100e9, PAYLOAD, SAIL, *GEOM, metrics)
    assert result.aperture == pytest.approx(6514.700158705599, rel=1e-12)
    assert result.power == pytest.approx(66666666666.666664, rel=1e-12)
    assert result.breakdown.optics == pytest.approx(100e9 / 3, rel=1e-12)
    assert result.breakdown.total == pytest.approx(100e9, rel=1e-12)
    assert result.beta == pytest.approx(0.12210069792777399, rel=1e-11)


def test_fixed_budget_beats_nearby_apertures():
    metrics = CostMetrics(1.0, 1000.0)
    result = maximize_speed_fixed_cost(100e9, PAYLOAD, SAIL, *GEOM, metrics)
    best_sq = speed_curve_fixed_cost(100e9, result.aperture, SAIL, PAYLOAD, *GEOM, metrics)
    assert best_sq == pytest.approx(result.beta**2, rel=1e-12)
    for factor in (0.7, 0.95, 1.05, 1.4):
        other = speed_curve_fixed_cost(
            100e9, result.aperture * factor, SAIL, PAYLOAD, *GEOM, metrics
        )
        assert other < best_sq


def test_fixed_budget_duality_with_min_cost():
    metrics = CostMetrics(1.0, 1000.0)
    result = maximize_speed_fixed_cost(193085264928.40485, PAYLOAD, SAIL, *GEOM, metrics)
    design = closed_form_optimum(result.beta, PAYLOAD, SAIL, *GEOM, metrics)
    assert design.breakdown.total == pytest.approx(193085264928.40485, rel=1e-9)
    assert design.aperture == pytest.approx(result.aperture, rel=1e-9)


def test_infeasible_budget():
    with pytest.raises(InfeasibleBudgetError):
        maximize_speed_fixed_cost(0.0, PAYLOAD, SAIL, *GEOM, CostMetrics(1.0, 1000.0))


def test_curvature_positive_and_matches_finite_differences():
    metrics = CostMetrics(1.0, 1000.0)
    design = closed_form_optimum(0.2, PAYLOAD, SAIL, *GEOM, metrics)
    for d in (design.aperture * 0.5, design.aperture, design.aperture * 3):
        analytic = second_derivative_at(d, 0.2, PAYLOAD, SAIL, *GEOM, metrics)
        assert analytic > 0
        step = 1e-4 * d
        f = lambda x: constrained_cost(x, 0.2, PAYLOAD, SAIL, *GEOM, metrics).total
        fd = (f(d + step) - 2 * f(d) + f(d - step)) / step**2
        assert fd == pytest.approx(analytic, rel=1e-5)


def test_search_spec_validation():
    from sailcost.errors import DomainError

    with pytest.raises(DomainError):
        SearchSpec(d_min=10.0, d_max=1.0)
    with pytest.raises(DomainError):
        SearchSpec(rel_tol=0.0)
