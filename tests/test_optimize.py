import math
import random
import statistics

import pytest

from sailcost import checks, model
from sailcost.costs import closed_form_optimum
from sailcost.errors import (
    BoundaryOptimumError,
    ConvergenceError,
    InfeasibleBudgetError,
    ValidationError,
)
from sailcost.optimize import (
    D_MAX,
    D_MIN,
    constrained_cost,
    golden_section,
    maximize_speed_fixed_cost,
    minimize_cost_numeric,
    second_derivative_at,
)
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec

SAIL = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
PAYLOAD = Payload(mass=1e-3)
XI = math.pi / 4
ARRAY = ArraySpec(1e-6, 1.22, XI, 1.0)


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
    minimize_cost_numeric(0.2, PAYLOAD, SAIL, ARRAY, metrics)
    closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, metrics)
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
    closed = closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, metrics)
    numeric = minimize_cost_numeric(0.2, PAYLOAD, SAIL, ARRAY, metrics)
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
        closed = closed_form_optimum(beta, payload, SAIL, ARRAY, metrics)
        numeric = minimize_cost_numeric(beta, payload, SAIL, ARRAY, metrics)
        assert numeric.aperture == pytest.approx(closed.aperture, rel=1e-6)


def test_boundary_optimum_reported():
    """An optimum outside the fixed search range is reported at the bound
    it lies beyond, on either side; one inside it, however near a bound,
    is found."""
    for metrics, bound, best in (
        (CostMetrics(1e4, 1e-3), "upper", D_MAX),  # d* = 1.95e7 m
        (CostMetrics(1e-12, 1e3), "lower", D_MIN),  # d* = 0.905 m
    ):
        outside = closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, metrics).aperture
        assert not D_MIN < outside < D_MAX
        with pytest.raises(BoundaryOptimumError) as info:
            minimize_cost_numeric(0.2, PAYLOAD, SAIL, ARRAY, metrics)
        assert (info.value.bound, info.value.best) == (bound, best)
    for metrics in (
        CostMetrics(1.796e-12, 1e3),  # d* = 1.1004 m
        CostMetrics(1e4 * (0.9 / 1.95) ** 3, 1e-3),  # d* = 9.0e6 m
    ):
        inside = closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, metrics).aperture
        assert D_MIN < inside < D_MAX
        numeric = minimize_cost_numeric(0.2, PAYLOAD, SAIL, ARRAY, metrics)
        assert numeric.aperture == pytest.approx(inside, rel=1e-6)


def test_numeric_optimum_evaluation_count(monkeypatch):
    """One golden-section search over the whole range: over the oracle
    check's 1000 draws, a median of at most 70 cost evaluations per
    optimum (the final one at the optimum included) and at most 90."""
    calls = 0

    def counted(*args, original=model.cost_terms):
        nonlocal calls
        calls += 1
        return original(*args)

    # kernel_point reads fixed_aperture_design's own parameters, so the
    # count is taken one call down, in cost_terms.
    monkeypatch.setattr(model, "cost_terms", counted)
    rng = random.Random(checks._ORACLE_SEED)
    counts = []
    for _ in range(checks._ORACLE_DRAWS):
        beta, payload, sail, metrics, array = checks._random_case(rng)
        calls = 0
        minimize_cost_numeric(beta, payload, sail, array, metrics)
        counts.append(calls)
    assert statistics.median(counts) <= 70
    assert max(counts) <= 90


def test_golden_section_reports_an_exhausted_iteration_budget():
    """A minimum at 0 is never met by the relative width test."""
    with pytest.raises(ConvergenceError):
        golden_section(lambda t: t, 0.0, 1.0)


def test_constrained_cost_exceeds_optimum_off_the_minimum():
    metrics = CostMetrics(1.0, 1000.0)
    best = closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, metrics)
    for factor in (0.5, 0.9, 1.1, 2.0):
        off = constrained_cost(best.aperture * factor, 0.2, PAYLOAD, SAIL, ARRAY, metrics)
        assert off.total > best.breakdown.total


def test_fixed_budget_optics_get_one_third():
    metrics = CostMetrics(1.0, 1000.0)
    result = maximize_speed_fixed_cost(100e9, PAYLOAD, SAIL, ARRAY, metrics)
    assert result.aperture == pytest.approx(6514.700158705599, rel=1e-12)
    assert result.power == pytest.approx(66666666666.666664, rel=1e-12)
    assert result.breakdown.optics == pytest.approx(100e9 / 3, rel=1e-12)
    assert result.breakdown.total == pytest.approx(100e9, rel=1e-12)
    assert result.beta == pytest.approx(0.12210069792777399, rel=1e-11)


def speed_curve_fixed_cost(total_usd, aperture, payload, sail, array, metrics):
    """beta^2 attainable at a given array size under a fixed laser + optics
    budget; the independent scan that checks the speed maximum.  At a
    fixed array size the laser cost grows as beta^2, so what the optics
    leave of the budget buys b^2 (C_T - C2) / C1(b), from the costs of
    ``constrained_cost`` at any speed b."""
    b = 0.1
    costs = constrained_cost(aperture, b, payload, sail, array, metrics)
    return b**2 * (total_usd - costs.optics) / costs.laser


def test_fixed_budget_beats_nearby_apertures():
    metrics = CostMetrics(1.0, 1000.0)
    result = maximize_speed_fixed_cost(100e9, PAYLOAD, SAIL, ARRAY, metrics)
    best_sq = speed_curve_fixed_cost(100e9, result.aperture, PAYLOAD, SAIL, ARRAY, metrics)
    assert best_sq == pytest.approx(result.beta**2, rel=1e-12)
    for factor in (0.7, 0.95, 1.05, 1.4):
        other = speed_curve_fixed_cost(
            100e9, result.aperture * factor, PAYLOAD, SAIL, ARRAY, metrics
        )
        assert other < best_sq


def test_fixed_budget_duality_with_min_cost():
    metrics = CostMetrics(1.0, 1000.0)
    result = maximize_speed_fixed_cost(193085264928.40485, PAYLOAD, SAIL, ARRAY, metrics)
    design = closed_form_optimum(result.beta, PAYLOAD, SAIL, ARRAY, metrics)
    assert design.breakdown.total == pytest.approx(193085264928.40485, rel=1e-9)
    assert design.aperture == pytest.approx(result.aperture, rel=1e-9)


def test_infeasible_budget():
    with pytest.raises(InfeasibleBudgetError):
        maximize_speed_fixed_cost(0.0, PAYLOAD, SAIL, ARRAY, CostMetrics(1.0, 1000.0))


@pytest.mark.parametrize("beam_fraction", [0.5, 0.8])
def test_fixed_budget_spends_exactly_the_budget_below_full_beam_fraction(beam_fraction):
    """The laser is priced per produced optical watt, P0 / eps_b, so the
    main-beam power a budget buys falls with eps_b: the laser and the
    optics spend the budget, no more and no less."""
    array = ArraySpec(1e-6, 1.22, XI, beam_fraction)
    result = maximize_speed_fixed_cost(100e9, PAYLOAD, SAIL, array, CostMetrics(1.0, 1000.0))
    assert result.breakdown.total == pytest.approx(100e9, rel=1e-12)
    optics = 1000.0 * XI * result.aperture**2
    assert 1.0 * result.power / beam_fraction + optics == pytest.approx(100e9, rel=1e-12)


def _check_curvature(metrics):
    design = closed_form_optimum(0.2, PAYLOAD, SAIL, ARRAY, metrics)
    for d in (design.aperture * 0.5, design.aperture, design.aperture * 3):
        analytic = second_derivative_at(d, 0.2, PAYLOAD, SAIL, ARRAY, metrics)
        assert analytic > 0
        step = 1e-4 * d
        f = lambda x: constrained_cost(x, 0.2, PAYLOAD, SAIL, ARRAY, metrics).total
        fd = (f(d + step) - 2 * f(d) + f(d - step)) / step**2
        assert fd == pytest.approx(analytic, rel=1e-5)
    return design


def test_curvature_positive_and_matches_finite_differences():
    _check_curvature(CostMetrics(1.0, 1000.0))


def test_curvature_with_energy_terms_matches_finite_differences():
    """The energy and storage costs add to the total cost but, independent
    of the array size, not to its curvature."""
    design = _check_curvature(CostMetrics(1.0, 1000.0, 1.4e-6, 2.8e-3, 0.8, 100.0))
    costs = design.breakdown
    assert costs.energy > 0 and costs.energy + costs.storage > 0.2 * costs.total


@pytest.mark.parametrize("aperture", [0.0, -1.0])
@pytest.mark.parametrize("func", [constrained_cost, second_derivative_at])
def test_nonpositive_aperture_is_one_validation_error(func, aperture):
    """The cost and its curvature refuse d <= 0 with the same error."""
    with pytest.raises(ValidationError, match=r"^array\.d: must satisfy d > 0 "):
        func(aperture, 0.2, PAYLOAD, SAIL, ARRAY, CostMetrics(1.0, 1000.0))
