import math

import pytest

from sailcost.costs import (
    CostBreakdown,
    a1_for_budget,
    closed_form_optimum,
    cost_components,
    cost_scaling_exponents,
    shot_beam_energy,
)
from sailcost.errors import DegenerateOptimumError, DomainError
from sailcost.kinematics import kinematics_optimized
from sailcost.params import ArraySpec, CostMetrics, Payload, SailSpec

SAIL = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
PAYLOAD = Payload(mass=1e-3)
XI = math.pi / 4


def _optimum(metrics, beta=0.2, sail=SAIL, payload=PAYLOAD):
    return closed_form_optimum(beta, payload, sail, ArraySpec(1e-6, 1.22, XI, 1.0), metrics)


def test_worked_example_baseline():
    design = _optimum(CostMetrics(1.0, 1000.0))
    assert design.aperture == pytest.approx(9052.509685395, rel=1e-11)
    assert design.power == pytest.approx(128723509952.26982, rel=1e-11)
    assert design.breakdown.total == pytest.approx(193085264928.40485, rel=1e-11)


def test_worked_example_cheap_laser():
    design = _optimum(CostMetrics(0.1, 1000.0))
    assert design.aperture == pytest.approx(4201.802787190096, rel=1e-11)
    assert design.power == pytest.approx(277326395263.8346, rel=1e-11)
    assert design.breakdown.total == pytest.approx(41598959289.57521, rel=1e-11)


def test_laser_cost_is_twice_optics_cost_at_optimum():
    for a1 in (0.03, 0.1, 1.0, 30.0):
        b = _optimum(CostMetrics(a1, 1000.0)).breakdown
        assert abs(b.laser - 2 * b.optics) / b.total < 1e-12


def test_breakdown_fractions_sum_to_one():
    b = CostBreakdown(laser=2.0, optics=1.0, energy=0.25, storage=0.75)
    assert sum(b.fractions) == pytest.approx(1.0)
    assert b.total == 4.0
    assert not b.zero_total


def test_zero_breakdown_has_zero_fractions():
    b = CostBreakdown(laser=0.0, optics=0.0)
    assert b.zero_total
    assert b.fractions == (0.0, 0.0, 0.0, 0.0)


def test_degenerate_metrics_rejected():
    with pytest.raises(DegenerateOptimumError):
        _optimum(CostMetrics(0.0, 1000.0))


def test_beta_domain():
    with pytest.raises(DomainError):
        _optimum(CostMetrics(1.0, 1000.0), beta=0.0)
    with pytest.raises(DomainError):
        _optimum(CostMetrics(1.0, 1000.0), beta=1.0)


def test_scaling_exponents_against_direct_ratios():
    exps = cost_scaling_exponents()
    base = _optimum(CostMetrics(1.0, 1000.0))
    # beta doubling
    fast = _optimum(CostMetrics(1.0, 1000.0), beta=0.4)
    assert fast.breakdown.total / base.breakdown.total == pytest.approx(
        2 ** exps["total_cost"]["beta"], rel=1e-12
    )
    assert fast.aperture / base.aperture == pytest.approx(
        2 ** exps["aperture"]["beta"], rel=1e-12
    )
    # a1 x10
    pricey = _optimum(CostMetrics(10.0, 1000.0))
    assert pricey.breakdown.total / base.breakdown.total == pytest.approx(
        10 ** exps["total_cost"]["a1"], rel=1e-12
    )
    assert pricey.power / base.power == pytest.approx(
        10 ** exps["power"]["a1"], rel=1e-12
    )
    # a2 x10
    shiny = _optimum(CostMetrics(1.0, 10000.0))
    assert shiny.aperture / base.aperture == pytest.approx(
        10 ** exps["aperture"]["a2"], rel=1e-12
    )


def test_payload_mass_scaling_one_third():
    """d* ~ sqrt(m0)^(1/3) so optics (and C_T) ~ m0^(1/3); measure it."""
    light = _optimum(CostMetrics(1.0, 1000.0), payload=Payload(1e-3))
    heavy = _optimum(CostMetrics(1.0, 1000.0), payload=Payload(1.0))
    measured = math.log(heavy.breakdown.total / light.breakdown.total) / math.log(1000)
    assert measured == pytest.approx(1 / 3, abs=1e-12)


def test_energy_terms_enter_breakdown_but_not_the_optimum():
    plain = _optimum(CostMetrics(1.0, 1000.0))
    loaded = _optimum(CostMetrics(1.0, 1000.0, 1.4e-8, 2.8e-5, 0.8, 50.0))
    assert loaded.aperture == plain.aperture
    assert loaded.power == plain.power
    e_gamma = shot_beam_energy(0.2, PAYLOAD, SAIL)
    assert loaded.breakdown.energy == pytest.approx(50 * 1.4e-8 * e_gamma, rel=1e-12)
    assert loaded.breakdown.storage == pytest.approx(2.8e-5 * e_gamma / 0.8, rel=1e-12)


def test_shot_beam_energy_matches_power_times_time():
    design = _optimum(CostMetrics(1.0, 1000.0))
    array = ArraySpec(1e-6, 1.22, XI, aperture=design.aperture, power=design.power)
    kin = kinematics_optimized(array, SAIL, PAYLOAD)
    assert shot_beam_energy(0.2, PAYLOAD, SAIL) == pytest.approx(
        design.power * kin.accel_time, rel=1e-10
    )


def test_cost_components_at_explicit_point():
    metrics = CostMetrics(1.0, 1000.0, 2e-9, 3e-6, 0.5, 10.0)
    array = ArraySpec(1e-6, shape_factor=XI, beam_fraction=0.8, aperture=1e4, power=1e11)
    b = cost_components(array, 100.0, metrics)
    assert b.laser == pytest.approx(1e11 / 0.8)
    assert b.optics == pytest.approx(1000.0 * XI * 1e8)
    assert b.energy == pytest.approx(10 * 2e-9 * 1e13)
    assert b.storage == pytest.approx(3e-6 * 1e13 / 0.5)


def test_a1_for_budget_round_trip():
    for budget in (1e9, 41e9, 193e9, 5e12):
        a1 = a1_for_budget(budget, 0.2, 1000.0, 1e-6, 1e-6, 1000.0, 1e-3)
        design = _optimum(CostMetrics(a1, 1000.0))
        assert design.breakdown.total == pytest.approx(budget, rel=1e-9)


def test_a1_for_budget_rejects_bad_inputs():
    with pytest.raises(DomainError):
        a1_for_budget(-1.0, 0.2, 1000.0, 1e-6, 1e-6, 1000.0, 1e-3)
    with pytest.raises(DomainError):
        a1_for_budget(1e9, 1.5, 1000.0, 1e-6, 1e-6, 1000.0, 1e-3)
    for a2 in (0.0, -1.0):
        with pytest.raises(DomainError):
            a1_for_budget(1e9, 0.2, a2, 1e-6, 1e-6, 1000.0, 1e-3)
