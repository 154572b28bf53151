import math

import pytest

from sailcost.costs import cost_components
from sailcost.energy import energy_per_shot, energy_used_lifetime, storage_cost
from sailcost.errors import DomainError
from sailcost.params import ArraySpec, CostMetrics
from sailcost.units import C


def test_beam_energy_formula():
    shot = energy_per_shot(0.2, 2e-3, 2.0)
    assert shot.beam_energy == pytest.approx(0.2 * 2e-3 * C**2 / 2.0, rel=1e-14)
    assert shot.beam_energy == pytest.approx(17975103574736.35, rel=1e-12)


def test_kinetic_energy_and_launch_efficiency():
    shot = energy_per_shot(0.2, 2e-3, 2.0)
    assert shot.kinetic_energy == pytest.approx(0.5 * 2e-3 * (0.2 * C) ** 2, rel=1e-14)
    # eta * beta / 2, and consistently KE / E_beam
    assert shot.launch_efficiency == pytest.approx(0.2, rel=1e-14)
    assert shot.launch_efficiency == pytest.approx(
        shot.kinetic_energy / shot.beam_energy, rel=1e-14
    )


def test_storage_efficiency_inflates_capacity():
    perfect = energy_per_shot(0.1, 1e-3, 2.0)
    lossy = energy_per_shot(0.1, 1e-3, 2.0, storage_efficiency=0.5)
    assert lossy.storage_energy == pytest.approx(2 * perfect.beam_energy, rel=1e-14)
    assert lossy.beam_energy == perfect.beam_energy


def test_storage_cost_half_billion_for_reference_shot():
    # 100 GW / 10 km reference launch of a 1 g payload reaches beta ~ 0.185
    from sailcost.kinematics import kinematics_optimized
    from sailcost.params import ArraySpec, Payload, SailSpec

    sail = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
    array = ArraySpec(wavelength=1e-6, aperture=10e3, power=100e9)
    kin = kinematics_optimized(array, sail, Payload(1e-3))
    assert kin.beta == pytest.approx(0.1853, rel=1e-3)
    cost = storage_cost(energy_per_shot(kin.beta, kin.total_mass, 2.0), 2.8e-5)
    assert cost == pytest.approx(0.5e9, rel=0.1)


def test_storage_cost_mass_ratio_is_three_quarter_power():
    """At fixed array and power, beta ~ m^(-1/4) so E ~ m^(3/4)."""
    from sailcost.kinematics import kinematics_optimized
    from sailcost.params import ArraySpec, Payload, SailSpec

    sail = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
    array = ArraySpec(wavelength=1e-6, aperture=10e3, power=100e9)
    costs = {}
    for mass in (1e-3, 1.0):
        kin = kinematics_optimized(array, sail, Payload(mass))
        costs[mass] = storage_cost(
            energy_per_shot(kin.beta, kin.total_mass, 2.0), 2.8e-5
        )
    assert costs[1.0] / costs[1e-3] == pytest.approx(1000 ** 0.75, rel=1e-9)


def test_energy_used_lifetime_reference_figure():
    total, per_watt = energy_used_lifetime(100e9, 1e5, 1.4e-8, 0.5)
    assert per_watt == 1.4e-8 * 1e5 * 3600.0 / 0.5
    assert per_watt == pytest.approx(10.0, rel=0.01)
    assert total == pytest.approx(100e9 * per_watt, rel=1e-14)


def test_energy_used_rejects_bad_wall_plug():
    with pytest.raises(DomainError):
        energy_used_lifetime(1e9, 1e5, 1e-8, 0.0)
    with pytest.raises(DomainError):
        energy_used_lifetime(1e9, 1e5, 1e-8, 1.5)


def test_domain_checks():
    with pytest.raises(DomainError):
        energy_per_shot(0.2, -1.0, 2.0)
    with pytest.raises(DomainError):
        energy_per_shot(1.0, 1e-3, 2.0)
    with pytest.raises(DomainError):
        energy_per_shot(0.2, 1e-3, 2.0, storage_efficiency=0.0)


def test_total_cost_with_energy_breakdown():
    metrics = CostMetrics(1.0, 1000.0, 1.4e-8, 2.8e-5, 0.5, 100.0)
    array = ArraySpec(1e-6, 1.22, math.pi / 4, 1.0, aperture=1e4, power=1e11)
    b = cost_components(array, 140.0, metrics)
    beam_energy = 1e11 * 140.0
    assert b.energy == pytest.approx(100 * 1.4e-8 * beam_energy, rel=1e-14)
    assert b.storage == pytest.approx(2.8e-5 * beam_energy / 0.5, rel=1e-14)
    assert b.total == b.laser + b.optics + b.energy + b.storage
