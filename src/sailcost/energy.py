"""Per-shot beam energy, launch efficiency, and the energy-side costs:
grid energy over the system lifetime and storage capacity per shot.
"""

from dataclasses import dataclass

from . import model
from .errors import DomainError
from .units import C


@dataclass(frozen=True)
class ShotEnergy:
    """Energy bookkeeping for one launch."""

    beam_energy: float      # main-beam photon energy through the acceleration [J]
    kinetic_energy: float   # payload+sail kinetic energy at the end [J]
    storage_energy: float   # storage capacity required, efficiency-adjusted [J]
    launch_efficiency: float  # kinetic / beam energy


def energy_per_shot(
    beta: float, total_mass: float, coupling: float, storage_efficiency: float = 1.0
) -> ShotEnergy:
    """Energy of one shot: beam energy beta*m*c^2/eta, kinetic energy
    m*c^2*beta^2/2, launch efficiency eta*beta/2.

    total_mass is the accelerated mass (sail + payload); in the
    mass-optimized regime that is twice the payload mass, which makes
    this identical to the optimized-case closed form.
    """
    if total_mass <= 0:
        raise DomainError(f"mass must be > 0 (got {total_mass!r})")
    if not 0 <= beta < 1:
        raise DomainError(f"beta must be in [0, 1) (got {beta!r})")
    if not 0 < storage_efficiency <= 1:
        raise DomainError(f"eps_storage must be in (0, 1] (got {storage_efficiency!r})")
    beam = model.beam_energy(beta, total_mass, coupling)
    kinetic = 0.5 * total_mass * C**2 * beta**2
    return ShotEnergy(
        beam_energy=beam,
        kinetic_energy=kinetic,
        storage_energy=beam / storage_efficiency,
        launch_efficiency=coupling * beta / 2,
    )


def storage_cost(shot: ShotEnergy, storage_usd_per_joule: float) -> float:
    """Cost of the storage capacity for one shot."""
    if storage_usd_per_joule < 0:
        raise DomainError(f"a4 must be >= 0 (got {storage_usd_per_joule!r})")
    return storage_usd_per_joule * shot.storage_energy


def energy_used_lifetime(
    optical_power: float,
    lifetime_hours: float,
    usd_per_joule: float,
    wall_plug_efficiency: float,
) -> tuple[float, float]:
    """Grid-energy cost of running the laser for its lifetime.

    Returns (total USD, USD per optical watt).  Electrical draw is the
    optical output divided by the wall-plug efficiency.
    """
    if not 0 < wall_plug_efficiency <= 1:
        raise DomainError(
            f"wall plug efficiency must be in (0, 1] (got {wall_plug_efficiency!r})"
        )
    per_watt = lifetime_hours * 3600.0 * usd_per_joule / wall_plug_efficiency
    return optical_power * per_watt, per_watt
