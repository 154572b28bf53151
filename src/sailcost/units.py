"""Canonical-unit conventions and conversions.

All internal computation is SI: length m, mass kg, power W, speed m/s,
time s, energy J, flux W/m^2, density kg/m^3, stress Pa, cost USD, and
cost metrics USD/W, USD/m^2, USD/J.  Inputs quoted in the conventional
mixed units of the field (um, g, g/cc, km, GW, ...) convert through the
exact factors below; no prefactor formula in this package bakes in a
non-SI convention.
"""

import math

from .errors import UnitError

# Speed of light, m/s (defined constant).
C = 299792458.0

# unit tag -> (dimension, factor to canonical unit)
_UNITS = {
    "m": ("length", 1.0),
    "mm": ("length", 1e-3),
    "um": ("length", 1e-6),
    "nm": ("length", 1e-9),
    "km": ("length", 1e3),
    "kg": ("mass", 1.0),
    "g": ("mass", 1e-3),
    "mg": ("mass", 1e-6),
    "W": ("power", 1.0),
    "kW": ("power", 1e3),
    "MW": ("power", 1e6),
    "GW": ("power", 1e9),
    "TW": ("power", 1e12),
    "s": ("time", 1.0),
    "min": ("time", 60.0),
    "hr": ("time", 3600.0),
    "J": ("energy", 1.0),
    "kJ": ("energy", 1e3),
    "MJ": ("energy", 1e6),
    "Wh": ("energy", 3600.0),
    "kWh": ("energy", 3.6e6),
    "W/m2": ("flux", 1.0),
    "kW/m2": ("flux", 1e3),
    "kg/m3": ("density", 1.0),
    "g/cc": ("density", 1e3),
    "Pa": ("stress", 1.0),
    "MPa": ("stress", 1e6),
    "GPa": ("stress", 1e9),
    "m/s": ("speed", 1.0),
    "km/s": ("speed", 1e3),
    "usd": ("cost", 1.0),
    "usd/W": ("cost_per_watt", 1.0),
    "usd/m2": ("cost_per_area", 1.0),
    "usd/J": ("cost_per_joule", 1.0),
    "usd/Wh": ("cost_per_joule", 1.0 / 3600.0),
    "usd/kWh": ("cost_per_joule", 1.0 / 3.6e6),
}


def units_for(dimension: str) -> set[str]:
    """All unit tags belonging to a dimension."""
    return {tag for tag, (dim, _) in _UNITS.items() if dim == dimension}


def _lookup(unit: str) -> tuple[str, float]:
    try:
        return _UNITS[unit]
    except KeyError:
        raise UnitError(f"unknown unit tag {unit!r}") from None


def dimension_of(unit: str) -> str:
    return _lookup(unit)[0]


def to_si(value: float, unit: str) -> float:
    """Convert a value in ``unit`` to the canonical unit of its dimension."""
    return value * _lookup(unit)[1]


def parse_quantity(text: str, dimension: str, field: str = "") -> float:
    """Parse ``"<number> <unit>"`` and return the SI value.

    Dimensioned fields must carry a unit suffix; a bare number is
    rejected so a mis-scaled input can never slip through silently.
    """
    parts = text.split()
    where = f"{field}: " if field else ""
    if len(parts) == 1:
        raise UnitError(
            f"{where}missing unit on dimensioned value {text!r}; "
            f"expected one of {sorted(units_for(dimension))}"
        )
    if len(parts) != 2:
        raise UnitError(f"{where}cannot parse quantity {text!r}")
    num, unit = parts
    try:
        value = float(num)
    except ValueError:
        raise UnitError(f"{where}bad number {num!r}") from None
    dim = dimension_of(unit)
    if dim != dimension:
        raise UnitError(
            f"{where}unit {unit!r} is a {dim} unit; expected "
            f"{dimension} ({sorted(units_for(dimension))})"
        )
    value = to_si(value, unit)
    if not math.isfinite(value):
        raise UnitError(f"{where}non-finite value {text!r}")
    return value
