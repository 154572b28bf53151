import math

import pytest

from sailcost.errors import UnitError
from sailcost.units import C, dimension_of, parse_quantity, to_si, units_for


def test_speed_of_light_is_the_defined_constant():
    assert C == 299792458.0


@pytest.mark.parametrize(
    "value,unit,expected",
    [
        (1.0, "um", 1e-6),
        (550.0, "nm", 5.5e-7),
        (10.0, "km", 1e4),
        (1.0, "g", 1e-3),
        (100.0, "GW", 1e11),
        (1.0, "g/cc", 1e3),
        (1.0, "GPa", 1e9),
        (1.0, "kWh", 3.6e6),
        (2.0, "hr", 7200.0),
    ],
)
def test_to_si_factors(value, unit, expected):
    assert to_si(value, unit) == expected


def test_usd_per_kwh_converts_to_usd_per_joule():
    # $0.036/kWh is exactly 1e-8 $/J
    assert to_si(0.036, "usd/kWh") == pytest.approx(1e-8, rel=1e-12)
    assert dimension_of("usd/kWh") == "cost_per_joule"


def test_parse_quantity():
    assert parse_quantity("1 um", "length") == 1e-6
    assert parse_quantity("0.1 usd/W", "cost_per_watt") == 0.1


def test_parse_rejects_bare_number_on_dimensioned_field():
    with pytest.raises(UnitError, match="missing unit"):
        parse_quantity("1000", "length", field="sail.h")


def test_parse_rejects_wrong_dimension():
    with pytest.raises(UnitError, match="mass unit"):
        parse_quantity("1 g", "length")


def test_parse_rejects_unknown_unit():
    with pytest.raises(UnitError):
        parse_quantity("3 furlongs", "length")


def test_parse_rejects_nonfinite():
    with pytest.raises(UnitError):
        parse_quantity("inf m", "length")


def test_units_for_lists_all_length_tags():
    assert units_for("length") == {"m", "mm", "um", "nm", "km"}


def test_dimension_of_unknown_tag():
    with pytest.raises(UnitError):
        dimension_of("parsec")
