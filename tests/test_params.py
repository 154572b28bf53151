import math

import pytest

from sailcost import scenario
from sailcost.checks import CheckResult
from sailcost.costs import CostBreakdown, OptimumDesign
from sailcost.energy import ShotEnergy
from sailcost.errors import ValidationError
from sailcost.kinematics import KinematicsResult
from sailcost.params import ArraySpec, CostMetrics, FIELDS, Payload, Record, SailSpec
from sailcost.roadmap import Stage, StagePlan
from sailcost.scenario import Scenario, SweepSpec, TechCurve

RECORDS = [
    SailSpec, ArraySpec, Payload, CostMetrics, CostBreakdown, OptimumDesign,
    KinematicsResult, ShotEnergy, TechCurve, Scenario, SweepSpec,
    Stage, StagePlan, CheckResult,
]


class Pair(Record):
    first: float
    second: float = 2.0


class OtherPair(Record):
    first: float
    second: float = 2.0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_is_a_record_and_no_dataclass(cls):
    assert issubclass(cls, Record)
    assert not hasattr(cls, "__dataclass_fields__")
    assert cls._fields == tuple(cls.__annotations__)


def test_construction_by_position_keyword_and_defaults():
    by_position = SailSpec(1e-6, 1000.0, 1.0)
    by_keyword = SailSpec(reflectivity=1.0, density=1000.0, thickness=1e-6)
    assert by_position == by_keyword
    assert vars(by_position) == {
        "thickness": 1e-6, "density": 1000.0, "reflectivity": 1.0, "absorptivity": 0.0,
        "shape_factor": math.pi / 4, "diameter": None, "yield_strength": None,
        "stress_factor": 1.0,
    }
    assert list(vars(by_keyword)) == list(SailSpec._fields)
    assert vars(Pair(1.0)) == {"first": 1.0, "second": 2.0}
    assert vars(Pair(1.0, second=3.0)) == {"first": 1.0, "second": 3.0}


@pytest.mark.parametrize(
    ("args", "kwargs", "message"),
    [
        ((), {}, "Pair() missing required argument: 'first'"),
        ((), {"second": 1.0}, "Pair() missing required argument: 'first'"),
        ((1.0,), {"third": 1.0}, "Pair() got an unexpected keyword argument 'third'"),
        ((1.0,), {"first": 1.0}, "Pair() got multiple values for argument 'first'"),
        ((1.0, 2.0, 3.0), {}, "Pair() takes 2 positional arguments but 3 were given"),
    ],
)
def test_bad_arguments_are_type_errors(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        Pair(*args, **kwargs)
    assert str(info.value) == message


def test_records_are_frozen():
    payload = Payload(1e-3)
    with pytest.raises(AttributeError):
        payload.mass = 2e-3
    with pytest.raises(AttributeError):
        del payload.mass
    with pytest.raises(AttributeError):
        payload.extra = 1.0
    assert vars(payload) == {"mass": 1e-3}


def test_equality_hash_and_repr():
    assert Pair(1.0) == Pair(1.0, 2.0)
    assert Pair(1.0) != Pair(1.0, 3.0)
    assert Pair(1.0) != OtherPair(1.0)
    assert Pair(1.0) != (1.0, 2.0)
    assert hash(Pair(1.0)) == hash(Pair(first=1.0, second=2.0))
    assert len({Payload(1e-3), Payload(1e-3), Payload(2e-3)}) == 2
    assert repr(Pair(1.0)) == "Pair(first=1.0, second=2.0)"
    assert repr(Payload(1e-3)) == "Payload(mass=0.001)"
    assert repr(CostBreakdown(1.0, 2.0)) == (
        "CostBreakdown(laser=1.0, optics=2.0, energy=0.0, storage=0.0)"
    )


def test_replace_builds_a_new_record_and_revalidates():
    sail = SailSpec(thickness=1e-6, density=1000.0, reflectivity=1.0)
    wider = sail.replace(diameter=3.0)
    assert wider.diameter == 3.0 and sail.diameter is None
    assert wider == SailSpec(1e-6, 1000.0, 1.0, diameter=3.0)
    with pytest.raises(ValidationError, match=r"^sail\.h: "):
        sail.replace(thickness=-1.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'width'"):
        sail.replace(width=1.0)


def test_post_init_runs_after_every_field_is_set():
    seen = []

    class Checked(Record):
        first: float
        second: float = 2.0

        def __post_init__(self):
            seen.append(dict(vars(self)))

    Checked(1.0)
    assert seen == [{"first": 1.0, "second": 2.0}]


def test_required_scenario_keys():
    assert scenario._DEFAULTLESS == (
        "name", "mode", "payload.m0", "sail.h", "sail.rho", "sail.eps_r", "array.lambda",
        "metrics.a1", "metrics.a2", "techcurve.a1_base",
    )


# A value just past each single-field bound.
_BELOW_0 = math.nextafter(0.0, -1.0)  # -5e-324
_ABOVE_0 = math.nextafter(0.0, 1.0)  # 5e-324
_BELOW_1 = math.nextafter(1.0, 0.0)  # 0.9999999999999999
_ABOVE_1 = math.nextafter(1.0, 2.0)  # 1.0000000000000002
# A valid record of each class to vary one field of: the sail both
# reflects and absorbs, so either term alone keeps it thrusting.
_SAIL = (SailSpec, {"thickness": 1e-6, "density": 1000.0, "reflectivity": 0.5, "absorptivity": 0.5})
_ARRAY = (ArraySpec, {"wavelength": 1e-6})
_PAYLOAD = (Payload, {"mass": 1e-3})
_METRICS = (CostMetrics, {"laser_usd_per_watt": 1.0, "optics_usd_per_m2": 1000.0})
_SCENARIO = (Scenario, {
    "name": "s", "mode": "optimized", "payload": Payload(**_PAYLOAD[1]),
    "sail": SailSpec(**_SAIL[1]), "array": ArraySpec(**_ARRAY[1]),
    "metrics": CostMetrics(**_METRICS[1]),
})
_CURVE = (TechCurve, {"base_value": 100.0})
# Every single-field bound: (record, field, [(value, its error line)],
# [values that pass]).  The failing values lie just outside the bound or
# on an exclusive edge, and NaN fails every bound; the passing values lie
# on an inclusive edge or just inside.  The lines are written out, not
# built from any table of the package.
_BOUNDS = [
    (_SAIL, "thickness", [
        (-1.0, "sail.h: must satisfy h > 0 (got -1.0)"),
        (0.0, "sail.h: must satisfy h > 0 (got 0.0)"),
        (math.nan, "sail.h: must satisfy h > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_SAIL, "density", [
        (-1.0, "sail.rho: must satisfy rho > 0 (got -1.0)"),
        (0.0, "sail.rho: must satisfy rho > 0 (got 0.0)"),
        (math.nan, "sail.rho: must satisfy rho > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_SAIL, "reflectivity", [
        (_BELOW_0, "sail.eps_r: must satisfy 0 <= eps_r <= 1 (got -5e-324)"),
        (_ABOVE_1, "sail.eps_r: must satisfy 0 <= eps_r <= 1 (got 1.0000000000000002)"),
        (math.nan, "sail.eps_r: must satisfy 0 <= eps_r <= 1 (got nan)"),
    ], [0.0, 1.0]),
    (_SAIL, "absorptivity", [
        (_BELOW_0, "sail.alpha: must satisfy 0 <= alpha <= 1 (got -5e-324)"),
        (_ABOVE_1, "sail.alpha: must satisfy 0 <= alpha <= 1 (got 1.0000000000000002)"),
        (math.nan, "sail.alpha: must satisfy 0 <= alpha <= 1 (got nan)"),
    ], [0.0, 1.0]),
    (_SAIL, "shape_factor", [
        (-1.0, "sail.xi: must satisfy xi > 0 (got -1.0)"),
        (0.0, "sail.xi: must satisfy xi > 0 (got 0.0)"),
        (math.nan, "sail.xi: must satisfy xi > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_SAIL, "diameter", [
        (-1.0, "sail.D: must satisfy D > 0 (got -1.0)"),
        (0.0, "sail.D: must satisfy D > 0 (got 0.0)"),
        (math.nan, "sail.D: must satisfy D > 0 (got nan)"),
    ], [_ABOVE_0, None]),
    (_SAIL, "yield_strength", [
        (-1.0, "sail.S_y: must satisfy S_y > 0 (got -1.0)"),
        (0.0, "sail.S_y: must satisfy S_y > 0 (got 0.0)"),
        (math.nan, "sail.S_y: must satisfy S_y > 0 (got nan)"),
    ], [_ABOVE_0, None]),
    (_SAIL, "stress_factor", [
        (-1.0, "sail.s: must satisfy s > 0 (got -1.0)"),
        (0.0, "sail.s: must satisfy s > 0 (got 0.0)"),
        (math.nan, "sail.s: must satisfy s > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_ARRAY, "wavelength", [
        (-1.0, "array.lambda: must satisfy lambda > 0 (got -1.0)"),
        (0.0, "array.lambda: must satisfy lambda > 0 (got 0.0)"),
        (math.nan, "array.lambda: must satisfy lambda > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_ARRAY, "diffraction_factor", [
        (0.0, "array.alpha_d: must satisfy alpha_d >= 1 (got 0.0)"),
        (_BELOW_1, "array.alpha_d: must satisfy alpha_d >= 1 (got 0.9999999999999999)"),
        (math.nan, "array.alpha_d: must satisfy alpha_d >= 1 (got nan)"),
    ], [1.0]),
    (_ARRAY, "shape_factor", [
        (-1.0, "array.xi_arr: must satisfy xi_arr > 0 (got -1.0)"),
        (0.0, "array.xi_arr: must satisfy xi_arr > 0 (got 0.0)"),
        (math.nan, "array.xi_arr: must satisfy xi_arr > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_ARRAY, "beam_fraction", [
        (_BELOW_0, "array.eps_b: must satisfy 0 < eps_b <= 1 (got -5e-324)"),
        (0.0, "array.eps_b: must satisfy 0 < eps_b <= 1 (got 0.0)"),
        (_ABOVE_1, "array.eps_b: must satisfy 0 < eps_b <= 1 (got 1.0000000000000002)"),
        (math.nan, "array.eps_b: must satisfy 0 < eps_b <= 1 (got nan)"),
    ], [_ABOVE_0, 1.0]),
    (_ARRAY, "aperture", [
        (-1.0, "array.d: must satisfy d > 0 (got -1.0)"),
        (0.0, "array.d: must satisfy d > 0 (got 0.0)"),
        (math.nan, "array.d: must satisfy d > 0 (got nan)"),
    ], [_ABOVE_0, None]),
    (_ARRAY, "power", [
        (-1.0, "array.P0: must satisfy P0 >= 0 (got -1.0)"),
        (_BELOW_0, "array.P0: must satisfy P0 >= 0 (got -5e-324)"),
        (math.nan, "array.P0: must satisfy P0 >= 0 (got nan)"),
    ], [0.0, None]),
    (_PAYLOAD, "mass", [
        (-1.0, "payload.m0: must satisfy m0 > 0 (got -1.0)"),
        (0.0, "payload.m0: must satisfy m0 > 0 (got 0.0)"),
        (math.nan, "payload.m0: must satisfy m0 > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_METRICS, "laser_usd_per_watt", [
        (-1.0, "metrics.a1: must satisfy a1 >= 0 (got -1.0)"),
        (_BELOW_0, "metrics.a1: must satisfy a1 >= 0 (got -5e-324)"),
        (math.nan, "metrics.a1: must satisfy a1 >= 0 (got nan)"),
    ], [0.0]),
    (_METRICS, "optics_usd_per_m2", [
        (-1.0, "metrics.a2: must satisfy a2 >= 0 (got -1.0)"),
        (_BELOW_0, "metrics.a2: must satisfy a2 >= 0 (got -5e-324)"),
        (math.nan, "metrics.a2: must satisfy a2 >= 0 (got nan)"),
    ], [0.0]),
    (_METRICS, "energy_usd_per_joule", [
        (-1.0, "metrics.a3: must satisfy a3 >= 0 (got -1.0)"),
        (_BELOW_0, "metrics.a3: must satisfy a3 >= 0 (got -5e-324)"),
        (math.nan, "metrics.a3: must satisfy a3 >= 0 (got nan)"),
    ], [0.0]),
    (_METRICS, "storage_usd_per_joule", [
        (-1.0, "metrics.a4: must satisfy a4 >= 0 (got -1.0)"),
        (_BELOW_0, "metrics.a4: must satisfy a4 >= 0 (got -5e-324)"),
        (math.nan, "metrics.a4: must satisfy a4 >= 0 (got nan)"),
    ], [0.0]),
    (_METRICS, "storage_efficiency", [
        (_BELOW_0, "metrics.eps_storage: must satisfy 0 < eps_storage <= 1 (got -5e-324)"),
        (0.0, "metrics.eps_storage: must satisfy 0 < eps_storage <= 1 (got 0.0)"),
        (_ABOVE_1,
         "metrics.eps_storage: must satisfy 0 < eps_storage <= 1 (got 1.0000000000000002)"),
        (math.nan, "metrics.eps_storage: must satisfy 0 < eps_storage <= 1 (got nan)"),
    ], [_ABOVE_0, 1.0]),
    (_METRICS, "shots", [
        (0.0, "metrics.N_shot: must satisfy N_shot >= 1 (got 0.0)"),
        (_BELOW_1, "metrics.N_shot: must satisfy N_shot >= 1 (got 0.9999999999999999)"),
        (math.nan, "metrics.N_shot: must satisfy N_shot >= 1 (got nan)"),
    ], [1.0]),
    # A Scenario with no target, or with both, builds: that exactly one
    # is set is a rule of the file format.
    (_SCENARIO, "beta_target", [
        (-1.0, "target.beta0: must satisfy 0 < beta0 < 1 (got -1.0)"),
        (0.0, "target.beta0: must satisfy 0 < beta0 < 1 (got 0.0)"),
        (1.0, "target.beta0: must satisfy 0 < beta0 < 1 (got 1.0)"),
        (math.nan, "target.beta0: must satisfy 0 < beta0 < 1 (got nan)"),
    ], [_ABOVE_0, _BELOW_1, None]),
    (_SCENARIO, "budget_target", [
        (-1.0, "target.budget: must satisfy budget > 0 (got -1.0)"),
        (0.0, "target.budget: must satisfy budget > 0 (got 0.0)"),
        (math.nan, "target.budget: must satisfy budget > 0 (got nan)"),
    ], [_ABOVE_0, None]),
    (_CURVE, "base_value", [
        (-1.0, "techcurve.a1_base: must satisfy a1_base > 0 (got -1.0)"),
        (0.0, "techcurve.a1_base: must satisfy a1_base > 0 (got 0.0)"),
        (math.nan, "techcurve.a1_base: must satisfy a1_base > 0 (got nan)"),
    ], [_ABOVE_0]),
    (_CURVE, "halving_months", [
        (-1.0, "techcurve.halving_months: must satisfy halving_months > 0 (got -1.0)"),
        (0.0, "techcurve.halving_months: must satisfy halving_months > 0 (got 0.0)"),
        (math.nan, "techcurve.halving_months: must satisfy halving_months > 0 (got nan)"),
    ], [_ABOVE_0]),
]


def _bound_case(record, field, value, error):
    (cls, base), shown = record, "None" if value is None else repr(value)
    return pytest.param(cls, {**base, field: value}, error, id=f"{cls.__name__}.{field}={shown}")


@pytest.mark.parametrize(
    ("cls", "fields", "error"),
    [
        _bound_case(record, field, value, error)
        for record, field, failing, passing in _BOUNDS
        for value, error in [*failing, *((value, None) for value in passing)]
    ],
)
def test_each_single_field_bound_gives_its_error_line(cls, fields, error):
    if error is None:
        assert vars(cls(**fields)).items() >= fields.items()
        return
    with pytest.raises(ValidationError) as info:
        cls(**fields)
    assert str(info.value) == error


def test_every_rule_of_the_field_table_is_pinned_above():
    pinned = {error.split(":")[0] for *_, failing, _ in _BOUNDS for _, error in failing}
    assert pinned == {key for key, (*_, rule) in FIELDS.items() if rule is not None}
    assert len(pinned) == 25


@pytest.mark.parametrize(
    ("cls", "fields", "error"),
    [
        # Two bad fields: the first in the record's field order is
        # reported, whatever order a table lists them in.
        (SailSpec, {**_SAIL[1], "diameter": -1.0, "stress_factor": -1.0},
         "sail.D: must satisfy D > 0 (got -1.0)"),
        (SailSpec, {**_SAIL[1], "thickness": math.nan, "density": -1.0},
         "sail.h: must satisfy h > 0 (got nan)"),
        # The cross-field rules, each with every field in bounds.
        (SailSpec, {**_SAIL[1], "reflectivity": 0.0, "absorptivity": 0.0},
         "sail: must satisfy 2 eps_r + (1 - eps_r) alpha > 0 (got (0.0, 0.0))"),
        (CostMetrics, {"laser_usd_per_watt": 0.0, "optics_usd_per_m2": 0.0},
         "metrics: must satisfy a1 > 0 or a2 > 0 (got (0.0, 0.0))"),
    ],
)
def test_first_failing_rule_is_reported(cls, fields, error):
    with pytest.raises(ValidationError) as info:
        cls(**fields)
    assert str(info.value) == error


def test_coupling_counts_photon_momentum():
    """eta from photon momentum: a reflected photon gives the sail twice
    its momentum, an absorbed one gives it once.  Half the light reflected
    and half the rest absorbed: 0.5 * 2 + 0.25 * 1."""
    assert SailSpec(1e-6, 1000.0, 0.5, 0.5).coupling == 1.25
    assert SailSpec(1e-6, 1000.0, 1.0).coupling == 2.0
    assert SailSpec(1e-6, 1000.0, 0.0, 1.0).coupling == 1.0
