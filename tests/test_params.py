import math

import pytest

from sailcost import scenario
from sailcost.checks import CheckResult
from sailcost.costs import CostBreakdown, OptimumDesign
from sailcost.energy import ShotEnergy
from sailcost.errors import ValidationError
from sailcost.kinematics import KinematicsResult
from sailcost.optimize import SpeedMaxResult
from sailcost.params import ArraySpec, CostMetrics, Payload, Record, SailSpec
from sailcost.roadmap import Stage, StagePlan
from sailcost.scenario import Scenario, SweepSpec, TechCurve

RECORDS = [
    SailSpec, ArraySpec, Payload, CostMetrics, CostBreakdown, OptimumDesign,
    KinematicsResult, ShotEnergy, TechCurve, Scenario, SweepSpec,
    SpeedMaxResult, Stage, StagePlan, CheckResult,
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
