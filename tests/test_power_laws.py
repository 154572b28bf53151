"""The paper's power laws as metamorphic relations: scale one field by
``k`` and each closed-form answer scales by ``k**e``.  The exponents are
ROADMAP item 19's exponent column, derived from README's equations, not
from the code, so a wrong exponent in a kernel that every path shares
fails here although the paths still agree with one another."""

import csv
import io
import itertools
import json
import math
import os
import random

import pytest

from sailcost.cli import main
from sailcost.scenario import FIELDS, load_scenario

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
EX1 = os.path.join(FIXTURES, "example1.scn")
EX3 = os.path.join(FIXTURES, "example3.scn")

# Field -> exponents of (C_T and d* at speed, beta0 and d* at a budget),
# at zero energy terms; None where the answer does not take the field.
_LAMBDA_LIKE = (2 / 3, 1 / 3, -1 / 2, 0)
_ARRAY_LIKE = (1 / 3, -1 / 3, -1 / 4, -1 / 2)
_MASS_LIKE = (1 / 3, 1 / 6, -1 / 4, 0)
EXPONENTS = {
    "metrics.a1": _LAMBDA_LIKE,
    "array.lambda": _LAMBDA_LIKE,
    "array.alpha_d": _LAMBDA_LIKE,
    "metrics.a2": _ARRAY_LIKE,
    "array.xi_arr": _ARRAY_LIKE,
    "array.eps_b": (-2 / 3, -1 / 3, 1 / 2, 0),
    "payload.m0": _MASS_LIKE,
    "sail.h": _MASS_LIKE,
    "sail.rho": _MASS_LIKE,
    "sail.xi": _MASS_LIKE,
    "target.beta0": (4 / 3, 2 / 3, None, None),
    "target.budget": (None, None, 3 / 4, 1 / 2),
}
# Set on both runs of their own field, so that any k in [0.5, 2] keeps
# the scaled value within its bound (alpha_d >= 1, eps_b <= 1).
CENTRED = {"array.alpha_d": 2.0, "array.eps_b": 0.5}
# Subcommand, fixture, exponent slice and the answers it reads.
ANSWERS = (
    ("optimize", EX1, slice(0, 2), (("costs", "C_T"), ("optimum", "d_m"))),
    ("max-speed", EX3, slice(2, 4), (("kinematics", "beta0"), ("optimum", "d_m"))),
)
REL = 1e-13


def _document(capsys, command, fixture, sets):
    argv = [command, fixture]
    for key, value in sets.items():
        kind = FIELDS[key][0]
        unit = "" if kind == "number" else f" {kind}"
        argv += ["--set", f"{key}={value!r}{unit}"]
    assert main(argv) == 0, argv
    return json.loads(capsys.readouterr().out)[0]


def _given(fixture, key):
    """The SI value of ``key`` in ``fixture``, its default included."""
    scenario = load_scenario(fixture)
    _, record, attr, *_ = FIELDS[key]
    return getattr(scenario if record is None else getattr(scenario, record), attr)


@pytest.mark.parametrize("key", sorted(EXPONENTS))
def test_each_answer_scales_with_its_field_as_its_power_law(capsys, key):
    k = random.Random(key).uniform(0.5, 2)
    for command, fixture, columns, answers in ANSWERS:
        exponents = EXPONENTS[key][columns]
        if exponents[0] is None:
            continue
        base = {key: CENTRED[key]} if key in CENTRED else {}
        given = base[key] if base else _given(fixture, key)
        before = _document(capsys, command, fixture, base)
        after = _document(capsys, command, fixture, {**base, key: given * k})
        for exponent, (block, name) in zip(exponents, answers):
            ratio = after[block][name] / before[block][name]
            assert ratio == pytest.approx(k**exponent, rel=REL), (command, key, name)


def test_roadmap_entry_months_follow_the_laser_metric_power_law(capsys):
    """At a fixed budget a1 goes as beta^-2, and the curve halves a1 every
    halving_months, so two stages x1 < x2 enter
    2 * halving_months * log2(x2 / x1) months apart."""
    stages = (0.1, 1.0, 2.0, 20.0)
    assert main(["roadmap", EX3, "--stages", ",".join(map(repr, stages))]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    months = [float(row["entry_month"]) for row in rows]
    halving = load_scenario(EX3).curve.halving_months
    for (x1, m1), (x2, m2) in itertools.combinations(zip(stages, months), 2):
        assert m2 - m1 == pytest.approx(2 * halving * math.log2(x2 / x1), rel=REL), (x1, x2)
