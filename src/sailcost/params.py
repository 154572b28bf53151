"""Validated parameter records for the sail, the laser array, the payload,
and the unit-cost metrics, and ``FIELDS``, the table of every scenario
field with its bound.

All fields are SI.  Validation happens at construction so every function
downstream can assume the documented invariants.
"""

import math
import operator

from . import model
from .errors import ValidationError


def require(cond: bool, name: str, constraint: str, value) -> None:
    if not cond:
        raise ValidationError(f"{name}: must satisfy {constraint} (got {value!r})")


# Every scenario field, in dump order:
# key -> (kind, record, attribute, kernel name, rule).
# kind is the SI unit of a dimensioned field, or "number" (bare
# dimensionless), "string" or "reserved-zero".  record is the Scenario
# attribute that holds the field, None for the Scenario's own.  Defaults
# are those of the record class; a field without one is required.  The
# kernel name is the parameter the field feeds in the kernels of ``model``
# (``scenario.kernel_point``), or None where no kernel reads the field.
# The rule is the field's own bound as its error message writes it, or
# None; the record class of that ``group`` checks it (``Record``).
FIELDS: dict[str, tuple[str, str | None, str | None, str | None, str | None]] = {
    "name": ("string", None, "name", None, None),
    "mode": ("string", None, "mode", None, None),
    "target.beta0": ("number", None, "beta_target", "beta", "0 < beta0 < 1"),
    "target.budget": ("usd", None, "budget_target", "total_usd", "budget > 0"),
    "payload.m0": ("kg", "payload", "mass", "m0", "m0 > 0"),
    "sail.h": ("m", "sail", "thickness", "h", "h > 0"),
    "sail.rho": ("kg/m3", "sail", "density", "rho", "rho > 0"),
    "sail.eps_r": ("number", "sail", "reflectivity", "reflectivity", "0 <= eps_r <= 1"),
    "sail.alpha": ("number", "sail", "absorptivity", "absorptivity", "0 <= alpha <= 1"),
    "sail.xi": ("number", "sail", "shape_factor", "xi", "xi > 0"),
    "sail.s": ("number", "sail", "stress_factor", "stress_factor", "s > 0"),
    "sail.D": ("m", "sail", "diameter", "sail_diameter", "D > 0"),
    "sail.S_y": ("Pa", "sail", "yield_strength", "yield_strength", "S_y > 0"),
    "array.lambda": ("m", "array", "wavelength", "wavelength", "lambda > 0"),
    "array.alpha_d": (
        "number", "array", "diffraction_factor", "diffraction_factor", "alpha_d >= 1"
    ),
    "array.xi_arr": ("number", "array", "shape_factor", "array_shape", "xi_arr > 0"),
    "array.eps_b": ("number", "array", "beam_fraction", "beam_fraction", "0 < eps_b <= 1"),
    "array.d": ("m", "array", "aperture", "aperture", "d > 0"),
    "array.P0": ("W", "array", "power", "power", "P0 >= 0"),
    "metrics.a1": ("usd/W", "metrics", "laser_usd_per_watt", "a1", "a1 >= 0"),
    "metrics.a2": ("usd/m2", "metrics", "optics_usd_per_m2", "a2", "a2 >= 0"),
    "metrics.a3": ("usd/J", "metrics", "energy_usd_per_joule", "a3", "a3 >= 0"),
    "metrics.a4": ("usd/J", "metrics", "storage_usd_per_joule", "a4", "a4 >= 0"),
    "metrics.eps_storage": (
        "number", "metrics", "storage_efficiency", "storage_efficiency", "0 < eps_storage <= 1"
    ),
    "metrics.N_shot": ("number", "metrics", "shots", "shots", "N_shot >= 1"),
    "techcurve.a1_base": ("usd/W", "curve", "base_value", None, "a1_base > 0"),
    "techcurve.reference_month": ("number", "curve", "reference_month", None, None),
    "techcurve.halving_months": ("number", "curve", "halving_months", None, "halving_months > 0"),
}
# Cost items 5-9 (personnel, land, launch, payload) are reserved for
# forward compatibility: configs may name them but only with value 0, and
# they are stored nowhere.
for _item in ("a5", "a6", "a7", "a8", "a9"):
    FIELDS[f"metrics.{_item}"] = ("reserved-zero", "metrics", None, None, None)

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compile_rule(rule: str):
    """The test that ``rule`` writes, ``<symbol> <op> <bound>`` or
    ``<lo> <op> <symbol> <op> <hi>``.  NaN fails every comparison, so
    every rule."""
    parts = rule.split()
    if len(parts) == 3:
        compare, bound = _COMPARE[parts[1]], float(parts[2])
        return lambda value: compare(value, bound)
    lo, below, above, hi = float(parts[0]), _COMPARE[parts[1]], _COMPARE[parts[3]], float(parts[4])
    return lambda value: below(lo, value) and above(value, hi)


class Record:
    """A frozen record: its fields are the class annotations, in order,
    and a class attribute named like a field is that field's default.

    Built by position or keyword; the fields fill ``__dict__`` in field
    order, so ``vars(record)`` is the record as a dict.  Then a class
    declared with ``group=<record of FIELDS>`` (None for the Scenario's
    own fields) checks the rule of each of its fields, in field order and
    skipping None, and ``__post_init__`` checks the rules that span
    fields; a class declared without a group checks no rule.  Records
    compare equal only to records of the same type with equal fields.  A
    changed copy comes from ``replace``, which runs the checks again.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _rules: tuple = ()

    def __init_subclass__(cls, group=...):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        rules = {
            attr: (key, rule, _compile_rule(rule))
            for key, (_, record, attr, _, rule) in FIELDS.items()
            if record == group and rule is not None
        }
        cls._rules = tuple((name, *rules[name]) for name in cls._fields if name in rules)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields, state = cls._fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        state.update(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
        for name in kwargs:
            problem = "got multiple values for" if name in state else "got an unexpected keyword"
            raise TypeError(f"{cls.__name__}() {problem} argument {name!r}")
        for name, key, rule, holds in cls._rules:
            value = state[name]
            require(value is None or holds(value), key, rule, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: records are frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: records are frozen")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with some fields changed, checked as a new record is."""
        return type(self)(**{**self.__dict__, **changes})


class SailSpec(Record, group="sail"):
    """Sail material and geometry.

    thickness h [m], density rho [kg/m^3], reflectivity and absorptivity
    in [0, 1], areal shape factor xi (pi/4 for a circular sail).  The
    diameter is optional: in the mass-optimized regime it is derived.
    yield_strength [Pa] and the dimensionless stress geometry factor are
    only needed for the strength-limited regime; the stress factor has no
    canonical published value and defaults to 1.
    """

    thickness: float
    density: float
    reflectivity: float
    absorptivity: float = 0.0
    shape_factor: float = math.pi / 4
    diameter: float | None = None
    yield_strength: float | None = None
    stress_factor: float = 1.0

    def __post_init__(self):
        # A sail that neither reflects nor absorbs feels no thrust.
        pair = (self.reflectivity, self.absorptivity)
        require(self.coupling > 0, "sail", "2 eps_r + (1 - eps_r) alpha > 0", pair)

    @property
    def coupling(self) -> float:
        """Momentum coupling factor: 2 for a perfect reflector, 1 for a
        perfect absorber."""
        return model.coupling(self.reflectivity, self.absorptivity)

    @property
    def mass(self) -> float:
        """Sail mass xi * D^2 * h * rho; requires the diameter."""
        if self.diameter is None:
            raise ValidationError("sail.D: diameter required to compute sail mass")
        return model.sail_mass(self.shape_factor, self.diameter, self.thickness, self.density)


class ArraySpec(Record, group="array"):
    """Laser array: aperture size d [m], wavelength [m], diffraction
    factor (1.22 for a circular aperture), array shape factor (pi/4
    circular, 1 square), main-beam fraction eps_b, and main-beam power
    P0 [W].  Aperture and power are optional where they are outputs of
    an optimization rather than inputs.
    """

    wavelength: float
    diffraction_factor: float = 1.22
    shape_factor: float = math.pi / 4
    beam_fraction: float = 1.0
    aperture: float | None = None
    power: float | None = None

    @property
    def optical_power(self) -> float:
        """Total produced optical power P0 / eps_b."""
        if self.power is None:
            raise ValidationError("array.P0: power required to compute optical power")
        return self.power / self.beam_fraction


class Payload(Record, group="payload"):
    """Payload mass m0 [kg]."""

    mass: float


class CostMetrics(Record, group="metrics"):
    """Unit costs: laser USD/optical-W, optics USD/m^2, grid energy and
    storage USD/J, end-to-end storage efficiency, and the shot count used
    for lifetime energy amortization.
    """

    laser_usd_per_watt: float
    optics_usd_per_m2: float
    energy_usd_per_joule: float = 0.0
    storage_usd_per_joule: float = 0.0
    storage_efficiency: float = 1.0
    shots: float = 1.0

    def __post_init__(self):
        a1, a2 = self.laser_usd_per_watt, self.optics_usd_per_m2
        require(a1 > 0 or a2 > 0, "metrics", "a1 > 0 or a2 > 0", (a1, a2))
