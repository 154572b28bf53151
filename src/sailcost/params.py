"""Validated parameter records for the sail, the laser array, the payload,
and the unit-cost metrics.

All fields are SI.  Validation happens at construction so every function
downstream can assume the documented invariants.
"""

import math

from . import model
from .errors import ValidationError
from .model import require


class Record:
    """A frozen record: its fields are the class annotations, in order,
    and a class attribute named like a field is that field's default.

    Built by position or keyword; the fields fill ``__dict__`` in field
    order, so ``vars(record)`` is the record as a dict, and then
    ``__post_init__`` checks them.  Records compare equal only to records
    of the same type with equal fields.  A changed copy comes from
    ``replace``, which runs the checks again.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

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


class SailSpec(Record):
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
        require(self.thickness > 0, "sail.h", "h > 0", self.thickness)
        require(self.density > 0, "sail.rho", "rho > 0", self.density)
        reflectivity, absorptivity = self.reflectivity, self.absorptivity
        require(0 <= reflectivity <= 1, "sail.eps_r", "0 <= eps_r <= 1", reflectivity)
        require(0 <= absorptivity <= 1, "sail.alpha", "0 <= alpha <= 1", absorptivity)
        require(self.shape_factor > 0, "sail.xi", "xi > 0", self.shape_factor)
        if self.diameter is not None:
            require(self.diameter > 0, "sail.D", "D > 0", self.diameter)
        if self.yield_strength is not None:
            require(self.yield_strength > 0, "sail.S_y", "S_y > 0", self.yield_strength)
        require(self.stress_factor > 0, "sail.s", "s > 0", self.stress_factor)
        # A sail that neither reflects nor absorbs feels no thrust.
        require(
            model.coupling(reflectivity, absorptivity) > 0,
            "sail", "2 eps_r + (1 - eps_r) alpha > 0", (reflectivity, absorptivity),
        )

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


class ArraySpec(Record):
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

    def __post_init__(self):
        require(self.wavelength > 0, "array.lambda", "lambda > 0", self.wavelength)
        require(
            self.diffraction_factor >= 1, "array.alpha_d", "alpha_d >= 1", self.diffraction_factor
        )
        require(self.shape_factor > 0, "array.xi_arr", "xi_arr > 0", self.shape_factor)
        require(0 < self.beam_fraction <= 1, "array.eps_b", "0 < eps_b <= 1", self.beam_fraction)
        if self.aperture is not None:
            require(self.aperture > 0, "array.d", "d > 0", self.aperture)
        if self.power is not None:
            require(self.power >= 0, "array.P0", "P0 >= 0", self.power)

    @property
    def optical_power(self) -> float:
        """Total produced optical power P0 / eps_b."""
        if self.power is None:
            raise ValidationError("array.P0: power required to compute optical power")
        return self.power / self.beam_fraction


class Payload(Record):
    """Payload mass m0 [kg]."""

    mass: float

    def __post_init__(self):
        require(self.mass > 0, "payload.m0", "m0 > 0", self.mass)


# Cost items beyond the four modeled ones (personnel, land, launch,
# payload) are reserved: configs may name them but only with value 0.
RESERVED_COST_ITEMS = ("a5", "a6", "a7", "a8", "a9")


class CostMetrics(Record):
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
        require(a1 >= 0, "metrics.a1", "a1 >= 0", a1)
        require(a2 >= 0, "metrics.a2", "a2 >= 0", a2)
        require(self.energy_usd_per_joule >= 0, "metrics.a3", "a3 >= 0", self.energy_usd_per_joule)
        require(
            self.storage_usd_per_joule >= 0, "metrics.a4", "a4 >= 0", self.storage_usd_per_joule
        )
        require(a1 > 0 or a2 > 0, "metrics", "a1 > 0 or a2 > 0", (a1, a2))
        require(
            0 < self.storage_efficiency <= 1,
            "metrics.eps_storage", "0 < eps_storage <= 1", self.storage_efficiency,
        )
        require(self.shots >= 1, "metrics.N_shot", "N_shot >= 1", self.shots)

