"""Scenario files: a strict, unit-suffixed key-value format, plus the
deterministic CSV/JSON result emitters.

Grammar (one statement per line):

    # comment
    name = example1
    mode = optimized
    [sail]
    h = 1 um

Sections group keys; every dimensioned value carries a unit suffix and
bare numbers are rejected for dimensioned fields (the top failure mode
in mixed-unit cost formulas is a silently mis-scaled input).  Unknown
keys are errors.  Exactly one of target.beta0 / target.budget must be
present.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, replace

from .errors import ParseError, UnitError, ValidationError
from .params import ArraySpec, CostMetrics, Payload, RESERVED_COST_ITEMS, SailSpec
from .roadmap import TechCurve
from .units import parse_quantity

MODES = ("optimized", "non-optimized", "strength-limited")

# key -> (kind, default). kind is a dimension name, "number" (bare
# dimensionless), "string", or "reserved-zero".
_SCHEMA: dict[str, tuple[str, object]] = {
    "name": ("string", None),
    "mode": ("string", None),
    "target.beta0": ("number", None),
    "target.budget": ("cost", None),
    "payload.m0": ("mass", None),
    "sail.h": ("length", None),
    "sail.rho": ("density", None),
    "sail.eps_r": ("number", None),
    "sail.alpha": ("number", 0.0),
    "sail.xi": ("number", math.pi / 4),
    "sail.D": ("length", None),
    "sail.S_y": ("stress", None),
    "sail.s": ("number", 1.0),
    "array.lambda": ("length", None),
    "array.alpha_d": ("number", 1.22),
    "array.xi_arr": ("number", math.pi / 4),
    "array.eps_b": ("number", 1.0),
    "array.d": ("length", None),
    "array.P0": ("power", None),
    "metrics.a1": ("cost_per_watt", None),
    "metrics.a2": ("cost_per_area", None),
    "metrics.a3": ("cost_per_joule", 0.0),
    "metrics.a4": ("cost_per_joule", 0.0),
    "metrics.eps_storage": ("number", 1.0),
    "metrics.N_shot": ("number", 1.0),
    "techcurve.a1_base": ("cost_per_watt", None),
    "techcurve.reference_month": ("number", 0.0),
    "techcurve.halving_months": ("number", 18.0),
}
# Cost items 5-9 (personnel, land, launch, payload) are reserved for
# forward compatibility and must be zero.
for _item in RESERVED_COST_ITEMS:
    _SCHEMA[f"metrics.{_item}"] = ("reserved-zero", 0.0)

_REQUIRED = (
    "name", "mode", "payload.m0", "sail.h", "sail.rho", "sail.eps_r",
    "array.lambda", "metrics.a1", "metrics.a2",
)


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario, all values SI."""

    name: str
    mode: str
    payload: Payload
    sail: SailSpec
    array: ArraySpec
    metrics: CostMetrics
    beta_target: float | None = None
    budget_target: float | None = None
    curve: TechCurve | None = None


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis: a field path, scale, SI endpoints, and point count."""

    axis: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.axis not in _SCHEMA or _SCHEMA[self.axis][0] in ("string", "reserved-zero"):
            raise ValidationError(f"sweep.axis: not a sweepable field (got {self.axis!r})")
        if not self.start < self.stop:
            raise ValidationError(
                f"sweep: need from < to (got {self.start!r}, {self.stop!r})"
            )
        if self.scale not in ("linear", "log"):
            raise ValidationError(f"sweep.scale: linear or log (got {self.scale!r})")
        if self.scale == "log" and self.start <= 0:
            raise ValidationError(f"sweep: log scale needs from > 0 (got {self.start!r})")
        if self.points < 2:
            raise ValidationError(f"sweep.points: need >= 2 (got {self.points!r})")

    def grid(self) -> list[float]:
        n = self.points
        if self.scale == "log":
            ratio = self.stop / self.start
            return [self.start * ratio ** (i / (n - 1)) for i in range(n)]
        step = (self.stop - self.start) / (n - 1)
        return [self.start + i * step for i in range(n)]


def parse_entries(text: str) -> dict[str, tuple[str, int]]:
    """Parse scenario text into {dotted key: (raw value, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno, raw.index("["))
            section = line[1:-1].strip()
            if not section:
                raise ParseError("empty section name", lineno)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value' (got {line!r})", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(f"expected 'key = value' (got {line!r})", lineno)
        dotted = f"{section}.{key}" if section else key
        if dotted in entries:
            raise ParseError(f"duplicate key {dotted!r}", lineno)
        entries[dotted] = (value, lineno)
    return entries


def apply_overrides(
    entries: dict[str, tuple[str, int]], overrides: list[str]
) -> dict[str, tuple[str, int]]:
    """Merge ``field.path=value`` overrides; they re-validate exactly like
    file values (line number 0 marks an override)."""
    merged = dict(entries)
    for spec in overrides:
        if "=" not in spec:
            raise ValidationError(f"override must be field.path=value (got {spec!r})")
        key, value = (part.strip() for part in spec.split("=", 1))
        merged[key] = (value, 0)
    return merged


def parse_number(raw: str, where: str) -> float:
    """A finite bare number; ``where`` names the input in the error."""
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{where}: expected a bare number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: non-finite value {raw!r}")
    return value


def parse_sweep_value(axis: str, raw: str, where: str) -> float:
    """A sweep endpoint for field ``axis``: a bare number or a quantity."""
    if axis not in _SCHEMA:
        raise ValidationError(f"unknown sweep axis {axis!r}")
    kind = _SCHEMA[axis][0]
    if kind == "number":
        return parse_number(raw, where)
    return parse_quantity(raw, kind, field=where)


def _value(entries, key):
    kind, default = _SCHEMA[key]
    if key not in entries:
        return default
    raw, lineno = entries[key]
    where = f"{key} (line {lineno})"
    if kind == "string":
        return raw
    if kind == "number":
        return parse_number(raw, where)
    if kind == "reserved-zero":
        try:
            num = float(raw)
        except ValueError:
            raise ValidationError(f"{where}: expected 0, got {raw!r}") from None
        if num != 0:
            raise ValidationError(
                f"{where}: reserved cost item, only 0 is accepted (got {raw!r})"
            )
        return 0.0
    try:
        return parse_quantity(raw, kind, field=key)
    except UnitError as exc:
        raise UnitError(f"line {lineno}: {exc}") from None


def build_scenario(entries: dict[str, tuple[str, int]]) -> Scenario:
    """Validate raw entries and assemble a Scenario in SI units."""
    for key, (_, lineno) in entries.items():
        if key not in _SCHEMA:
            raise ValidationError(f"unknown key {key!r} (line {lineno})")
    for key in _REQUIRED:
        if key not in entries:
            raise ValidationError(f"missing required key {key!r}")

    def get(key):
        return _value(entries, key)

    mode = get("mode")
    if mode not in MODES:
        raise ValidationError(f"mode: expected one of {MODES} (got {mode!r})")

    beta = get("target.beta0")
    budget = get("target.budget")
    if (beta is None) == (budget is None):
        raise ValidationError(
            "target: exactly one of target.beta0 / target.budget must be set"
        )
    if beta is not None and not 0 < beta < 1:
        raise ValidationError(f"target.beta0: must be in (0, 1) (got {beta!r})")
    if budget is not None and budget <= 0:
        raise ValidationError(f"target.budget: must be > 0 (got {budget!r})")

    scenario = Scenario(
        name=get("name"),
        mode=mode,
        payload=Payload(mass=get("payload.m0")),
        sail=SailSpec(
            thickness=get("sail.h"),
            density=get("sail.rho"),
            reflectivity=get("sail.eps_r"),
            absorptivity=get("sail.alpha"),
            shape_factor=get("sail.xi"),
            diameter=get("sail.D"),
            yield_strength=get("sail.S_y"),
            stress_factor=get("sail.s"),
        ),
        array=ArraySpec(
            wavelength=get("array.lambda"),
            diffraction_factor=get("array.alpha_d"),
            shape_factor=get("array.xi_arr"),
            beam_fraction=get("array.eps_b"),
            aperture=get("array.d"),
            power=get("array.P0"),
        ),
        metrics=CostMetrics(
            laser_usd_per_watt=get("metrics.a1"),
            optics_usd_per_m2=get("metrics.a2"),
            energy_usd_per_joule=get("metrics.a3"),
            storage_usd_per_joule=get("metrics.a4"),
            storage_efficiency=get("metrics.eps_storage"),
            shots=get("metrics.N_shot"),
        ),
        beta_target=beta,
        budget_target=budget,
        curve=(
            TechCurve(
                base_value=get("techcurve.a1_base"),
                reference_month=get("techcurve.reference_month"),
                halving_months=get("techcurve.halving_months"),
            )
            if "techcurve.a1_base" in entries
            else None
        ),
    )
    for key in RESERVED_COST_ITEMS:
        get(f"metrics.{key}")
    return scenario


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return build_scenario(parse_entries(fh.read()))


def dump_scenario(scenario: Scenario) -> str:
    """Serialize in canonical SI units; loading the output reproduces the
    scenario exactly (floats round-trip through repr)."""
    s, a, m, p = scenario.sail, scenario.array, scenario.metrics, scenario.payload
    lines = [f"name = {scenario.name}", f"mode = {scenario.mode}", "", "[target]"]
    if scenario.beta_target is not None:
        lines.append(f"beta0 = {scenario.beta_target!r}")
    else:
        lines.append(f"budget = {scenario.budget_target!r} usd")
    lines += ["", "[payload]", f"m0 = {p.mass!r} kg"]
    lines += [
        "", "[sail]",
        f"h = {s.thickness!r} m",
        f"rho = {s.density!r} kg/m3",
        f"eps_r = {s.reflectivity!r}",
        f"alpha = {s.absorptivity!r}",
        f"xi = {s.shape_factor!r}",
        f"s = {s.stress_factor!r}",
    ]
    if s.diameter is not None:
        lines.append(f"D = {s.diameter!r} m")
    if s.yield_strength is not None:
        lines.append(f"S_y = {s.yield_strength!r} Pa")
    lines += [
        "", "[array]",
        f"lambda = {a.wavelength!r} m",
        f"alpha_d = {a.diffraction_factor!r}",
        f"xi_arr = {a.shape_factor!r}",
        f"eps_b = {a.beam_fraction!r}",
    ]
    if a.aperture is not None:
        lines.append(f"d = {a.aperture!r} m")
    if a.power is not None:
        lines.append(f"P0 = {a.power!r} W")
    lines += [
        "", "[metrics]",
        f"a1 = {m.laser_usd_per_watt!r} usd/W",
        f"a2 = {m.optics_usd_per_m2!r} usd/m2",
        f"a3 = {m.energy_usd_per_joule!r} usd/J",
        f"a4 = {m.storage_usd_per_joule!r} usd/J",
        f"eps_storage = {m.storage_efficiency!r}",
        f"N_shot = {m.shots!r}",
    ]
    if scenario.curve is not None:
        c = scenario.curve
        lines += [
            "", "[techcurve]",
            f"a1_base = {c.base_value!r} usd/W",
            f"reference_month = {c.reference_month!r}",
            f"halving_months = {c.halving_months!r}",
        ]
    return "\n".join(lines) + "\n"


# Sweepable field -> (Scenario attribute holding its record, or None for a
# target, and the field's attribute).
SWEEP_FIELDS = {
    "payload.m0": ("payload", "mass"),
    "sail.h": ("sail", "thickness"),
    "sail.rho": ("sail", "density"),
    "sail.eps_r": ("sail", "reflectivity"),
    "sail.alpha": ("sail", "absorptivity"),
    "sail.xi": ("sail", "shape_factor"),
    "sail.D": ("sail", "diameter"),
    "sail.S_y": ("sail", "yield_strength"),
    "sail.s": ("sail", "stress_factor"),
    "array.lambda": ("array", "wavelength"),
    "array.alpha_d": ("array", "diffraction_factor"),
    "array.xi_arr": ("array", "shape_factor"),
    "array.eps_b": ("array", "beam_fraction"),
    "array.d": ("array", "aperture"),
    "array.P0": ("array", "power"),
    "metrics.a1": ("metrics", "laser_usd_per_watt"),
    "metrics.a2": ("metrics", "optics_usd_per_m2"),
    "metrics.a3": ("metrics", "energy_usd_per_joule"),
    "metrics.a4": ("metrics", "storage_usd_per_joule"),
    "metrics.eps_storage": ("metrics", "storage_efficiency"),
    "metrics.N_shot": ("metrics", "shots"),
    "target.beta0": (None, "beta_target"),
    "target.budget": (None, "budget_target"),
}


def sweep_field(axis: str) -> tuple[str | None, str]:
    """The (record, attribute) pair of a sweepable field."""
    if axis not in SWEEP_FIELDS:
        raise ValidationError(f"cannot sweep {axis!r}")
    return SWEEP_FIELDS[axis]


def scenario_with(scenario: Scenario, axis: str, si_value: float) -> Scenario:
    """Copy of a scenario with one schema field replaced (SI value)."""
    group, attr = sweep_field(axis)
    if group is None:
        return replace(scenario, **{attr: si_value})
    return replace(
        scenario, **{group: replace(getattr(scenario, group), **{attr: si_value})}
    )


def format_number(value) -> str:
    """Shortest decimal that round-trips to the same float."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_results(records: list[dict], fmt: str, destination) -> int:
    """Write records deterministically; returns the byte count.

    CSV keeps the column order of the first record; JSON preserves key
    order.  Identical inputs always produce byte-identical output (LF
    line endings, UTF-8, shortest round-trip floats, no timestamps).
    """
    if fmt == "csv":
        buf = io.StringIO()
        columns = list(records[0].keys()) if records else []
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            if list(record.keys()) != columns:
                raise ValidationError("records must be homogeneous for CSV output")
            writer.writerow([format_number(record[c]) for c in columns])
        payload = buf.getvalue()
    elif fmt == "json":
        payload = json.dumps(records, indent=2) + "\n"
    else:
        raise ValidationError(f"unknown output format {fmt!r}")
    data = payload.encode("utf-8")
    write_text([payload], destination)
    return len(data)


def write_text(lines: list[str], destination) -> None:
    """Write text pieces in order to a stream, or as UTF-8 to a path.
    The pieces are written one by one, so a table passed as its lines is
    never joined into one string."""
    if hasattr(destination, "write"):
        destination.writelines(lines)
    else:
        try:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise ValidationError(f"cannot write {destination!r}: {exc}") from exc
