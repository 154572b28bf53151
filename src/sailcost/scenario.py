"""Scenario files: a strict, unit-suffixed key-value format, plus the
text writer that every result leaves through.

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
present.  Every bound on a value is a rule of its ``FIELDS`` row, which
the record that holds the field checks, the Scenario's targets included.
"""

import math

from .errors import ParseError, UnitError, ValidationError
from .params import ArraySpec, CostMetrics, FIELDS, Payload, Record, SailSpec
from .units import dimension_of, parse_quantity

MODES = ("optimized", "non-optimized", "strength-limited")


class TechCurve(Record, group="curve"):
    """Exponentially falling cost metric: halves every halving_months."""

    base_value: float       # USD/unit at the reference month
    reference_month: float = 0.0  # month index of the base value
    halving_months: float = 18.0


class Scenario(Record, group=None):
    """A fully validated scenario, all values SI.  That exactly one target
    is set is a rule of the file format (``build_scenario``), so a target
    sweep can rebuild a scenario that holds both."""

    name: str
    mode: str
    payload: Payload
    sail: SailSpec
    array: ArraySpec
    metrics: CostMetrics
    beta_target: float | None = None
    budget_target: float | None = None
    curve: TechCurve | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode: expected one of {MODES} (got {self.mode!r})")
        # dump_scenario writes the name raw; parse_entries splits the text
        # at line breaks, cuts each line at '#' and strips it.  No other
        # name loads back as itself.
        name = self.name
        if not name or "#" in name or name.strip() != name or len(name.splitlines()) != 1:
            raise ValidationError(
                "name: must be one non-empty line without '#' or leading or "
                f"trailing whitespace (got {name!r})"
            )


# Scenario attribute -> the record class it holds; None stands for the
# Scenario's own fields.  The tech curve is built only when one of its
# keys is given.
_RECORDS = {
    None: Scenario, "payload": Payload, "sail": SailSpec, "array": ArraySpec,
    "metrics": CostMetrics, "curve": TechCurve,
}

# Keys whose field has no default (no class attribute of its record), in
# table order: required whenever their record is built.
_DEFAULTLESS = tuple(
    key for key, (_, record, attr, *_) in FIELDS.items()
    if attr is not None and not hasattr(_RECORDS[record], attr)
)
# Sweepable field -> its table row: every stored number outside the tech curve.
SWEEP_FIELDS = {
    key: row for key, row in FIELDS.items()
    if row[0] not in ("string", "reserved-zero") and row[1] != "curve"
}
# Kernel name -> the (record, attribute) of the field that feeds it.
_KERNEL_SOURCES = {
    name: (record, attr) for _, record, attr, name, _ in FIELDS.values() if name is not None
}


def kernel_point(kernel, payload=None, sail=None, array=None, metrics=None, **given) -> dict:
    """The flat SI point a kernel of ``model`` takes by keyword:
    {parameter: value} for each of its parameters in order (so the values
    are its positional arguments).  A parameter named in ``given`` takes
    that value (a target, a trial aperture, a derived ``eta``); any other
    is read from the field that the kernel-name column of FIELDS names,
    and is None when that field or its record is not given.  A ``given``
    name that is neither a parameter of the kernel nor a kernel name of
    FIELDS is a TypeError."""
    holders = {None: None, "payload": payload, "sail": sail, "array": array, "metrics": metrics}
    code = kernel.__code__
    params = code.co_varnames[:code.co_argcount]
    unknown = given.keys() - set(params) - _KERNEL_SOURCES.keys()
    if unknown:
        raise TypeError(f"{kernel.__name__}: no parameter or kernel name {sorted(unknown)}")
    point = {}
    for name in params:
        if name in given:
            point[name] = given[name]
        else:
            record, attr = _KERNEL_SOURCES[name]
            point[name] = getattr(holders[record], attr, None)
    return point


def sweep_field(axis: str) -> tuple[str, str | None, str, str | None, str | None]:
    """The (kind, record, attribute, kernel name, rule) row of a sweepable field."""
    try:
        return SWEEP_FIELDS[axis]
    except KeyError:
        raise ValidationError(f"sweep.axis: not a sweepable field (got {axis!r})") from None


class SweepSpec(Record):
    """One swept axis: a field path, scale, SI endpoints, and point count."""

    axis: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        sweep_field(self.axis)
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
        # The ratio a log grid spans, or the difference a linear grid steps through.
        spread = self.stop / self.start if self.scale == "log" else self.stop - self.start
        if not math.isfinite(spread):
            raise ValidationError(
                f"sweep: the {self.scale} grid from {self.start!r} to {self.stop!r} overflows"
            )

    def values(self, indices: range):
        """The grid points at ``indices``, every one in ``[start, stop]``.
        Point 0 is ``start`` and point ``points - 1`` is ``stop``, exactly;
        point i between them is ``start * (stop / start) ** (i / (points -
        1))`` on the log scale and ``start + i * step`` on the linear one,
        with ``step = (stop - start) / (points - 1)``, clamped into ``[start,
        stop]``: computed, it can round past an end that a bound meets."""
        start, stop, last = self.start, self.stop, self.points - 1
        if self.scale == "log":
            ratio = stop / start
            return (start if i == 0 else stop if i == last
                    else x if start <= (x := start * ratio ** (i / last)) <= stop
                    else min(max(x, start), stop) for i in indices)
        step = (stop - start) / last
        return (start if i == 0 else stop if i == last
                else x if start <= (x := start + i * step) <= stop
                else min(max(x, start), stop) for i in indices)


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
                raise ParseError("unterminated section header", lineno, raw.index("[") + 1)
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
    """A finite bare number, a negative zero as 0.0; ``where`` names the
    input in the error."""
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{where}: expected a bare number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: non-finite value {raw!r}")
    return value or 0.0


def parse_sweep_value(axis: str, raw: str, where: str) -> float:
    """A sweep endpoint for field ``axis``: a bare number or a quantity."""
    kind = sweep_field(axis)[0]
    if kind == "number":
        return parse_number(raw, where)
    return parse_quantity(raw, dimension_of(kind), field=where)


def _value(key, kind, raw, lineno):
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
        return parse_quantity(raw, dimension_of(kind), field=key)
    except UnitError as exc:
        raise UnitError(f"line {lineno}: {exc}") from None


def build_scenario(entries: dict[str, tuple[str, int]]) -> Scenario:
    """Validate raw entries and assemble a Scenario in SI units: every
    value is parsed first, then the records check their own fields."""
    for key, (_, lineno) in entries.items():
        if key not in FIELDS:
            raise ValidationError(f"unknown key {key!r} (line {lineno})")
    built = (set(_RECORDS) - {"curve"}) | {FIELDS[key][1] for key in entries}
    for key in _DEFAULTLESS:
        if key not in entries and FIELDS[key][1] in built:
            raise ValidationError(f"missing required key {key!r}")

    values = {record: {} for record in _RECORDS if record in built}
    for key, (kind, record, attr, *_) in FIELDS.items():
        if key in entries:
            value = _value(key, kind, *entries[key])
            if attr is not None:
                values[record][attr] = value
    top = values.pop(None)
    if ("beta_target" in top) == ("budget_target" in top):
        raise ValidationError("target: exactly one of target.beta0 / target.budget must be set")
    return Scenario(**top, **{record: _RECORDS[record](**kw) for record, kw in values.items()})


def read_entries(path) -> dict[str, tuple[str, int]]:
    """``parse_entries`` of a scenario file, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start} is not UTF-8 ({exc.reason})") from None
    return parse_entries(text)


def load_scenario(path) -> Scenario:
    return build_scenario(read_entries(path))


def dump_scenario(scenario: Scenario) -> str:
    """Serialize in canonical SI units, one section per record and unset
    fields left out; loading the output reproduces the scenario exactly
    (floats round-trip through repr), but for a negative zero, written as
    the 0.0 that loading stores."""
    lines, section = [], ""
    for key, (kind, record, attr, *_) in FIELDS.items():
        holder = scenario if record is None else getattr(scenario, record)
        value = None if holder is None or attr is None else getattr(holder, attr)
        if value is None:
            continue
        head, _, name = key.rpartition(".")
        if head != section:
            section = head
            lines += ["", f"[{head}]"]
        if kind == "string":
            lines.append(f"{name} = {value}")
        elif kind == "number":
            lines.append(f"{name} = {value or 0.0!r}")
        else:
            lines.append(f"{name} = {value or 0.0!r} {kind}")
    return "\n".join(lines) + "\n"


def write_text(lines, destination) -> None:
    """Write text pieces, any iterable of ``str``, in order to a stream, or
    as UTF-8 to a path.  The pieces are written one by one, so a table
    passed as its lines is never joined into one string, and an iterator
    (a sweep's text, read back from its spools) is read only as it is
    written."""
    if hasattr(destination, "write"):
        destination.writelines(lines)
    else:
        try:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise ValidationError(f"cannot write {destination!r}: {exc}") from exc
