"""Numeric optimization over the array size: an independent check on the
closed forms (bracket + golden-section minimization of the constrained
cost), the fixed-budget speed maximum, and the analytic cost curvature.
"""

import math
import os
import sys
import warnings
from contextlib import suppress

from . import model
from .errors import (
    BoundaryOptimumError,
    ConvergenceError,
    NumericRangeError,
    ValidationError,
)
from .costs import CostBreakdown, OptimumDesign, require_cost_mode
from .params import ArraySpec, CostMetrics, Payload, Record, SailSpec
from .scenario import SWEEP_FIELDS, kernel_point

_INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi

# The numeric search is fixed.  Fig.-style sweeps span meter-to-10,000-km
# array sizes; these bounds comfortably contain every closed-form regime.
D_MIN = 1.0
D_MAX = 1e7
REL_TOL = 1e-10  # golden-section stops at this interval width relative to its location
MAX_ITER = 200
_BRACKET_POINTS = 41


class SpeedMaxResult(Record):
    """Fastest design at a fixed budget: the optics get exactly one third
    of the total cost."""

    aperture: float
    power: float
    beta: float
    breakdown: CostBreakdown


def golden_section(f, lo: float, hi: float) -> float:
    """Minimize a unimodal f on [lo, hi]; returns the interval midpoint
    once its width falls below ``REL_TOL`` relative to its location, or
    raises ConvergenceError after ``MAX_ITER`` steps.

    Ties and flat stretches resolve toward the smaller argument, so the
    result is deterministic.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(MAX_ITER):
        if (b - a) <= REL_TOL * (abs(a) + abs(b)) / 2:
            return (a + b) / 2
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    raise ConvergenceError(f"no convergence in {MAX_ITER} iterations", (a + b) / 2)


def _bracket(f, lo: float, hi: float) -> tuple[float, float]:
    """Locate an interior bracket of the minimum on a geometric grid, or
    report which bound is binding."""
    n = _BRACKET_POINTS
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    values = [f(x) for x in grid]
    best = min(range(n), key=lambda i: (values[i], i))
    if best == 0:
        raise BoundaryOptimumError("lower", lo)
    if best == n - 1:
        raise BoundaryOptimumError("upper", hi)
    return grid[best - 1], grid[best + 1]


def constrained_cost(
    aperture: float,
    beta: float,
    payload: Payload,
    sail: SailSpec,
    array: ArraySpec,
    metrics: CostMetrics,
) -> CostBreakdown:
    """Cost of hitting the target speed with a given array size, along the
    physics path (power, then kinematics, then costs); the array's own
    aperture, if any, is not used."""
    model.require(aperture > 0, "array.d", "d > 0", aperture)
    return CostBreakdown(*model.fixed_aperture_design(**kernel_point(
        model.fixed_aperture_design, payload, sail, array, metrics, aperture=aperture, beta=beta
    ))[2:])


def minimize_cost_numeric(
    beta: float,
    payload: Payload,
    sail: SailSpec,
    array: ArraySpec,
    metrics: CostMetrics,
) -> OptimumDesign:
    """Minimize the constrained cost over the array size in
    [``D_MIN``, ``D_MAX``] by bracketing on a geometric grid and refining
    with golden-section; an optimum at a bound is a BoundaryOptimumError.
    The kernel's arguments are built once, before the search: every
    evaluated size lies inside those positive bounds, and an evaluation,
    the final one at the optimum included, changes only the array size in
    those arguments."""
    args = kernel_point(model.fixed_aperture_design, payload, sail, array, metrics, beta=beta)
    point, slot = list(args.values()), list(args).index("aperture")

    def objective(d: float) -> float:
        point[slot] = d
        _, _, laser, optics, energy, storage = model.fixed_aperture_design(*point)
        return laser + optics + energy + storage

    lo, hi = _bracket(objective, D_MIN, D_MAX)
    point[slot] = golden_section(objective, lo, hi)
    aperture, power, *terms = model.fixed_aperture_design(*point)
    return OptimumDesign(aperture, power, CostBreakdown(*terms), "numeric")


def maximize_speed_fixed_cost(
    total_usd: float, payload: Payload, sail: SailSpec, array: ArraySpec, metrics: CostMetrics
) -> SpeedMaxResult:
    """Fastest reachable speed when the laser + optics budget is fixed.

    The speed-vs-size curve beta^2(d) ~ C_T d - a2 xi_arr d^3 peaks at
    d* = sqrt(C_T / (3 a2 xi_arr)); the leftover budget buys the power.
    """
    aperture, power, beta, laser, optics = model.budget_design(**kernel_point(
        model.budget_design, payload, sail, array, metrics, total_usd=total_usd
    ))
    return SpeedMaxResult(
        aperture=aperture, power=power, beta=beta,
        breakdown=CostBreakdown(laser=laser, optics=optics),
    )


def second_derivative_at(
    aperture: float,
    beta: float,
    payload: Payload,
    sail: SailSpec,
    array: ArraySpec,
    metrics: CostMetrics,
) -> float:
    """Analytic curvature of the constrained cost in the array size.  The
    laser cost falls as 1/d and the optics cost grows as d^2, while the
    energy and storage costs do not depend on d, so the curvature of
    A/d + B d^2 is 2 (C1 + C2) / d^2, with C1 and C2 those of
    ``constrained_cost`` at d.  Always positive, so the stationary point
    is always a minimum."""
    breakdown = constrained_cost(aperture, beta, payload, sail, array, metrics)
    return 2 * (breakdown.laser + breakdown.optics) / aperture**2


_SWEEP_COLUMNS = "d_m,P0_W,C1,C2,C3,C4,C_T,F_ap"
# A sweep grid is split only when every chunk gets at least this many
# points: one fork-and-reap round trip takes ~3.4 ms on a 2-vCPU host, the
# time of ~225 points.
_MIN_CHUNK = 2000
_END = "\0"  # ends a child's text; no row holds it
_PIECE = 65536  # characters read from a child at a time


def sweep_lines(scenario, axis: str, grid: list[float]) -> list[str]:
    """The CSV text of a sweep of one scenario field over ``grid`` (a list
    of SI values), as pieces to write in order: the header line, then one
    line per value, ending in a newline.  Joined, the pieces are the
    same text however the grid was split; a grid of at least
    2 × ``_MIN_CHUNK`` points is run in chunks, one per usable CPU
    (``_rows_in_chunks``), and a forked chunk's rows come back as pieces
    of up to ``_PIECE`` characters, not one per line.

    Under a speed target an ``array.d`` sweep holds the target at each
    aperture (``model.fixed_aperture_design``) and any other field
    re-optimizes in closed form (``model.cost_optimum``); under a budget
    each point is the speed maximum (``model.budget_design``), and its
    row ends in the speed it reaches, ``beta0``.  Every path is defined
    in optimized mode only, and a field is rejected when the path's
    kernel has no parameter by its kernel name in ``scenario.FIELDS``.
    The kernel's arguments are built once, as a list in its parameter
    order, and per point only the swept slot is set.  A swept value is
    checked by rebuilding the scenario's record with it
    (``record.replace``), so a bad value fails as the record would.  A
    record accepts an interval of each single field and refuses NaN, so
    for a grid without NaN the record is rebuilt only at the grid's least
    and greatest values, and per point only when one of those fails.  No
    other record is built, and each row is kept only as its formatted
    text.
    """
    require_cost_mode(scenario.mode)
    _, group, attr, name = SWEEP_FIELDS[axis]
    at_speed = scenario.beta_target is not None or axis == "target.beta0"
    fixed_aperture = axis == "array.d"
    if fixed_aperture and not at_speed:
        raise ValidationError(
            "sweep: array.d cannot be swept under target.budget, which sets the array size"
        )
    if not at_speed:
        kernel = model.budget_design
    elif fixed_aperture:
        kernel = model.fixed_aperture_design
    else:
        kernel = model.cost_optimum
    args = kernel_point(
        kernel, scenario.payload, scenario.sail, scenario.array, scenario.metrics,
        beta=scenario.beta_target, total_usd=scenario.budget_target,
    )
    if name not in args:
        path_target = "target.beta0" if at_speed else "target.budget"
        raise ValidationError(
            f"sweep: {axis} cannot be swept under {path_target}: the rows do not depend on it"
        )
    point, names = list(args.values()), list(args)
    slot, shape = names.index(name), names.index("array_shape")
    record = getattr(scenario, group) if group else None
    if record is not None and grid and all(value == value for value in grid):
        with suppress(ValidationError):  # a bound is crossed: check per point
            for value in (min(grid), max(grid)):
                record.replace(**{attr: value})
            record = None
    header = _SWEEP_COLUMNS if fixed_aperture else f"{axis},{_SWEEP_COLUMNS}"
    isfinite = math.isfinite

    def rows(values):
        lines = []
        prefix = suffix = ""
        for value in values:
            if record is not None:
                record.replace(**{attr: value})
            point[slot] = value
            if at_speed:
                aperture, power, c1, c2, c3, c4 = kernel(*point)
            else:
                aperture, power, beta, c1, c2 = kernel(*point)
                c3 = c4 = 0.0
                suffix = f",{beta!r}"
            if not fixed_aperture:
                prefix = f"{value!r},"
            total = c1 + c2 + c3 + c4
            flux = model.aperture_flux(power, point[shape], aperture)
            # No cost term is negative, so a finite total means finite terms.
            if not (isfinite(total) and isfinite(flux) and isfinite(power) and isfinite(aperture)):
                raise NumericRangeError(
                    f"sweep: the row at {axis} = {value!r} is non-finite; "
                    "inputs out of numeric range"
                )
            lines.append(
                f"{prefix}{aperture!r},{power!r},{c1!r},{c2!r},{c3!r},{c4!r},"
                f"{total!r},{flux!r}{suffix}\n"
            )
        return lines

    return [f"{header}\n" if at_speed else f"{header},beta0\n", *_rows_in_chunks(rows, grid)]


def _chunks(grid: list[float]) -> list[list[float]]:
    """``grid`` cut into contiguous chunks, one per usable CPU, each of at
    least ``_MIN_CHUNK`` points; one chunk where ``os.fork`` is missing,
    or while another thread runs, which a forked child would lack."""
    count = 1
    threading = sys.modules.get("threading")
    if (
        hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
        and (threading is None or threading.active_count() == 1)
    ):
        count = max(1, min(len(os.sched_getaffinity(0)), len(grid) // _MIN_CHUNK))
    bounds = [len(grid) * i // count for i in range(count + 1)]
    return [grid[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _rows_in_chunks(rows, grid: list[float]) -> list[str]:
    """``rows(grid)`` as text pieces in grid order, each chunk of
    ``_chunks(grid)`` but the first run in a forked child while this
    process runs the first.  A child's text is used only when the child
    exited 0 after its end marker, so its chunk raised and warned nothing;
    otherwise, or when no child could be forked, this process runs that
    chunk itself, in grid order, so every error and warning comes from the
    one serial loop.  Every child is reaped before this returns or raises;
    when a chunk raises, the children not yet collected are killed first."""
    first, *rest = _chunks(grid)
    children = []  # (pid, read end) of each forked chunk not yet collected
    try:
        for chunk in rest:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this process runs the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:  # pragma: no cover - runs in the child, which exits
                _stream_rows(rows, chunk, write, [read, *(fd for _, fd in children)])
            os.close(write)
            children.append((pid, read))
        lines = rows(first)
        for chunk in rest:
            pieces = _collect(*children.pop(0)) if children else None
            lines += rows(chunk) if pieces is None else pieces
        return lines
    finally:
        if children:  # a chunk raised, so no child's rows are needed
            from signal import SIGKILL

            for pid, read in children:
                os.kill(pid, SIGKILL)
                os.close(read)
                os.waitpid(pid, 0)


def _collect(pid: int, read: int) -> list[str] | None:
    """A child's text, read to its end in pieces of ``_PIECE`` characters,
    without its end marker; None unless the child exited 0 after writing
    the marker.  Closes the read end and reaps the child."""
    pieces = []
    try:
        with open(read, encoding="utf-8", newline="") as stream:
            while piece := stream.read(_PIECE):
                pieces.append(piece)
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0 or not pieces or not pieces[-1].endswith(_END):
        return None
    pieces[-1] = pieces[-1][:-1]
    return pieces


def _stream_rows(rows, chunk: list[float], write: int, readers: list[int]) -> None:
    """In a forked child: write ``rows(chunk)`` and then the end marker to
    the pipe's ``write`` end, as UTF-8, and exit 0 only when the chunk
    raised and warned nothing.  The inherited ``readers`` are closed
    first.  Touches neither stdout nor stderr, and never returns."""
    status = 1
    try:
        for fd in readers:
            os.close(fd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lines = rows(chunk)
        if not caught:
            with open(write, "w", encoding="utf-8", newline="") as stream:
                stream.writelines(lines)
                stream.write(_END)
            status = 0
    finally:
        os._exit(status)
