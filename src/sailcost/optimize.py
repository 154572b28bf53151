"""Numeric optimization over the array size: an independent check on the
closed forms (golden-section minimization of the constrained cost over
the whole array-size range), the analytic cost curvature, and the sweep
runner.
"""

import io
import math
import os
import sys
from collections.abc import Iterator
from functools import partial
from itertools import chain

from . import model
from .errors import (
    BoundaryOptimumError,
    ConvergenceError,
    NumericRangeError,
    ValidationError,
)
from .costs import CostBreakdown, OptimumDesign, require_cost_mode
from .kinematics import warn_beta
from .params import ArraySpec, CostMetrics, Payload, SailSpec
from .scenario import SWEEP_FIELDS, SweepSpec, kernel_point

_INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi

# The numeric search is fixed.  Fig.-style sweeps span meter-to-10,000-km
# array sizes; these bounds comfortably contain every closed-form regime.
D_MIN = 1.0
D_MAX = 1e7
REL_TOL = 1e-10  # golden-section stops at this interval width relative to its location
MAX_ITER = 200


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
    aperture, if any, is replaced by ``aperture``, which its ``array.d``
    rule checks."""
    array = array.replace(aperture=aperture)
    breakdown = CostBreakdown(*model.fixed_aperture_design(**kernel_point(
        model.fixed_aperture_design, payload, sail, array, metrics, beta=beta
    ))[3:])
    warn_beta(beta)
    return breakdown


def minimize_cost_numeric(
    beta: float,
    payload: Payload,
    sail: SailSpec,
    array: ArraySpec,
    metrics: CostMetrics,
) -> OptimumDesign:
    """Minimize the constrained cost over the array size in
    [``D_MIN``, ``D_MAX``] by one golden-section search over the whole
    range.  Along the speed target the cost is A/d + B d^2 plus terms that
    do not depend on d, which is unimodal, so golden section alone finds
    its minimum.  An optimum outside the range is a BoundaryOptimumError:
    the cost is then monotone on it, the search never moves the end of
    its interval at the binding bound, and so its result lies within
    ``REL_TOL`` of that bound.  The kernel's arguments are built once,
    before the search: every evaluated size lies inside those positive
    bounds, and an evaluation, the final one at the optimum included,
    changes only the array size in those arguments."""
    args = kernel_point(model.fixed_aperture_design, payload, sail, array, metrics, beta=beta)
    point, slot = list(args.values()), list(args).index("aperture")

    def objective(d: float) -> float:
        point[slot] = d
        _, _, _, laser, optics, energy, storage = model.fixed_aperture_design(*point)
        return laser + optics + energy + storage

    best = golden_section(objective, D_MIN, D_MAX)
    if best - D_MIN <= REL_TOL * best:
        raise BoundaryOptimumError("lower", D_MIN)
    if D_MAX - best <= REL_TOL * best:
        raise BoundaryOptimumError("upper", D_MAX)
    point[slot] = best
    aperture, power, beta, *terms = model.fixed_aperture_design(*point)
    warn_beta(beta)
    return OptimumDesign(aperture, power, beta, CostBreakdown(*terms), "numeric")


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
# What ends a finished child's spool.  No row holds it.
_END = b"\0"


def sweep_lines(scenario, sweep: SweepSpec) -> Iterator[str]:
    """The CSV text of ``sweep``, one scenario field over the spec's grid
    of SI values, as pieces to write in order: the header line, then one
    line per point, ending in a newline.  Every point is computed before
    this returns, so a failing sweep raises here and nothing is written.
    The rows wait in spools, not in memory: each chunk of the grid, a
    range of point indices that computes its own points, writes its rows
    to its own anonymous temp file, and the lines are read back from
    those files as they are consumed (``_rows_in_chunks``).  A grid of at
    least 2 × ``_MIN_CHUNK`` points is run in chunks, one per usable CPU;
    joined, the pieces are the same text however the grid was split.
    Exhausting or dropping the pieces closes every spool.

    Under a speed target an ``array.d`` sweep holds the target at each
    aperture (``model.fixed_aperture_design``) and any other field
    re-optimizes in closed form (``model.cost_optimum``); under a budget
    each point is the speed maximum (``model.budget_design``), and its
    row ends in the speed it reaches, ``beta0``.  Every path is defined
    in optimized mode only, and a field is rejected when the path's
    kernel has no parameter by its kernel name in ``scenario.FIELDS``.
    The kernel's arguments are built once, as a list in its parameter
    order, and per point only the swept slot is set.  A swept value is
    checked by rebuilding the record that holds it (``record.replace``),
    the Scenario itself for a target, so a bad value fails as the record
    would, and as ``--set`` of that value does.  A record accepts an
    interval of each single field and every grid point lies in ``[start,
    stop]``, so before any kernel runs the record is rebuilt at the
    grid's ``start`` and ``stop`` only.  A failing ``start`` is the first
    failing point; when only ``stop`` fails, the passing points form one
    leading run, whose end a bisection over the grid indices finds in at
    most ``ceil(log2(points))`` more rebuilds.  The first failing point
    raises.  No other record is built, and each row is kept only as its
    formatted text, written to the spool as it is made.

    No kernel warns: once every chunk has succeeded, the sweep warns at
    most once (``warn_beta``), on the larger beta of its first and last
    rows, from the kernel once more at ``start`` and ``stop``, on every
    path.  At speed that beta is the target (``start`` and ``stop`` on
    ``target.beta0``); on the budget path the speed is monotone in each
    swept field, so one of the two is the fastest row.  A warning that
    the caller's filter makes an error closes every spool and
    propagates, so nothing is written.
    """
    require_cost_mode(scenario.mode)
    axis = sweep.axis
    _, group, attr, name, _ = SWEEP_FIELDS[axis]
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
    record = scenario if group is None else getattr(scenario, group)
    start, stop = sweep.start, sweep.stop
    record.replace(**{attr: start})  # a failing start is the first failing point
    try:
        record.replace(**{attr: stop})
    except ValidationError as error:  # the passing points lead: bisect for the first failing one
        passing, failing = 0, sweep.points - 1
        while failing - passing > 1:
            middle = (passing + failing) // 2
            try:
                record.replace(**{attr: next(sweep.values((middle,)))})
                passing = middle
            except ValidationError as fails:
                failing, error = middle, fails
        raise error
    header = _SWEEP_COLUMNS if fixed_aperture else f"{axis},{_SWEEP_COLUMNS}"
    isfinite = math.isfinite

    def rows(indices, spool) -> None:
        prefix = suffix = ""
        for value in sweep.values(indices):
            point[slot] = value
            aperture, power, beta, c1, c2, c3, c4 = kernel(*point)
            if not at_speed:
                suffix = f",{beta!r}"
            if not fixed_aperture:
                prefix = f"{value!r},"
            total = c1 + c2 + c3 + c4
            flux = model.aperture_flux(power, point[shape], aperture)
            # P0 and d are finite (kernel checks, or a grid point), and no cost
            # term is negative, so a finite total means finite terms.
            if not (isfinite(total) and isfinite(flux)):
                raise NumericRangeError(
                    f"sweep: the row at {axis} = {value!r} is non-finite; "
                    "inputs out of numeric range"
                )
            spool.write(
                f"{prefix}{aperture!r},{power!r},{c1!r},{c2!r},{c3!r},{c4!r},"
                f"{total!r},{flux!r}{suffix}\n"
            )

    lines = _rows_in_chunks(rows, sweep.points)
    first = next(lines)  # runs every chunk (the first holds a row): a failing point raises here
    point[slot] = start  # the end rows passed, so neither kernel call fails
    beta = kernel(*point)[2]
    point[slot] = stop
    beta = max(beta, kernel(*point)[2])
    try:
        warn_beta(beta)
    except Warning:
        lines.close()
        raise
    return chain([f"{header}\n" if at_speed else f"{header},beta0\n", first], lines)


def _chunks(points: int) -> list[range]:
    """The indices of ``points`` grid points cut into contiguous ranges,
    one per usable CPU, each of at least ``_MIN_CHUNK`` points; one range
    where ``os.fork`` is missing, or while another thread runs, which a
    forked child would lack."""
    count = 1
    threading = sys.modules.get("threading")
    if (
        hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
        and (threading is None or threading.active_count() == 1)
    ):
        count = max(1, min(len(os.sched_getaffinity(0)), points // _MIN_CHUNK))
    bounds = [points * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _rows_in_chunks(rows, points: int) -> Iterator[str]:
    """Yield the spools' text in grid order, one read buffer at a time,
    once each chunk of ``_chunks(points)`` has written ``rows(chunk,
    spool)`` to its own spool, an anonymous UTF-8 text temp file.  Each
    chunk but the first runs in a forked child, whose spool is kept only
    when it exited 0 after the ``_END`` marker, so its chunk raised
    nothing.  Otherwise, or with no child, this process runs the
    chunk, in grid order, so every error comes from the one serial loop;
    into memory if no spool file could be made.  A child's pid is
    recorded only in this process, where ``os.fork`` returns it, and a
    child forgets its older siblings, so a child never kills one.  Every
    child is reaped before the first yield, and killed first when a chunk
    raises.  Every spool is closed at the end."""
    import tempfile

    chunks = _chunks(points)
    spools = []
    children = {}  # chunk index: pid of the child running it, not yet reaped
    try:
        for i, chunk in enumerate(chunks):
            try:
                spools.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            except OSError:  # no file to spare: this process runs the chunk
                spools.append(io.StringIO())
                continue
            if i:
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: this process runs the chunk
                    continue
                if pid == 0:  # pragma: no cover - runs in the child, which exits
                    children.clear()
                    _spool_rows(rows, chunk, spools[i])
                children[i] = pid
        for i, (chunk, spool) in enumerate(zip(chunks, spools)):
            if i in children:
                status = os.waitpid(children.pop(i), 0)[1]
                end = max(spool.seek(0, os.SEEK_END) - 1, 0)
                if status == 0 and os.pread(spool.fileno(), 1, end) == _END:
                    spool.truncate(end)
                    continue
            spool.seek(0)
            spool.truncate()
            rows(chunk, spool)
        for spool in spools:
            spool.seek(0)
            yield from iter(partial(spool.read, io.DEFAULT_BUFFER_SIZE), "")
    finally:
        if children:  # a chunk raised, so no child's rows are needed
            from signal import SIGKILL

            for pid in children.values():
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for spool in spools:
            spool.close()


def _spool_rows(rows, chunk: range, spool) -> None:
    """In a forked child: write ``rows(chunk)``, then ``_END``, to
    ``spool`` and exit 0.  At its chunk's first error the child exits 1
    without the marker.  Touches neither stdout nor stderr, and never
    returns."""
    status = 1
    try:
        rows(chunk, spool)
        spool.flush()
        os.write(spool.fileno(), _END)
        status = 0
    finally:
        os._exit(status)
