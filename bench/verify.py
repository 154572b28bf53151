"""Per-operation correctness checks.

None of them re-runs the formula that produced the value: they test
identities the model must satisfy (C1 = 2 C2 at the cost optimum,
C2 = C_T / 3 at the speed maximum), physics relations between separately
computed outputs (beam energy = P0 t0, L0 = v0 t0 / 2), the speed each
input was designed for with the generator's own closed forms, and the
CLI's output contract (strict JSON, finite values, row counts, one
``error_code: message`` line on rejection).

``check`` returns None when the output is correct, else the reason.
"""

import csv
import io
import json
import math
import re

C = 299792458.0

IDENTITY_TOL = 1e-9
_ERROR_LINE = re.compile(r"^[a-z][a-z_]*: \S.*$")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _rel(a, b):
    return abs(a - b) / abs(b)


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def parse_json_doc(data):
    """The single record of a JSON result; NaN and Infinity are rejected."""
    docs = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    if not isinstance(docs, list) or len(docs) != 1 or not isinstance(docs[0], dict):
        raise ValueError("expected a list holding one record")
    if not all(math.isfinite(x) for x in _numbers(docs)):
        raise ValueError("non-finite number")
    return docs[0]


def _close(errors, what, got, want, tol=IDENTITY_TOL):
    if not _rel(got, want) <= tol:
        errors.append(f"{what}: {got!r} vs {want!r}")


def _check_design(doc, errors, ctx):
    costs, kin = doc["costs"], doc["kinematics"]
    total = costs["C1"] + costs["C2"] + costs["C3"] + costs["C4"]
    _close(errors, "C_T = C1+C2+C3+C4", costs["C_T"], total)
    _close(errors, "beta0 vs designed speed", kin["beta0"], ctx["beta"])
    # Photon energy through the push equals power x time, and the spot
    # grows to the sail at constant thrust, so L0 = v0 t0 / 2.
    power = doc["optimum"]["P0_W"]
    _close(errors, "E_gamma = P0 t0", doc["energy"]["E_gamma_J"], power * kin["t0_s"])
    _close(errors, "L0 = v0 t0 / 2", kin["L0_m"], kin["v0"] * kin["t0_s"] / 2)
    _close(errors, "beta0 = v0 / c", kin["beta0"], kin["v0"] / C)


def _check_optimize(doc, errors, ctx):
    _check_design(doc, errors, ctx)
    costs = doc["costs"]
    residual = abs(costs["C1"] - 2 * costs["C2"]) / costs["C_T"]
    if not residual <= IDENTITY_TOL:
        errors.append(f"|C1-2C2|/C_T = {residual:.3g}")


def _check_max_speed(doc, errors, ctx):
    _check_design(doc, errors, ctx)
    costs = doc["costs"]
    residual = abs(costs["C2"] - costs["C_T"] / 3) / costs["C_T"]
    if not residual <= IDENTITY_TOL:
        errors.append(f"|C2-C_T/3|/C_T = {residual:.3g}")
    _close(errors, "C_T vs budget", costs["C_T"], ctx["budget"])


def _check_energy(doc, errors, ctx):
    scn = ctx["scn"]
    _close(errors, "beta0", doc["beta0"], scn["target.beta0"])
    _close(errors, "E_storage eps = E_gamma",
           doc["E_storage_J"] * scn.get("metrics.eps_storage", 1.0), doc["E_gamma_J"])
    if doc["E_gamma_J"] <= 0 or doc["kinetic_energy_J"] <= 0:
        errors.append("energies must be positive")
    else:
        _close(errors, "efficiency = KE / E_gamma", doc["launch_efficiency"],
               doc["kinetic_energy_J"] / doc["E_gamma_J"])
    a4 = scn.get("metrics.a4", 0.0)
    if a4 == 0:
        if doc["storage_cost_usd"] != 0:
            errors.append("storage cost must be 0 when a4 = 0")
    else:
        _close(errors, "storage cost = a4 E_storage", doc["storage_cost_usd"], a4 * doc["E_storage_J"])


def _csv_rows(data, expected_rows):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    header, body = rows[0], rows[1:]
    if len(body) != expected_rows:
        raise ValueError(f"{len(body)} rows, expected {expected_rows}")
    table = []
    for row in body:
        values = [float(x) for x in row]
        if len(values) != len(header) or not all(math.isfinite(x) for x in values):
            raise ValueError(f"bad row {row!r}")
        table.append(dict(zip(header, values)))
    return header, table


def _check_sweep(data, errors, op):
    ctx = op.ctx
    axis = ctx["axis"]
    _, table = _csv_rows(data, op.rows)
    swept = [row["d_m" if axis == "array.d" else axis] for row in table]
    _close(errors, "first grid point", swept[0], ctx["start"], 1e-12)
    _close(errors, "last grid point", swept[-1], ctx["stop"], 1e-12)
    if any(b <= a for a, b in zip(swept, swept[1:])):
        errors.append("grid not increasing")
    for row in table:
        if ctx["budget"] is not None:
            residual = abs(row["C2"] - row["C_T"] / 3) / row["C_T"]
            bad = residual > IDENTITY_TOL or _rel(row["C_T"], ctx["budget"]) > IDENTITY_TOL
        elif axis != "array.d":
            bad = abs(row["C1"] - 2 * row["C2"]) / row["C_T"] > IDENTITY_TOL
        else:
            bad = False
        if bad:
            errors.append(f"identity fails at {axis} = {row['d_m' if axis == 'array.d' else axis]!r}")
            break


def _check_roadmap(data, errors, op):
    stages = op.ctx["stages"]
    _, table = _csv_rows(data, len(stages))
    for stage, row in zip(stages, table):
        _close(errors, "beta0 = designation / 100", row["beta0"], stage / 100, 1e-12)
    # A faster stage needs a cheaper laser at the same budget, so it
    # enters later on a falling cost curve.
    months = [row["entry_month"] for row in table]
    if any(b <= a for a, b in zip(months, months[1:])):
        errors.append(f"entry months not increasing: {months}")


_JSON_CHECKS = {
    "optimize": _check_optimize,
    "solve": _check_design,
    "max-speed": _check_max_speed,
    "energy": _check_energy,
}


def is_warning(stderr):
    return b"Warning" in stderr


def check(op, rc, stdout, stderr, data):
    """None if the invocation's result is correct, else why not.  ``data``
    is the result bytes: the ``-o`` file, or stdout."""
    if op.kind == "invalid":
        lines = stderr.decode("utf-8", "replace").splitlines()
        if rc not in (1, 2):
            return f"exit {rc} on invalid input ({op.ctx['label']})"
        if len(lines) != 1 or not _ERROR_LINE.match(lines[0]) or stdout:
            return f"expected one error_code: message line, got {lines!r}"
        return None
    if rc != 0:
        return f"exit {rc}: {stderr.decode('utf-8', 'replace').strip()[:200]}"
    if stderr and not is_warning(stderr):
        return f"unexpected stderr: {stderr.decode('utf-8', 'replace').strip()[:200]}"
    errors = []
    try:
        if op.kind == "validate":
            lines = data.decode("utf-8").splitlines()
            passed = [line for line in lines if line.startswith("PASS ")]
            if len(passed) != 9 or len(lines) != 9:
                errors.append(f"{len(passed)} PASS lines of {len(lines)}, expected 9 of 9")
        elif op.kind == "sweep":
            _check_sweep(data, errors, op)
        elif op.kind == "roadmap":
            _check_roadmap(data, errors, op)
        else:
            _JSON_CHECKS[op.kind](parse_json_doc(data), errors, op.ctx)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return "; ".join(errors) or None


def optimum_overrides(stdout):
    """``--set`` arguments that pin the design point of an optimize result."""
    optimum = parse_json_doc(stdout)["optimum"]
    return ["--set", f"array.d={optimum['d_m']!r} m", "--set", f"array.P0={optimum['P0_W']!r} W"]
