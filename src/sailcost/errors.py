"""Exception hierarchy with machine-parsable error codes.

Every error carries a short ``code`` used by the CLI for its
``error_code: message`` stderr contract and exit-code mapping.
"""


class SailcostError(Exception):
    code = "internal_error"
    exit_code = 3


class ValidationError(SailcostError):
    """Input violates a documented invariant (field, constraint, value)."""

    code = "validation_error"
    exit_code = 1


class UnitError(SailcostError):
    """Unknown unit tag, or a unit of the wrong dimension for a field."""

    code = "unit_error"
    exit_code = 1


class ParseError(SailcostError):
    """Scenario text could not be parsed; carries the line and the 1-based
    column, where known."""

    code = "parse_error"
    exit_code = 1

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column else "") + f": {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class DomainError(SailcostError):
    """Argument outside the model's physical validity range."""

    code = "domain_error"
    exit_code = 1


class NumericRangeError(SailcostError):
    """Computation produced a non-finite intermediate or result."""

    code = "numeric_error"
    exit_code = 3


class DegenerateOptimumError(SailcostError):
    """Closed-form optimum does not exist (a cost coefficient is zero)."""

    code = "degenerate_optimum"
    exit_code = 1


class BoundaryOptimumError(SailcostError):
    """Numeric search found the minimum at a search bound."""

    code = "boundary_optimum"
    exit_code = 1

    def __init__(self, bound, best):
        super().__init__(
            f"minimum at {bound} search bound d={best!r} m; the optimum lies outside "
            "the numeric search range, so use the closed form"
        )
        self.bound = bound
        self.best = best


class ConvergenceError(SailcostError):
    """Iteration budget exhausted; carries the best point found."""

    code = "convergence_error"
    exit_code = 3

    def __init__(self, message, best):
        super().__init__(f"{message} (best so far: {best!r})")
        self.best = best


class InfeasibleBudgetError(SailcostError):
    """Budget too small to buy any positive beam power."""

    code = "infeasible_budget"
    exit_code = 1
