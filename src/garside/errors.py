"""Exception types shared across the package."""


class GarsideError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(GarsideError):
    """A table, expression or input file is malformed or inconsistent."""


class DomainError(GarsideError):
    """An operation was applied outside its stated domain."""


class BudgetExceededError(GarsideError):
    """An enumeration ran out of its node budget (CLI exit code 2)."""
