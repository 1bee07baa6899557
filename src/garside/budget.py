"""Node budgets for the enumeration-heavy operations.

Balls, coset scans and audits all walk graphs whose size is exponential in
the radius. A Budget caps the total number of visited nodes so a mistyped
radius fails fast instead of filling memory. The default limit comes from
the GARSIDE_BUDGET environment variable (10**7 when unset); a value that is
not a positive integer is an error.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError, GarsideError

DEFAULT_LIMIT = 10**7
_ENV_VAR = "GARSIDE_BUDGET"


class Budget:
    """A mutable node counter with a hard limit."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        if limit is None:
            limit = default_limit()
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            self.used = self.limit + 1  # as if charged one node at a time
            raise BudgetExceededError(
                f"enumeration budget exceeded ({self.used} > {self.limit} nodes); "
                f"raise {_ENV_VAR} to continue"
            )


def default_limit() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_LIMIT
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise GarsideError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def ensure_budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()
