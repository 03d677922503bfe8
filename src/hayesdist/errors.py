"""Shared exception types and the work budget.

Each route checks its own count of the work it will do against one budget
before it starts (see the README's "Budgets").  The default is
DEFAULT_BUDGET; only `--max-enum` or a `budget=` argument sets another.
"""

from __future__ import annotations

DEFAULT_BUDGET = 10 ** 8


class ValidationError(ValueError):
    """Input violates a documented precondition (bad D, bad config, ...)."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, what: str, value: int, budget: int):
        self.what = what
        self.value = value
        self.budget = budget
        super().__init__(f"{what} = {value} exceeds budget {budget}")


class HypothesisError(ValueError):
    """A bound was requested outside the hypotheses under which it holds."""


def check_budget(what: str, value: int, budget: int | None = None) -> None:
    """Raise BudgetExceededError when `value` exceeds the budget."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if value > limit:
        raise BudgetExceededError(what, value, limit)
